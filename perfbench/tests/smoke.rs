//! The benchmark's own tests, at the smoke size of each workload: metric
//! names and units, the correctness gate (which also checks that the
//! passes of one run count the same), agreement with `BENCHMARK.json`,
//! and an identical speaker replay from two runs of one seed.

use perfbench::dfz;
use perfbench::replay;
use perfbench::run::{END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{run, Options, Size, Workload};

const SEED: u64 = 7;

fn opts(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        trace_dir: None,
    }
}

fn names_and_units(report: &perfbench::Report) -> Vec<(&'static str, &'static str)> {
    report
        .metrics
        .entries()
        .iter()
        .map(|&(name, _, unit)| (name, unit))
        .collect()
}

#[test]
fn every_workload_passes_its_gate_and_reports_every_metric() {
    for w in Workload::ALL {
        let e2e = run(&opts(w, false));
        assert!(
            e2e.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            e2e.violations
        );
        assert!(e2e.to_json().starts_with(r#"{"correct": true"#));
        assert_eq!(e2e.failed, 0, "{}", w.name());
        assert!(e2e.attempted > 0);
        assert_eq!(names_and_units(&e2e), END_TO_END.to_vec(), "{}", w.name());
        for &(name, value, _) in e2e.metrics.entries() {
            assert!(
                value > 0.0 && value.is_finite(),
                "{} {name} = {value}",
                w.name()
            );
        }

        let traced = run(&opts(w, true));
        assert!(
            traced.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.violations
        );
        let mut got = names_and_units(&traced);
        let mut want = PER_LAYER.to_vec();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}", w.name());
        check_idle_layers(w, &traced);
    }
}

/// Layers a workload leaves idle read 0; the ones it works read more.
fn check_idle_layers(w: Workload, traced: &perfbench::Report) {
    let get = |name: &str| traced.metrics.get(name).expect("metric reported");
    match w {
        Workload::ServeBare => {
            for name in [
                "data.blocked_urpf",
                "data.blocked_flood",
                "mux.urpf_ns",
                "speaker.feed_ns_per_nlri",
            ] {
                assert_eq!(get(name), 0.0, "serve-bare {name}");
            }
            assert!(get("mux.deliver_ns") > 0.0);
        }
        Workload::ServeAttack | Workload::ServeSharded => {
            assert!(get("data.blocked_urpf") > 0.0, "{}", w.name());
        }
        Workload::DfzChurn => {
            assert_eq!(get("internet.inject_ns_per_pkt"), 0.0);
            assert!(get("speaker.feed_ns_per_nlri") > 0.0);
            assert!(get("mux.fib_patch_rounds") + get("mux.fib_rebuilds") > 0.0);
        }
    }
}

#[test]
fn benchmark_json_declares_the_programs_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let decl = format!(r#""name": "{name}", "unit": "{unit}""#);
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!(r#""name": "{}""#, w.name())));
    }
}

#[test]
fn two_speaker_replays_of_one_seed_count_the_same() {
    let cfg = dfz::DfzCfg {
        v4: 2_000,
        v6: 400,
        members: 8,
        churn_secs: 4,
    };
    let inp = dfz::inputs(SEED, &cfg);
    let a = replay::speaker(&inp, &mut Tracer::new(true));
    let b = replay::speaker(&inp, &mut Tracer::new(false));
    assert_eq!(a.updates_out_per_nlri, b.updates_out_per_nlri);
    assert!(a.updates_out_per_nlri > 0.0);
}
