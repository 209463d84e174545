//! Data-plane lookup throughput: the mux's compiled flat FIB + flow cache
//! vs the binary trie it is compiled from, on one neighbor table at
//! full-Internet scale.
//!
//! Builds a [`VbgpMux`] with one local neighbor, installs N synthetic IPv4
//! prefixes (/16–/28, so every level of the compiled FIB's stride-8 trie
//! is exercised), then measures lookups per second in five rows:
//!
//! - `baseline_trie`: [`PrefixTrie::lookup`] over the same prefixes — every
//!   packet walks the binary trie (the pre-optimization data plane).
//! - `optimized_fib`: `egress_via_neighbor_batch` in runs of one,
//!   cache-hostile probe stream (256k distinct destinations — the flow
//!   cache almost never hits, so this isolates the compiled FIB's lookup).
//! - `optimized_cached`: the same, flow-heavy probe stream (2k distinct
//!   destinations — the direct-mapped flow cache absorbs most lookups).
//! - `optimized_batch64`: `egress_via_neighbor_batch` in runs of 64,
//!   cache-hostile stream (amortized table selection + egress resolution).
//! - `optimized_cached_batch64`: runs of 64 on the flow-heavy stream, where a batched
//!   lookup pays for whatever it does for frames the flow cache answers.
//!
//! Each row is timed over [`RUNS`] passes of its probe stream after one
//! warm-up pass and records the median, min and max lookups/sec.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p peering-bench --bin dataplane_pps            # 900k prefixes
//! cargo run --release -p peering-bench --bin dataplane_pps -- 50000  # smaller table
//! cargo run --release -p peering-bench --bin dataplane_pps -- 900000 --write
//! cargo run --release -p peering-bench --bin dataplane_pps -- 20000 --check
//! ```
//!
//! `--write` records the rows to `docs/results/BENCH_dataplane.json`;
//! `--check` (the CI smoke mode) re-measures on whatever table size was
//! given and fails if the median runs-of-one lookup throughput regressed
//! more than 5x below the committed median.
//!
//! It also prints the compiled FIB's bytes per unique prefix (the
//! `fib_bytes_per_prefix` field of the results file).

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use peering_bench::{bench_args, splitmix, synth_fib_prefix};
use peering_bgp::trie::PrefixTrie;
use peering_bgp::types::Prefix;
use peering_netsim::{MacAddr, PortId};
use peering_obs::Obs;
use peering_vbgp::{MuxCounter, NeighborId, VbgpMux};

const RESULTS: &str = "docs/results/BENCH_dataplane.json";
const OBS_RESULTS: &str = "docs/results/OBS_dataplane.txt";
const NEIGHBOR: NeighborId = NeighborId(1);

/// Timed passes per row.
const RUNS: usize = 7;

/// Draw `count` probe addresses covered by installed prefixes, cycling a
/// pool of `distinct` destinations. A small pool keeps the stream inside
/// the flow cache; a large pool defeats it.
fn probes(prefixes: &[Prefix], distinct: usize, count: usize, seed: u64) -> Vec<Ipv4Addr> {
    let mut state = seed;
    let pool: Vec<Ipv4Addr> = (0..distinct)
        .map(|_| {
            let r = splitmix(&mut state);
            let Prefix::V4 { addr, len } = prefixes[(r as usize) % prefixes.len()] else {
                unreachable!("synthetic prefixes are IPv4");
            };
            let host_bits = 32 - u32::from(len);
            let offset = (splitmix(&mut state) as u32) & (((1u64 << host_bits) - 1) as u32);
            Ipv4Addr::from(u32::from(addr) | offset)
        })
        .collect();
    (0..count)
        .map(|_| pool[(splitmix(&mut state) as usize) % pool.len()])
        .collect()
}

fn build_mux(prefixes: &[Prefix]) -> VbgpMux {
    let mut mux = VbgpMux::new();
    mux.add_local_neighbor(NEIGHBOR, PortId(1), MacAddr([2, 0, 0, 0, 0, 1]), None);
    for p in prefixes {
        mux.install_route(NEIGHBOR, *p);
    }
    mux
}

/// Lookups/sec over [`RUNS`] timed passes of `pass` (each `lookups`
/// lookups) after one warm-up pass, as (median, min, max).
fn rate(lookups: usize, mut pass: impl FnMut() -> usize) -> (f64, f64, f64) {
    black_box(pass());
    let mut rates: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(pass());
            lookups as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    (rates[RUNS / 2], rates[0], rates[RUNS - 1])
}

/// Lookups/sec for a probe stream walking the binary trie.
fn measure_trie(trie: &PrefixTrie<()>, probes: &[Ipv4Addr]) -> (f64, f64, f64) {
    rate(probes.len(), || {
        probes
            .iter()
            .filter(|&&ip| trie.lookup(ip.into()).is_some())
            .count()
    })
}

/// Lookups/sec through `egress_via_neighbor_batch` in runs of `batch`.
fn measure_batch(mux: &mut VbgpMux, probes: &[Ipv4Addr], batch: usize) -> (f64, f64, f64) {
    let mut out = Vec::with_capacity(batch);
    rate(probes.len(), || {
        let mut hits = 0;
        for run in probes.chunks(batch) {
            mux.egress_via_neighbor_batch(NEIGHBOR, run, &mut out);
            hits += out.iter().flatten().count();
        }
        hits
    })
}

/// Pull `"key": <number>` out of hand-written JSON (the results files are
/// flat enough that a real parser would be overkill, and the platform's
/// json module is integer-only).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let flags = ["--write", "--check"];
    let args = bench_args(
        "dataplane_pps [prefixes > 0] [--write] [--check]",
        &flags,
        Some(900_000),
    );
    let [write, check] = flags.map(|f| args.has(f));
    let n_prefixes = args.size;

    let prefixes: Vec<Prefix> = (0..n_prefixes).map(synth_fib_prefix).collect();
    let mut mux = build_mux(&prefixes);
    let mut trie = PrefixTrie::new();
    for p in &prefixes {
        trie.insert(*p, ());
    }
    let obs = Obs::new();
    mux.set_obs(obs.clone());
    let table_entries = mux.table_entries(NEIGHBOR).count();
    println!("dataplane_pps: {n_prefixes} installs -> {table_entries} unique prefixes (/16-/28)");

    let hostile = probes(&prefixes, 1 << 18, 1 << 18, 0xda7a);
    let flows = probes(&prefixes, 2_048, 1 << 18, 0xf10e);

    let trie_pps = measure_trie(&trie, &hostile);
    let mut mux_pps = |probes, batch| measure_batch(&mut mux, probes, batch);
    // (row and results-file key, probe stream, lookups/sec).
    let rows = [
        ("baseline_trie", "256k distinct", trie_pps),
        ("optimized_fib", "256k distinct", mux_pps(&hostile, 1)),
        ("optimized_cached", "2k distinct", mux_pps(&flows, 1)),
        ("optimized_batch64", "256k, x64", mux_pps(&hostile, 64)),
        ("optimized_cached_batch64", "2k, x64", mux_pps(&flows, 64)),
    ];
    let baseline_pps = rows[0].2 .0;
    let fib_pps = rows[1].2 .0;
    let fib_speedup = fib_pps / baseline_pps;

    println!();
    println!("row                      probes        lookups/sec, median of {RUNS} (min-max)");
    for (name, stream, (median, min, max)) in rows {
        let speedup = median / baseline_pps;
        println!("{name:<24} {stream:<13} {median:>10.0} ({min:.0}-{max:.0})  {speedup:.2}x");
    }
    println!(
        "flow cache hits: {}",
        mux.stats.get(MuxCounter::FlowCacheHits)
    );
    let fib_bytes = mux.fib_bytes();
    let fib_bytes_per_prefix = fib_bytes as f64 / table_entries as f64;
    println!("compiled FIB: {fib_bytes} B, {fib_bytes_per_prefix:.1} B/prefix");

    // Show what the run did to the data plane (cache hit/miss split, FIB
    // patches vs rebuilds).
    let snap = obs.snapshot();
    println!();
    println!("registry snapshot ({} series):", snap.len());
    for line in snap.to_text().lines() {
        println!("  {line}");
    }

    if check {
        let committed = std::fs::read_to_string(RESULTS)
            .unwrap_or_else(|e| panic!("--check needs {RESULTS}: {e}"));
        let committed_pps = json_number(&committed, "optimized_fib_pps")
            .unwrap_or_else(|| panic!("{RESULTS} has no optimized_fib_pps"));
        // Both are medians. The smoke table is much smaller than the
        // committed 900k run, so the measured number should be at or
        // above the committed one; a >5x shortfall means the fast path
        // itself regressed.
        let floor = committed_pps / 5.0;
        assert!(
            fib_pps >= floor,
            "fast-path regression: measured {fib_pps:.0} pps < {floor:.0} \
             (committed {committed_pps:.0} / 5)"
        );
        assert!(
            fib_speedup >= 1.0,
            "fast path slower than trie baseline: {fib_speedup:.2}x"
        );
        println!("check OK: {fib_pps:.0} pps >= floor {floor:.0}");
    }

    if write {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rows = rows.map(|(key, _, (median, min, max))| {
            let speedup = median / baseline_pps;
            format!("    \"{key}_pps\": {median:.0}, \"{key}_pps_min\": {min:.0}, \"{key}_pps_max\": {max:.0}, \"{key}_speedup\": {speedup:.2},")
        });
        let rows = rows.join("\n");
        let json = format!(
            r#"{{
  "generated": "2026-10-20",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin dataplane_pps -- {n_prefixes} --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin dataplane_pps -- 20000 --check"
  }},
  "dataplane_pps": {{
    "description": "lookups/sec on one neighbor table; baseline times PrefixTrie::lookup over the same prefixes, optimized rows call egress_via_neighbor_batch (runs of one, or runs of 64 for the batch rows), which consults the compiled FIB (a stride-8 multibit trie) with a direct-mapped flow cache in front; the batch rows amortize table selection over their runs",
    "prefix_installs": {n_prefixes},
    "unique_prefixes": {table_entries},
    "prefix_lengths": "/16-/28",
    "probe_stream": "256k destinations drawn from installed prefixes (cache-hostile); cached rows use 2k destinations",
    "runs": {RUNS},
    "host_cores": {host_cores},
    "statistic": "each *_pps is the median of the runs, *_pps_min and *_pps_max bound them, and *_speedup is the median over the baseline's",
{rows}
    "fib_bytes": {fib_bytes},
    "fib_bytes_per_prefix": {fib_bytes_per_prefix:.1},
    "acceptance_bar": "optimized >= 5x baseline at ~900k IPv4 prefixes",
    "paper_context": {{
      "claim": "the PEERING mux multiplexes the full Internet routing table per neighbor on commodity hardware; forwarding must not walk a per-packet trie at line rate",
      "section": "4.2 data-plane scalability"
    }}
  }}
}}
"#
        );
        std::fs::write(RESULTS, json).expect("write results JSON");
        println!("wrote {RESULTS}");
        std::fs::write(OBS_RESULTS, snap.to_text()).expect("write obs snapshot");
        println!("wrote {OBS_RESULTS}");
    }
}
