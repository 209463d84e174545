//! Result records, host probes and small statistics helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use peering_obs::Snapshot;

/// Named metrics in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name` (replacing an earlier value of the same name).
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// `(name, value, unit)` in report order.
    pub fn entries(&self) -> &[(&'static str, f64, &'static str)] {
        &self.entries
    }
}

/// What one benchmark invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Inputs offered in timed phases (packets or churn events).
    pub attempted: u64,
    /// Inputs that failed (refused, lost or not applied).
    pub failed: u64,
    /// The metrics for this mode (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Correctness-gate violations, one line each.
    pub violations: Vec<String>,
    /// Facts about the run (host, seed, size) for the record.
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Record a gate: a violation is kept when `ok` is false.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Record a fact about the run.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.entries().iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(m, r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#);
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`); 0 when absent.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, in MB (10^6 bytes).
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS") as f64 * 1024.0 / 1e6
}

/// Resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM") as f64 * 1024.0 / 1e6
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sum every counter whose name contains `needle` (all PoPs, all
/// label values).
pub fn counter_sum(snap: &Snapshot, needle: &str) -> u64 {
    snap.names()
        .filter(|n| n.contains(needle))
        .filter_map(|n| snap.counter(n))
        .sum()
}

/// Obs counters the workloads read as deltas over their timed phase.
const COUNTERS: [&str; 14] = [
    "mux.flow_cache_hits",
    "mux.flow_cache_misses",
    "mux.no_route",
    "netsim.link_drops",
    "data.ingress_blocked{policy=urpf}",
    "data.ingress_blocked{policy=program-block}",
    "data.ingress_blocked{policy=flood-budget}",
    "data.prog_runs",
    "data.prog_cache_hits",
    "mux.fib_rebuilds",
    "mux.fib_patch_rounds",
    "mux.fib_prefixes_patched",
    "transport.gap_resets",
    "transport.decode_resets",
];

/// The `COUNTERS` summed over PoPs, `after` minus `before`.
pub fn counter_deltas(before: &Snapshot, after: &Snapshot) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&n| (n, counter_sum(after, n) - counter_sum(before, n)))
        .collect()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Smallest value of `v` (0 for an empty slice).
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Phase time of passes that replay identical quanta: each quantum's
/// fastest wall time over the passes, summed over quanta.
/// `per_pass[p][q]` is pass `p`'s quantum `q`. Every pass does the same
/// work, and other tenants of a shared host only ever add time to it, so
/// a quantum's fastest pass is its least disturbed measurement; slow
/// phases of the host that span whole passes drop out as long as each
/// quantum ran outside them once.
pub fn composite_s(per_pass: &[&[f64]]) -> f64 {
    let quanta = per_pass.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..quanta)
        .map(|q| fastest(&per_pass.iter().map(|p| p[q]).collect::<Vec<_>>()))
        .sum()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn composite_takes_each_quantums_fastest_pass() {
        let (a, b, c) = ([1.0, 9.0], [2.0, 3.0], [50.0, 4.0]);
        assert_eq!(composite_s(&[&a, &b, &c]), 1.0 + 3.0);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metrics.put("setup_s", 1.5, "s");
        assert_eq!(
            r.to_json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}"#
        );
        r.gate(false, || "broken".into());
        assert!(r.to_json().starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn status_fields_parse() {
        assert!(rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
