//! Spans around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::enter`] / [`Tracer::exit`], in
//! traced and untraced runs alike, so both runs pay the same two clock
//! reads per call. A traced run additionally keeps each span (name,
//! start, end, parent) in memory; [`Tracer::write`] saves them when the
//! benchmark ends. Spans are taken per batch (one quantum's injections,
//! one `run_for` call), never per packet, so recording stays cheap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `netsim.run_millis`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: what [`Tracer::enter`] hands back.
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    start: Instant,
    slot: usize,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

/// Span recorder; recording is on only in traced runs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span named `name`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = if self.on {
            let start_ns = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        Open { start, slot }
    }

    /// Close a span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.on {
            self.spans[open.slot].end_ns = (end - self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.slot), "spans must close innermost first");
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as one span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Render the spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Write the spans to `path` (creating its directory).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn untraced_runs_time_but_keep_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(t.spans().is_empty());
    }
}
