//! Metric storage: interned names, dense ids, shared-cell handles.
//!
//! Handles are backed by atomics so instrumented components can run on
//! simulator worker threads (sharded-parallel runs). All operations use
//! `Relaxed` ordering: metrics are commutative sums, and the simulator's
//! window barriers (thread join / `Barrier::wait`) provide the
//! happens-before edges a snapshot needs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::{cell, Line};
use crate::snapshot::{Snapshot, SnapshotValue};

/// A monotonic counter several writers share. Cloning shares the cell;
/// incrementing is a single relaxed atomic add — no lock, no lookup, no
/// allocation. A counter with one owner lives in a
/// [`Counters`](crate::Counters) block instead.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed level.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistState {
    pub bounds: &'static [u64],
    /// One count per bound, plus the overflow bucket.
    pub buckets: Box<[AtomicU64]>,
    pub count: AtomicU64,
    pub sum: AtomicU64,
}

/// A fixed-bucket histogram (latencies, batch sizes). Observation is a
/// linear scan over a handful of bounds plus three relaxed atomic adds —
/// no allocation.
#[derive(Clone)]
pub struct Histogram(Arc<HistState>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

enum MetricStore {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// Cell `.1` of an owned [`Counters`](crate::Counters) block.
    Owned(Arc<[Line]>, usize),
}

impl MetricStore {
    fn kind(&self) -> &'static str {
        match self {
            MetricStore::Counter(_) => "counter",
            MetricStore::Gauge(_) => "gauge",
            MetricStore::Histogram(_) => "histogram",
            MetricStore::Owned(..) => "owned counter",
        }
    }
}

/// Metric table keyed by full name. Not public: callers go through
/// [`crate::Obs`], which adds scope prefixes and the shared clock.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: HashMap<String, MetricStore>,
}

/// Registration goes through a mutex (cold path); the handles it returns
/// touch only their own atomics afterwards.
pub(crate) type SharedRegistry = Mutex<Registry>;

fn kind_mismatch(name: &str, other: &MetricStore) -> ! {
    panic!(
        "metric `{name}` already registered as a different kind ({})",
        other.kind()
    )
}

impl Registry {
    /// The metric registered as `name`, `new` on first sight.
    fn entry(&mut self, name: &str, new: impl FnOnce() -> MetricStore) -> &mut MetricStore {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), new());
        }
        self.metrics.get_mut(name).expect("inserted above")
    }

    pub fn counter(&mut self, name: &str) -> Counter {
        match self.entry(name, || MetricStore::Counter(Counter(Arc::default()))) {
            MetricStore::Counter(c) => c.clone(),
            other => kind_mismatch(name, other),
        }
    }

    pub fn gauge(&mut self, name: &str) -> Gauge {
        match self.entry(name, || MetricStore::Gauge(Gauge(Arc::default()))) {
            MetricStore::Gauge(g) => g.clone(),
            other => kind_mismatch(name, other),
        }
    }

    pub fn histogram(&mut self, name: &str, bounds: &'static [u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let new = || {
            MetricStore::Histogram(Histogram(Arc::new(HistState {
                bounds,
                buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        };
        match self.entry(name, new) {
            MetricStore::Histogram(h) => {
                assert_eq!(
                    h.0.bounds, bounds,
                    "metric `{name}` re-registered with different bounds"
                );
                h.clone()
            }
            other => kind_mismatch(name, other),
        }
    }

    /// Publish cell `i` of an owned block under `name`, replacing any
    /// block cell published there before.
    ///
    /// # Panics
    /// Panics if `name` is registered as a shared metric.
    pub fn adopt(&mut self, name: &str, lines: &Arc<[Line]>, i: usize) {
        let owned = MetricStore::Owned(lines.clone(), i);
        match self.entry(name, || MetricStore::Owned(lines.clone(), i)) {
            store @ MetricStore::Owned(..) => *store = owned,
            other => kind_mismatch(name, other),
        }
    }

    /// Name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let value = |store: &MetricStore| match store {
            MetricStore::Counter(c) => SnapshotValue::Counter(c.get()),
            MetricStore::Owned(lines, i) => {
                SnapshotValue::Counter(cell(lines, *i).load(Ordering::Relaxed))
            }
            MetricStore::Gauge(g) => SnapshotValue::Gauge(g.get()),
            MetricStore::Histogram(h) => {
                let h = &h.0;
                SnapshotValue::Histogram {
                    bounds: h.bounds,
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                }
            }
        };
        let mut entries: Vec<_> = self
            .metrics
            .iter()
            .map(|(n, s)| (n.clone(), value(s)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot::from_entries(entries)
    }
}
