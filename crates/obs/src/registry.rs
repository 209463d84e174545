//! Metric table: every published cell by its full name.
//!
//! The registry owns no values. Owners publish the cells they write
//! ([`Counters`](crate::Counters) blocks and [`Histogram`](crate::Histogram)s)
//! and the registry reads them at snapshot time with `Relaxed` loads: the
//! simulator's window barriers (channel handoffs between the coordinator
//! and its workers) provide the happens-before edges a snapshot needs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::counters::{cell, HistState, Line};
use crate::snapshot::{Snapshot, SnapshotValue};

/// Where a published metric's value lives.
pub(crate) enum MetricStore {
    /// Cell `i` of an owned block; a `level` renders as a gauge.
    Cell {
        lines: Arc<[Line]>,
        i: usize,
        level: bool,
    },
    Histogram(Arc<HistState>),
}

impl MetricStore {
    fn kind(&self) -> &'static str {
        match self {
            MetricStore::Cell { level: false, .. } => "counter",
            MetricStore::Cell { level: true, .. } => "level",
            MetricStore::Histogram(_) => "histogram",
        }
    }

    fn value(&self) -> SnapshotValue {
        match self {
            MetricStore::Cell { lines, i, level } => {
                let v = cell(lines, *i).load(Ordering::Relaxed);
                match level {
                    false => SnapshotValue::Counter(v),
                    true => SnapshotValue::Gauge(v as i64),
                }
            }
            MetricStore::Histogram(h) => SnapshotValue::Histogram {
                bounds: h.bounds,
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            },
        }
    }
}

/// Metric table keyed by full name. Not public: owners publish through
/// [`crate::Obs`], which adds scope prefixes.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: HashMap<String, MetricStore>,
}

/// Publication goes through a mutex (cold path); owners write their
/// cells without it.
pub(crate) type SharedRegistry = Mutex<Registry>;

impl Registry {
    /// Publish `store` under `name`, replacing whatever metric of the
    /// same kind was published there before.
    ///
    /// # Panics
    /// Panics if `name` is published as a different kind.
    pub fn adopt(&mut self, name: String, store: MetricStore) {
        match self.metrics.entry(name) {
            Entry::Vacant(slot) => {
                slot.insert(store);
            }
            Entry::Occupied(mut slot) => {
                assert!(
                    slot.get().kind() == store.kind(),
                    "metric `{}` already registered as a different kind ({})",
                    slot.key(),
                    slot.get().kind()
                );
                slot.insert(store);
            }
        }
    }

    /// Name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<_> = self
            .metrics
            .iter()
            .map(|(n, s)| (n.clone(), s.value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot::from_entries(entries)
    }
}
