//! Owned metrics: cells one owner writes and the registry reads.
//!
//! A component keeps its counters and levels in a [`Counters`] block
//! indexed by an enum, and each distribution in a [`Histogram`]. It writes
//! them through `&mut self`, so each has one writer by construction and a
//! write is relaxed loads and stores: no lock prefix, no registry lookup.
//! The registry holds the same cells and reads them when a snapshot is
//! taken, so a snapshot always shows current values.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::registry::MetricStore;
use crate::Obs;

/// The keys of a [`Counters`] block: a fieldless enum with one cell per
/// variant. Declare one with [`counter_keys!`](crate::counter_keys).
pub trait CounterKey: Copy + 'static {
    /// Every key, in cell order.
    const ALL: &'static [Self];
    /// This key's cell: its position in [`CounterKey::ALL`].
    fn index(self) -> usize;
    /// The metric name of this key's cell (the label value, in a
    /// [`Counters::family`] block).
    fn name(self) -> &'static str;
    /// Whether this key's cell is a level its owner sets (published as a
    /// gauge) rather than a monotonic counter.
    fn is_level(self) -> bool;
}

/// Declare a fieldless enum implementing [`CounterKey`], each variant with
/// the metric name (or label value) it is published under. A variant
/// whose name is preceded by `level` is a level, set with
/// [`Counters::set`]; the others are counters.
///
/// ```
/// peering_obs::counter_keys! {
///     /// Frames by fate.
///     pub enum Fate {
///         /// Frames forwarded.
///         Forwarded = "fwd.frames",
///         /// Frames queued right now.
///         Queued = level "fwd.queued",
///     }
/// }
/// let obs = peering_obs::Obs::new();
/// let mut c = peering_obs::Counters::<Fate>::new(&obs);
/// c.add(Fate::Forwarded, 2);
/// c.set(Fate::Queued, 5);
/// assert_eq!(obs.snapshot().counter("fwd.frames"), Some(2));
/// assert_eq!(obs.snapshot().gauge("fwd.queued"), Some(5));
/// ```
#[macro_export]
macro_rules! counter_keys {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $($kind:ident)? $metric:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis enum $name { $($(#[$vmeta])* $variant,)+ }

        impl $crate::CounterKey for $name {
            const ALL: &'static [Self] = &[$($name::$variant,)+];
            fn index(self) -> usize { self as usize }
            fn name(self) -> &'static str { match self { $($name::$variant => $metric,)+ } }
            fn is_level(self) -> bool {
                match self { $($name::$variant => $crate::counter_keys!(@level $($kind)?),)+ }
            }
        }
    };
    (@level) => { false };
    (@level level) => { true };
}

const CELLS_PER_LINE: usize = 8;

/// One cache line of cells: blocks owned on different simulator shards
/// never share a line.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct Line([AtomicU64; CELLS_PER_LINE]);

/// Cell `i` of a block's lines.
#[inline]
pub(crate) fn cell(lines: &[Line], i: usize) -> &AtomicU64 {
    &lines[i / CELLS_PER_LINE].0[i % CELLS_PER_LINE]
}

/// Add `n` to a cell only its owner writes.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// An owned block of counters and levels indexed by `K`, published in a
/// registry under one name per key.
pub struct Counters<K: CounterKey> {
    /// Shared with every registry the block is published in.
    lines: Arc<[Line]>,
    /// Unscoped metric name of each cell.
    names: Box<[String]>,
    key: PhantomData<K>,
}

impl<K: CounterKey> Counters<K> {
    /// A zeroed block published under each key's name.
    pub fn new(obs: &Obs) -> Self {
        Self::named(obs, |name| name.to_string())
    }

    /// A zeroed block whose names carry one label, e.g. `labelled(obs,
    /// "peer", 3)` publishes key `bgp.msgs_in` as `bgp.msgs_in{peer=3}`.
    pub fn labelled(obs: &Obs, dim: &str, idx: u32) -> Self {
        Self::named(obs, |name| format!("{name}{{{dim}={idx}}}"))
    }

    /// A zeroed block counting one family by reason: `family(obs,
    /// "data.blocked", "policy")` publishes key `urpf` as
    /// `data.blocked{policy=urpf}`.
    pub fn family(obs: &Obs, family: &str, dim: &str) -> Self {
        Self::named(obs, |name| format!("{family}{{{dim}={name}}}"))
    }

    fn named(obs: &Obs, name: impl Fn(&str) -> String) -> Self {
        let names: Box<[String]> = K::ALL.iter().map(|k| name(k.name())).collect();
        let lines = names.chunks(CELLS_PER_LINE).map(|_| Line::default());
        let mut block = Counters {
            lines: lines.collect(),
            names,
            key: PhantomData,
        };
        block.set_obs(obs);
        block
    }

    /// Add `n` to counter `key`.
    #[inline]
    pub fn add(&mut self, key: K, n: u64) {
        debug_assert!(!key.is_level(), "`{}` is a level", key.name());
        bump(cell(&self.lines, key.index()), n);
    }

    /// Add one to counter `key`.
    #[inline]
    pub fn inc(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Set level `key` to `v`.
    #[inline]
    pub fn set(&mut self, key: K, v: u64) {
        debug_assert!(key.is_level(), "`{}` is a counter", key.name());
        cell(&self.lines, key.index()).store(v, Ordering::Relaxed);
    }

    /// Current value of `key`'s cell.
    #[inline]
    pub fn get(&self, key: K) -> u64 {
        cell(&self.lines, key.index()).load(Ordering::Relaxed)
    }

    /// Every key with its value, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        K::ALL.iter().map(|&k| (k, self.get(k)))
    }

    /// Sum of every cell.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// Publish the block, values included, in `obs`'s registry under its
    /// scope. An owner calls this when it adopts a new registry.
    pub fn set_obs(&mut self, obs: &Obs) {
        let mut registry = obs.registry();
        for (&key, name) in K::ALL.iter().zip(&self.names) {
            let store = MetricStore::Cell {
                lines: self.lines.clone(),
                i: key.index(),
                level: key.is_level(),
            };
            registry.adopt(obs.full_name(name), store);
        }
    }
}

/// A histogram's cells, shared with the registries it is published in.
pub(crate) struct HistState {
    pub bounds: &'static [u64],
    /// One count per bound, plus the overflow bucket.
    pub buckets: Box<[AtomicU64]>,
    pub count: AtomicU64,
    pub sum: AtomicU64,
}

/// An owned fixed-bucket histogram (latencies, batch sizes), published
/// in a registry under one name. Observation is a linear scan over a
/// handful of bounds plus three relaxed load/store pairs — no allocation.
pub struct Histogram {
    state: Arc<HistState>,
    /// Unscoped metric name.
    name: String,
}

impl Histogram {
    /// An empty histogram published as `name`. `bounds` are inclusive
    /// upper bucket bounds; one overflow bucket is added past the last.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(obs: &Obs, name: &str, bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut h = Histogram {
            state: Arc::new(HistState {
                bounds,
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
            name: name.to_string(),
        };
        h.set_obs(obs);
        h
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let h = &self.state;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        bump(&h.buckets[idx], 1);
        bump(&h.count, 1);
        bump(&h.sum, v);
    }

    /// Publish the histogram, values included, in `obs`'s registry under
    /// its scope. An owner calls this when it adopts a new registry.
    pub fn set_obs(&mut self, obs: &Obs) {
        let store = MetricStore::Histogram(self.state.clone());
        obs.registry().adopt(obs.full_name(&self.name), store);
    }
}
