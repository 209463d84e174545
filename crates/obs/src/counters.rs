//! Owned counter blocks: cells one owner writes and the registry reads.
//!
//! A component keeps its counters in a [`Counters`] block indexed by an
//! enum. It bumps them through `&mut self`, so each block has one writer by
//! construction and a bump is a relaxed load and store: no lock prefix, no
//! registry lookup. The registry holds the same cells and reads them when a
//! snapshot is taken, so a snapshot always shows current values.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
}

/// Declare a fieldless enum implementing [`CounterKey`], each variant with
/// the metric name (or label value) it is published under.
///
/// ```
/// peering_obs::counter_keys! {
///     /// Frames by fate.
///     pub enum Fate {
///         /// Frames forwarded.
///         Forwarded = "fwd.frames",
///         /// Frames dropped.
///         Dropped = "fwd.drops",
///     }
/// }
/// let obs = peering_obs::Obs::new();
/// let mut c = peering_obs::Counters::<Fate>::new(&obs);
/// c.add(Fate::Dropped, 2);
/// assert_eq!(obs.snapshot().counter("fwd.drops"), Some(2));
/// ```
#[macro_export]
macro_rules! counter_keys {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $metric:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        $vis enum $name { $($(#[$vmeta])* $variant,)+ }

        impl $crate::CounterKey for $name {
            const ALL: &'static [Self] = &[$($name::$variant,)+];
            fn index(self) -> usize { self as usize }
            fn name(self) -> &'static str { match self { $($name::$variant => $metric,)+ } }
        }
    };
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

/// An owned block of monotonic counters indexed by `K`, published in a
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

    /// Add `n` to `key`'s cell.
    #[inline]
    pub fn add(&mut self, key: K, n: u64) {
        let cell = cell(&self.lines, key.index());
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Add one to `key`'s cell.
    #[inline]
    pub fn inc(&mut self, key: K) {
        self.add(key, 1);
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
        for (i, name) in self.names.iter().enumerate() {
            registry.adopt(&format!("{}{name}", obs.prefix), &self.lines, i);
        }
    }
}
