//! The discrete-event queue.
//!
//! Events are ordered by an intrinsic [`EventKey`] — `(time, class,
//! destination node, source, per-source sequence)` — rather than by a
//! global insertion counter. Every component of the key is determined by
//! the simulation itself (when the event fires, which node produced it,
//! how many events that producer had emitted before), so the total order
//! is identical no matter how the simulator's work is partitioned across
//! shards. That property is what lets the sharded-parallel engine replay
//! runs bit-identically to the single-threaded baseline.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

use crate::chaos::ChaosStep;
use crate::frame::EtherFrame;
use crate::sim::{NodeId, PortId};
use crate::time::SimTime;

/// `src` value for events pushed from outside the event loop (external
/// drivers, traffic injection). Sorts after node-sourced events that share
/// a `(time, class, dst)`.
pub const EXTERNAL_SRC: u32 = u32::MAX;

/// Event class for chaos steps: they sort before node events at the same
/// instant, so a link flap at time `t` affects every frame sent at `t`.
pub const CLASS_CHAOS: u8 = 0;

/// Event class for node events (frame deliveries and timers).
pub const CLASS_NODE: u8 = 1;

/// The total order on simulator events.
///
/// Lexicographic over `(at, class, dst, src, seq)`. `seq` is a per-source
/// counter (each node numbers the events it emits; external pushes share
/// one counter), so two events never compare equal and the order never
/// depends on wall-clock scheduling or shard layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// When the event fires.
    pub at: SimTime,
    /// [`CLASS_CHAOS`] or [`CLASS_NODE`].
    pub class: u8,
    /// Node the event is delivered to (the link index for chaos steps).
    pub dst: u32,
    /// Node that emitted the event, or [`EXTERNAL_SRC`].
    pub src: u32,
    /// Per-source sequence number.
    pub seq: u64,
}

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A frame arrives at a node's port.
    FrameDelivery {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// The frame.
        frame: EtherFrame,
    },
    /// A timer set by a node fires.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Opaque token chosen by the node when the timer was set.
        token: u64,
    },
    /// A scheduled chaos-plan step mutates link state (flap, fault burst).
    Chaos(ChaosStep),
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// The event's position in the simulation's total order.
    pub key: EventKey,
    /// The action.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first
        // (the queue's side heap relies on this).
        other.key.cmp(&self.key)
    }
}

/// A key-ordered event queue (one per shard in sharded runs).
///
/// Pops come out in exactly [`EventKey`] order, as from a binary heap, but
/// the events are bucketed by [`EventKey::at`]: simulated workloads put
/// many events at one instant (a quantum of injected packets, a fan-out of
/// updates), and a heap pays a sift per pop for each of them.
///
/// * The earliest instant's bucket, the *head*, is sorted once by the full
///   key at its first pop, so every later pop is a `Vec::pop`. Until then
///   it tracks the index of its earliest event, so [`EventQueue::peek`]
///   stays exact while pushes at the head instant accumulate unsorted.
/// * Later instants wait unsorted in a map keyed by time; when the head
///   runs dry the earliest of them becomes the head.
/// * A push into the head instant after its sort (a zero-delay timer or a
///   zero-latency link) goes to a small side heap, merged into pops by key.
/// * A push earlier than the head demotes the head bucket back into the
///   map and starts a new head.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Events at `head_at`; sorted descending by key once `sorted` is set.
    head: Vec<Event>,
    /// The head instant (meaningful while the queue is non-empty).
    head_at: SimTime,
    /// Whether `head` has been sorted. While unset, `late` is empty.
    sorted: bool,
    /// Index of `head`'s earliest event while unsorted.
    head_min: usize,
    /// Pushes into the head instant after its sort.
    late: BinaryHeap<Event>,
    /// Non-empty buckets for the instants after `head_at`, each unsorted.
    later: BTreeMap<SimTime, Vec<Event>>,
    /// Total pending events. Whenever it is non-zero, `head` or `late`
    /// holds at least one of them.
    len: usize,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at its key's position in the total order.
    pub fn push(&mut self, key: EventKey, kind: EventKind) {
        let event = Event { key, kind };
        self.len += 1;
        if self.len == 1 {
            self.start_head(event);
            return;
        }
        match key.at.cmp(&self.head_at) {
            Ordering::Equal if self.sorted => self.late.push(event),
            Ordering::Equal => {
                if key < self.head[self.head_min].key {
                    self.head_min = self.head.len();
                }
                self.head.push(event);
            }
            Ordering::Greater => self.later.entry(key.at).or_default().push(event),
            Ordering::Less => {
                let mut bucket = std::mem::take(&mut self.head);
                bucket.extend(std::mem::take(&mut self.late).into_vec());
                self.later.insert(self.head_at, bucket);
                self.start_head(event);
            }
        }
    }

    /// Make `event` the sole member of a fresh, unsorted head bucket.
    fn start_head(&mut self, event: Event) {
        debug_assert!(self.head.is_empty() && self.late.is_empty());
        self.head_at = event.key.at;
        self.head.push(event);
        self.sorted = false;
        self.head_min = 0;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        if !self.sorted {
            self.head.sort_unstable_by_key(|e| Reverse(e.key));
            self.sorted = true;
        }
        let from_late = match (self.head.last(), self.late.peek()) {
            (Some(h), Some(l)) => l.key < h.key,
            (h, _) => h.is_none(),
        };
        let event = if from_late {
            self.late.pop()
        } else {
            self.head.pop()
        }
        .expect("a non-empty queue has a head event");
        self.len -= 1;
        if self.head.is_empty() && self.late.is_empty() {
            if let Some((at, bucket)) = self.later.pop_first() {
                self.head_min = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.key)
                    .map_or(0, |(i, _)| i);
                self.head = bucket;
                self.head_at = at;
                self.sorted = false;
            }
        }
        Some(event)
    }

    /// The earliest event without removing it (the simulator uses this to
    /// coalesce same-instant deliveries to one node into a batch).
    pub fn peek(&self) -> Option<&Event> {
        if !self.sorted {
            return self.head.get(self.head_min);
        }
        match (self.head.last(), self.late.peek()) {
            (Some(h), Some(l)) => Some(if l.key < h.key { l } else { h }),
            (h, l) => h.or(l),
        }
    }

    /// The earliest event's key, if any (shards compare heads to find the
    /// global minimum).
    pub fn peek_key(&self) -> Option<EventKey> {
        self.peek().map(|e| e.key)
    }

    /// When the next event fires, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then_some(self.head_at)
    }

    /// Remove every event, returning them in no particular order (used
    /// when re-partitioning nodes across shards).
    pub fn drain(&mut self) -> Vec<Event> {
        let mut all = std::mem::take(&mut self.head);
        all.extend(std::mem::take(&mut self.late).into_vec());
        for bucket in std::mem::take(&mut self.later).into_values() {
            all.extend(bucket);
        }
        self.len = 0;
        all
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimRng;

    fn timer(node: u32, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
    }

    fn key(at: u64, dst: u32, src: u32, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_nanos(at),
            class: CLASS_NODE,
            dst,
            src,
            seq,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0, 0, 0), timer(0, 3));
        q.push(key(10, 0, 0, 1), timer(0, 1));
        q.push(key(20, 0, 0, 2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_dst_then_src_then_seq() {
        let mut q = EventQueue::new();
        q.push(key(5, 2, 0, 0), timer(2, 3));
        q.push(key(5, 1, 9, 0), timer(1, 2));
        q.push(key(5, 1, 0, 5), timer(1, 1));
        q.push(key(5, 1, 0, 2), timer(1, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn chaos_class_sorts_before_node_class_at_same_time() {
        let a = EventKey {
            at: SimTime::from_nanos(5),
            class: CLASS_CHAOS,
            dst: 99,
            src: 0,
            seq: 0,
        };
        let b = key(5, 0, 0, 0);
        assert!(a < b);
    }

    /// What the differential run exercised, so it can prove coverage.
    #[derive(Default)]
    struct Coverage {
        bursts: u64,
        late_pushes: u64,
        demotions: u64,
        shared_chaos_instants: u64,
        refills: u64,
    }

    /// Drive the bucketed queue and the binary heap it replaced through one
    /// seeded random sequence of `push`, `pop`, `peek` and `drain`; every
    /// observation must match.
    fn differential(seed: u64, ops: usize, cov: &mut Coverage) {
        let mut rng = SimRng::new(seed);
        let mut queue = EventQueue::new();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut drained = false;
        let mut chaos_at: Option<u64> = None;
        let mut node_at: Option<u64> = None;
        for _ in 0..ops {
            let head = queue.peek_time().map(SimTime::as_nanos);
            let roll = rng.below(100);
            if roll < 55 {
                // Pushes: mostly near the clock, some at the head instant
                // (late once the head is sorted), some before the head,
                // and now and then a burst of thousands at one instant.
                let (at, count) = match (roll, head) {
                    (0..=34, _) | (_, None) => (now + rng.below(12), 1),
                    (35..=44, Some(h)) => (h, 1 + rng.below(3)),
                    (45..=51, Some(h)) if h > 0 => (h - 1 - rng.below(h.min(4)), 1),
                    (52, Some(h)) => {
                        cov.bursts += 1;
                        (h + rng.below(2), 1000 + rng.below(2000))
                    }
                    (_, Some(h)) => (h, 1),
                };
                if head == Some(at) && queue.sorted {
                    cov.late_pushes += 1;
                }
                if head.is_some_and(|h| at < h) {
                    cov.demotions += 1;
                }
                if drained {
                    cov.refills += 1;
                    drained = false;
                }
                for _ in 0..count {
                    let class = if rng.below(8) == 0 {
                        chaos_at = Some(at);
                        CLASS_CHAOS
                    } else {
                        node_at = Some(at);
                        CLASS_NODE
                    };
                    let key = EventKey {
                        at: SimTime::from_nanos(at),
                        class,
                        dst: rng.below(6) as u32,
                        src: rng.below(6) as u32,
                        seq,
                    };
                    queue.push(key, timer(key.dst, seq));
                    reference.push(Event {
                        key,
                        kind: timer(key.dst, seq),
                    });
                    seq += 1;
                }
                if chaos_at.is_some() && chaos_at == node_at {
                    cov.shared_chaos_instants += 1;
                }
            } else if roll < 58 {
                let mut got: Vec<EventKey> = queue.drain().iter().map(|e| e.key).collect();
                let mut want: Vec<EventKey> = reference.drain().map(|e| e.key).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}: drain");
                drained = true;
            } else {
                assert_eq!(
                    queue.peek().map(|e| e.key),
                    reference.peek().map(|e| e.key),
                    "seed {seed}: peek"
                );
                let got = queue.pop();
                let want = reference.pop();
                assert_eq!(
                    got.as_ref().map(|e| e.key),
                    want.as_ref().map(|e| e.key),
                    "seed {seed}: pop"
                );
                if let Some(Event {
                    key,
                    kind: EventKind::Timer { token, .. },
                }) = got
                {
                    assert_eq!(token, key.seq, "seed {seed}: payload travels with its key");
                    now = key.at.as_nanos();
                }
            }
            assert_eq!(queue.len(), reference.len(), "seed {seed}: len");
            assert_eq!(
                queue.peek_key(),
                reference.peek().map(|e| e.key),
                "seed {seed}: peek_key"
            );
            assert_eq!(
                queue.peek_time(),
                reference.peek().map(|e| e.key.at),
                "seed {seed}: peek_time"
            );
        }
        while let Some(want) = reference.pop() {
            assert_eq!(
                queue.pop().map(|e| e.key),
                Some(want.key),
                "seed {seed}: final pop"
            );
        }
        assert!(queue.is_empty() && queue.pop().is_none());
    }

    #[test]
    fn bucketed_queue_matches_binary_heap() {
        let mut cov = Coverage::default();
        for seed in 0..16 {
            differential(seed, 2000, &mut cov);
        }
        assert!(cov.bursts > 0, "no burst of thousands at one instant");
        assert!(cov.late_pushes > 0, "no push into a sorted head instant");
        assert!(cov.demotions > 0, "no push earlier than the head");
        assert!(
            cov.shared_chaos_instants > 0,
            "no chaos key shared an instant"
        );
        assert!(cov.refills > 0, "no refill after a drain");
    }

    #[test]
    fn peek_time_tracks_head() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(key(7, 0, 0, 0), timer(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.push(key(3, 0, 0, 1), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 2);
    }
}
