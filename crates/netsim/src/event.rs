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
    /// A train of frames arrives at a node's port: the run of consecutive
    /// frames one source sent to `(node, port)` that arrive at one instant.
    /// The event's key is the first frame's; frame `i` holds key `seq + i`,
    /// so no other event can sort between a train's frames and the train
    /// pops, crosses shards and reaches the node as a unit. Queue lengths
    /// and processed-event counts still count its frames one by one.
    FrameDelivery {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// The frames, in key order.
        frames: Train,
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

/// The frames of one [`EventKind::FrameDelivery`], in key order. A single
/// frame is held inline, so a train of one allocates nothing.
#[derive(Debug)]
pub enum Train {
    /// One frame.
    One(EtherFrame),
    /// Two or more frames.
    Many(Vec<EtherFrame>),
}

impl Train {
    /// Number of frames.
    pub(crate) fn len(&self) -> usize {
        match self {
            Train::One(_) => 1,
            Train::Many(frames) => frames.len(),
        }
    }

    /// Append the frames of `more` after this train's.
    pub(crate) fn extend(&mut self, more: Train) {
        if let Train::One(_) = self {
            let Train::One(first) = std::mem::replace(self, Train::Many(Vec::new())) else {
                unreachable!("matched Train::One");
            };
            // Room for a typical burst before the first regrowth.
            let mut frames = Vec::with_capacity(more.len().max(7) + 1);
            frames.push(first);
            *self = Train::Many(frames);
        }
        let Train::Many(frames) = self else {
            unreachable!("a one-frame train was widened above");
        };
        match more {
            Train::One(frame) => frames.push(frame),
            Train::Many(more) => frames.extend(more),
        }
    }
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// The event's position in the simulation's total order.
    pub key: EventKey,
    /// The action.
    pub kind: EventKind,
}

impl Event {
    /// How many queue entries the event stands for: its frames for a
    /// delivery, one for a timer or chaos step.
    pub(crate) fn entries(&self) -> usize {
        match &self.kind {
            EventKind::FrameDelivery { frames, .. } => frames.len(),
            _ => 1,
        }
    }

    /// Whether a delivery keyed `key` to `(node, port)` continues this
    /// event's train: same instant, class, destination and source, a `seq`
    /// one past the train's last frame, and the same port.
    fn continued_by(&self, key: &EventKey, node: NodeId, port: PortId) -> bool {
        let EventKind::FrameDelivery {
            node: n,
            port: p,
            frames,
        } = &self.kind
        else {
            return false;
        };
        let k = &self.key;
        (k.at, k.class, k.dst, k.src, k.seq + frames.len() as u64)
            == (key.at, key.class, key.dst, key.src, key.seq)
            && (*n, *p) == (node, port)
    }
}

/// Push `event` onto `events`, joining its frames to the last event's
/// train when it continues that train.
pub(crate) fn push_joined(events: &mut Vec<Event>, event: Event) {
    if let (Some(last), EventKind::FrameDelivery { node, port, .. }) =
        (events.last_mut(), &event.kind)
    {
        if last.continued_by(&event.key, *node, *port) {
            if let (
                EventKind::FrameDelivery { frames: train, .. },
                EventKind::FrameDelivery { frames, .. },
            ) = (&mut last.kind, event.kind)
            {
                train.extend(frames);
            }
            return;
        }
    }
    events.push(event);
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
/// * A delivery pushed into an unsorted bucket joins the bucket's last
///   event when it continues that event's train (see
///   [`EventKind::FrameDelivery`]), so a burst of frames costs one entry
///   to sort and pop. The sorted head and the side heap never join.
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
    /// Total pending entries: each frame of a train counts, as does each
    /// timer or chaos step. Whenever it is non-zero, `head` or `late` holds
    /// at least one event.
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
        let was_empty = self.len == 0;
        self.len += event.entries();
        if was_empty {
            self.start_head(event);
            return;
        }
        match key.at.cmp(&self.head_at) {
            Ordering::Equal if self.sorted => self.late.push(event),
            Ordering::Equal => {
                if key < self.head[self.head_min].key {
                    self.head_min = self.head.len();
                }
                push_joined(&mut self.head, event);
            }
            Ordering::Greater => push_joined(self.later.entry(key.at).or_default(), event),
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

    /// Remove and return the earliest event (a whole train for a
    /// delivery).
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
        self.len -= event.entries();
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
    /// hand a node the trains queued right behind the one it popped).
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

    /// Number of pending entries: each frame of a train counts, as does
    /// each timer or chaos step, so the count does not depend on how frames
    /// were joined.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
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

    /// A train of `count` frames to `(dst, port)`, keyed from `first`;
    /// each frame's payload carries its own `seq`, so the flattened pops
    /// can check that every frame travels with its key.
    fn delivery(dst: u32, port: u16, first: u64, count: u64) -> EventKind {
        let frame = |seq: u64| {
            EtherFrame::new(
                crate::mac::MacAddr::from_id(dst),
                crate::mac::MacAddr::from_id(0),
                crate::frame::EtherType::Ipv4,
                crate::bytes::Bytes::copy_from_slice(&seq.to_le_bytes()),
            )
        };
        let mut frames = Train::One(frame(first));
        for seq in first + 1..first + count {
            frames.extend(Train::One(frame(seq)));
        }
        EventKind::FrameDelivery {
            node: NodeId(dst),
            port: PortId(port),
            frames,
        }
    }

    /// One frame or timer as the reference heap holds it: its key, its
    /// `(node, port)` for a frame, and the `seq` its payload carries.
    type Entry = (EventKey, Option<(u32, u16)>, u64);

    /// The per-frame entries of a (possibly multi-frame) event, frame `i`
    /// at `seq + i`.
    fn flatten(event: &Event) -> Vec<Entry> {
        match &event.kind {
            EventKind::FrameDelivery { node, port, frames } => match frames {
                Train::One(frame) => std::slice::from_ref(frame),
                Train::Many(frames) => frames.as_slice(),
            }
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let key = EventKey {
                    seq: event.key.seq + i as u64,
                    ..event.key
                };
                let carried = u64::from_le_bytes(f.payload.as_ref().try_into().unwrap());
                (key, Some((node.0, port.0)), carried)
            })
            .collect(),
            EventKind::Timer { token, .. } => vec![(event.key, None, *token)],
            EventKind::Chaos(_) => unreachable!("the differential pushes no chaos steps"),
        }
    }

    /// What the differential run exercised, so it can prove coverage.
    #[derive(Default)]
    struct Coverage {
        bursts: u64,
        late_pushes: u64,
        demotions: u64,
        shared_chaos_instants: u64,
        refills: u64,
        /// Deliveries that joined the last train of an unsorted bucket.
        joins: u64,
        /// Refused: same stream and port, but a `seq` gap.
        gap_refusals: u64,
        /// Refused: same stream and next `seq`, but another port.
        port_refusals: u64,
        /// Refused: continued a train in the sorted head.
        sorted_head_refusals: u64,
        /// Refused: continued a train in the side heap.
        late_refusals: u64,
    }

    /// Sort one push into the coverage counters by where it lands, and
    /// return whether it must join the target bucket's last event.
    fn classify(queue: &EventQueue, key: &EventKey, kind: &EventKind, cov: &mut Coverage) -> bool {
        let EventKind::FrameDelivery { node, port, .. } = kind else {
            return false;
        };
        if queue.is_empty() || key.at < queue.head_at {
            return false;
        }
        if key.at == queue.head_at && queue.sorted {
            if queue.head.iter().any(|e| e.continued_by(key, *node, *port)) {
                cov.sorted_head_refusals += 1;
            }
            if queue.late.iter().any(|e| e.continued_by(key, *node, *port)) {
                cov.late_refusals += 1;
            }
            return false;
        }
        let last = if key.at == queue.head_at {
            queue.head.last()
        } else {
            queue.later.get(&key.at).and_then(|b| b.last())
        };
        let Some(last) = last else { return false };
        if last.continued_by(key, *node, *port) {
            cov.joins += 1;
            return true;
        }
        if let EventKind::FrameDelivery {
            node: n,
            port: p,
            frames,
        } = &last.kind
        {
            let k = &last.key;
            let stream = (k.at, k.class, k.dst, k.src) == (key.at, key.class, key.dst, key.src);
            let follows = k.seq + frames.len() as u64 == key.seq;
            if stream && *n == *node && *p == *port && !follows && key.seq > k.seq {
                cov.gap_refusals += 1;
            }
            if stream && follows && *p != *port {
                cov.port_refusals += 1;
            }
        }
        false
    }

    /// Drive the bucketed queue and a per-frame binary heap through one
    /// seeded random sequence of `push`, `pop`, `peek` and `drain`. Some
    /// pushes are runs of one-frame deliveries from one source, with `seq`
    /// gaps and port switches, so trains form and break; every pop is
    /// flattened to per-frame entries, which must match the heap's.
    fn differential(seed: u64, ops: usize, cov: &mut Coverage) {
        let mut rng = SimRng::new(seed);
        let mut queue = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        let mut next_seq = [0u64; 6];
        let mut now = 0u64;
        let mut drained = false;
        let mut chaos_at: Option<u64> = None;
        let mut node_at: Option<u64> = None;
        let mut last_run: Option<(u64, u32, usize, u16)> = None;
        let push = |queue: &mut EventQueue,
                    reference: &mut BinaryHeap<Reverse<Entry>>,
                    key: EventKey,
                    kind: EventKind,
                    cov: &mut Coverage| {
            let joins = classify(queue, &key, &kind, cov);
            let bucket = |q: &EventQueue| match q.later.get(&key.at) {
                Some(b) => b.len(),
                None => q.head.len(),
            };
            let before = bucket(queue);
            let event = Event { key, kind };
            reference.extend(flatten(&event).into_iter().map(Reverse));
            queue.push(event.key, event.kind);
            if joins {
                assert_eq!(
                    bucket(queue),
                    before,
                    "seed {seed}: a continuing frame must join"
                );
            }
        };
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
                    let (dst, src) = (rng.below(6) as u32, rng.below(6) as usize);
                    let seq = next_seq[src];
                    next_seq[src] += 1;
                    let key = EventKey {
                        at: SimTime::from_nanos(at),
                        class,
                        dst,
                        src: src as u32,
                        seq,
                    };
                    let kind = if class == CLASS_NODE && rng.below(2) == 0 {
                        delivery(dst, rng.below(3) as u16, seq, 1)
                    } else {
                        timer(dst, seq)
                    };
                    push(&mut queue, &mut reference, key, kind, cov);
                }
                if chaos_at.is_some() && chaos_at == node_at {
                    cov.shared_chaos_instants += 1;
                }
            } else if roll < 64 {
                // A run of deliveries from one source to one node, at the
                // clock or at the head instant (which may be sorted): one
                // frame at a time as external injections arrive, or as
                // trains joined at emission. Now and then the source
                // skips a `seq` (its event went elsewhere) or switches
                // port, which must break the train. Half the runs resume
                // the previous one, whose train may since have been
                // sorted into the head.
                let (at, dst, src, mut port) = match last_run {
                    Some(run) if rng.below(2) == 0 => run,
                    _ => (
                        match head {
                            Some(h) if rng.below(3) == 0 => h,
                            _ => now + rng.below(12),
                        },
                        rng.below(3) as u32,
                        rng.below(6) as usize,
                        rng.below(2) as u16,
                    ),
                };
                for _ in 0..1 + rng.below(40) {
                    match rng.below(12) {
                        0 => next_seq[src] += 1,
                        1 => port ^= 1,
                        _ => {}
                    }
                    let frames = 1 + rng.below(3) * rng.below(2);
                    let first = next_seq[src];
                    let train = delivery(dst, port, first, frames);
                    next_seq[src] += frames;
                    let key = EventKey {
                        at: SimTime::from_nanos(at),
                        class: CLASS_NODE,
                        dst,
                        src: src as u32,
                        seq: first,
                    };
                    push(&mut queue, &mut reference, key, train, cov);
                }
                last_run = Some((at, dst, src, port));
            } else if roll < 67 {
                let mut got: Vec<Entry> = queue.drain().iter().flat_map(flatten).collect();
                let mut want: Vec<Entry> = reference.drain().map(|Reverse(e)| e).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}: drain");
                drained = true;
            } else {
                assert_eq!(
                    queue.peek().map(|e| e.key),
                    reference.peek().map(|Reverse(e)| e.0),
                    "seed {seed}: peek"
                );
                match queue.pop() {
                    Some(event) => {
                        for got in flatten(&event) {
                            let Reverse(want) = reference.pop().expect("reference ran dry");
                            assert_eq!(got, want, "seed {seed}: pop");
                            assert_eq!(
                                got.2, got.0.seq,
                                "seed {seed}: payload travels with its key"
                            );
                        }
                        now = event.key.at.as_nanos();
                    }
                    None => assert!(reference.is_empty(), "seed {seed}: pop"),
                }
            }
            assert_eq!(queue.len(), reference.len(), "seed {seed}: len");
            assert_eq!(
                queue.peek_key(),
                reference.peek().map(|Reverse(e)| e.0),
                "seed {seed}: peek_key"
            );
            assert_eq!(
                queue.peek_time(),
                reference.peek().map(|Reverse(e)| e.0.at),
                "seed {seed}: peek_time"
            );
        }
        while let Some(event) = queue.pop() {
            for got in flatten(&event) {
                let Reverse(want) = reference.pop().expect("reference ran dry");
                assert_eq!(got, want, "seed {seed}: final pop");
            }
        }
        assert!(reference.is_empty() && queue.is_empty() && queue.pop().is_none());
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
        assert!(cov.joins > 0, "no delivery joined a train");
        assert!(cov.gap_refusals > 0, "no join refused for a seq gap");
        assert!(cov.port_refusals > 0, "no join refused for another port");
        assert!(
            cov.sorted_head_refusals > 0,
            "no join refused into a sorted head"
        );
        assert!(cov.late_refusals > 0, "no join refused into the side heap");
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
