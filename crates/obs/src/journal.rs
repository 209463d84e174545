//! Bounded structured event journal with a canonical, shard-count-invariant
//! order.
//!
//! Events are small, typed, and carry only integers and `'static` strings,
//! so recording one never allocates on the heap beyond the lane buffer's
//! amortized growth. To stay deterministic when the simulator runs sharded
//! across worker threads, the journal is split into per-shard *lanes*:
//! each worker appends only to its own lane, and every record carries the
//! [`DispatchKey`] of the simulator event whose handler produced it. Reads
//! merge the lanes in `(dispatch key, lane, intra-dispatch order)` order —
//! a total order fixed by the simulation itself, not by thread timing — so
//! the same seed yields a byte-identical journal at 1, 2 or N shards.
//!
//! Reads return the last `capacity` records of that merged order, and each
//! of those is among its own lane's greatest `capacity` records, so a lane
//! keeps only those. It holds at most twice that many: when it fills, it
//! keeps its greatest `capacity` by key and forgets the rest. A lane's
//! pushes are not always in canonical order (a record made outside the
//! event loop sorts after in-loop records at its timestamp), so it evicts
//! by key, not by arrival, and reads stay exact at any shard count.

use std::fmt;
use std::sync::Mutex;

/// Default retained-event bound. Big enough to hold the interesting tail
/// of a chaos run (every session transition, rejection and injection),
/// small enough that an unbounded event source cannot grow memory.
pub const JOURNAL_CAPACITY: usize = 4096;

/// Maximum number of journal lanes (one per simulator shard, plus lane 0
/// for everything recorded outside a worker thread).
pub const MAX_LANES: usize = 64;

/// Sentinel `neighbor` label for FIB/flow-cache events on a table that has
/// no owning neighbor (the experiment delivery table).
pub const DELIVERY_TABLE: u32 = u32::MAX;

/// Canonical position of one journal record in the simulation's total
/// order: the queue key of the simulator event being dispatched when the
/// record was made.
///
/// The simulator orders events by `(time, class, destination node, source,
/// sequence)`; that order is independent of how nodes are partitioned into
/// shards, which is exactly what makes the merged journal deterministic.
/// Records made outside the event loop (platform build, test drivers, the
/// oracle) use [`DispatchKey::outside`], which sorts after any in-loop
/// record at the same timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DispatchKey {
    /// Event time in simulated nanoseconds.
    pub at_nanos: u64,
    /// Event class rank (chaos steps sort before node events; see the
    /// simulator's event ordering).
    pub class: u8,
    /// Destination node of the dispatched event.
    pub dst: u32,
    /// Source node of the dispatched event (`u32::MAX` for external).
    pub src: u32,
    /// Per-source sequence number of the dispatched event.
    pub seq: u64,
}

impl DispatchKey {
    /// Class rank used for records made outside any event dispatch.
    pub const OUTSIDE_CLASS: u8 = u8::MAX;

    /// The key for a record made outside the event loop at clock `nanos`.
    pub fn outside(nanos: u64) -> Self {
        DispatchKey {
            at_nanos: nanos,
            class: Self::OUTSIDE_CLASS,
            dst: u32::MAX,
            src: u32::MAX,
            seq: 0,
        }
    }
}

/// What happened. Reason strings are `'static` reason codes, label
/// integers are the same compact slot indexes the metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A BGP session FSM moved between states.
    SessionTransition {
        /// Peer slot index.
        peer: u32,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A session dropped back to Idle with exponential backoff applied.
    SessionBackoff {
        /// Peer slot index.
        peer: u32,
        /// Backoff level reached.
        level: u32,
    },
    /// The control-plane enforcer rejected part of an experiment UPDATE.
    EnforcementReject {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// The data-plane enforcer blocked an experiment packet class.
    DataBlocked {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// A re-established session replayed its Adj-RIB-Out.
    ResyncReplay {
        /// Peer slot index.
        peer: u32,
        /// Routes replayed.
        routes: u64,
    },
    /// A neighbor table's flow cache was invalidated by a generation bump.
    FlowCacheInvalidation {
        /// Neighbor slot index (or [`DELIVERY_TABLE`]).
        neighbor: u32,
        /// New generation.
        generation: u64,
    },
    /// A compiled FIB caught up with its table, by patch or rebuild.
    FibSync {
        /// Neighbor slot index (or [`DELIVERY_TABLE`]).
        neighbor: u32,
        /// Whether the sync was a wholesale rebuild.
        rebuild: bool,
        /// Entries changed.
        changed: u64,
    },
    /// The sequenced BGP transport reset after a gap or remote close.
    TransportReset {
        /// Peer slot index.
        peer: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// A chaos step fired on a link.
    ChaosInjection {
        /// Link index.
        link: u32,
        /// Static change code (`link-down`, `set-faults`, ...).
        change: &'static str,
    },
    /// The router declined to generate an ICMP error.
    IcmpSuppressed {
        /// Static reason code.
        reason: &'static str,
    },
    /// An export policy suppressed a route toward a peer — the
    /// valley-free (Gao–Rexford) enforcement firing at a synthetic
    /// internet AS. Journaled only on speakers that opt in, because the
    /// suppression itself is the steady state of every mid-tier AS.
    ExportSuppressed {
        /// Peer slot index.
        peer: u32,
    },
    /// A packet program was installed (or re-installed) for an experiment.
    ProgramInstall {
        /// Experiment slot index.
        experiment: u32,
        /// Whether the program passed install-time validation. An invalid
        /// program is still installed and blocks every packet.
        valid: bool,
    },
    /// A packet program failed closed at run time (fuel exhaustion).
    ProgramFailClosed {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// The control-plane enforcer entered or left fail-closed mode
    /// (overload semantics, paper §4.7).
    FailClosed {
        /// PoP index of the enforcer.
        pop: u32,
        /// `true` on entering fail-closed, `false` on leaving.
        entered: bool,
    },
    /// A rate-ledger gossip frame was applied from a backbone peer.
    LedgerGossip {
        /// Originating PoP index.
        from_pop: u32,
        /// Number of (experiment, prefix) entries in the frame.
        entries: u32,
    },
    /// The rate ledger dropped expired per-day buckets on day rollover.
    LedgerPrune {
        /// Entries removed.
        dropped: u64,
    },
}

fn nbr_label(neighbor: u32, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if neighbor == DELIVERY_TABLE {
        write!(f, "delivery")
    } else {
        write!(f, "{neighbor}")
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::SessionTransition { peer, from, to } => {
                write!(f, "session peer={peer} {from}->{to}")
            }
            EventKind::SessionBackoff { peer, level } => {
                write!(f, "backoff peer={peer} level={level}")
            }
            EventKind::EnforcementReject { experiment, reason } => {
                write!(f, "reject exp={experiment} reason={reason}")
            }
            EventKind::DataBlocked { experiment, reason } => {
                write!(f, "data-block exp={experiment} reason={reason}")
            }
            EventKind::ResyncReplay { peer, routes } => {
                write!(f, "resync peer={peer} routes={routes}")
            }
            EventKind::FlowCacheInvalidation {
                neighbor,
                generation,
            } => {
                write!(f, "flow-cache-invalidate nbr=")?;
                nbr_label(*neighbor, f)?;
                write!(f, " gen={generation}")
            }
            EventKind::FibSync {
                neighbor,
                rebuild,
                changed,
            } => {
                write!(f, "fib-sync nbr=")?;
                nbr_label(*neighbor, f)?;
                write!(
                    f,
                    " mode={} changed={changed}",
                    if *rebuild { "rebuild" } else { "patch" }
                )
            }
            EventKind::TransportReset { peer, reason } => {
                write!(f, "transport-reset peer={peer} reason={reason}")
            }
            EventKind::ChaosInjection { link, change } => {
                write!(f, "chaos link={link} change={change}")
            }
            EventKind::IcmpSuppressed { reason } => write!(f, "icmp-suppressed reason={reason}"),
            EventKind::ExportSuppressed { peer } => {
                write!(f, "export-suppressed peer={peer}")
            }
            EventKind::ProgramInstall { experiment, valid } => {
                write!(f, "prog-install exp={experiment} valid={valid}")
            }
            EventKind::ProgramFailClosed { experiment, reason } => {
                write!(f, "prog-fail-closed exp={experiment} reason={reason}")
            }
            EventKind::FailClosed { pop, entered } => {
                write!(
                    f,
                    "fail-closed pop={pop} {}",
                    if *entered { "entered" } else { "cleared" }
                )
            }
            EventKind::LedgerGossip { from_pop, entries } => {
                write!(f, "ledger-gossip from={from_pop} entries={entries}")
            }
            EventKind::LedgerPrune { dropped } => {
                write!(f, "ledger-prune dropped={dropped}")
            }
        }
    }
}

/// One journal entry: a deterministic timestamp plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in nanoseconds (zero for standalone components).
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.t_nanos / 1_000_000_000;
        let millis = (self.t_nanos / 1_000_000) % 1_000;
        write!(f, "[{secs:>5}.{millis:03}s] {}", self.kind)
    }
}

/// One lane record: the event plus its canonical position.
#[derive(Clone, Copy)]
struct TaggedEvent {
    tag: DispatchKey,
    sub: u64,
    event: Event,
}

#[derive(Default)]
struct LaneBuf {
    /// The lane's greatest records by key, in no particular order.
    records: Vec<TaggedEvent>,
    /// Records ever pushed to the lane; the next one's `sub`.
    next_sub: u64,
}

/// Lane-striped journal. Lane 0 is the main thread / sequential engine;
/// sharded simulator workers write lanes `1..n`.
pub(crate) struct Journal {
    lanes: [Mutex<LaneBuf>; MAX_LANES],
    capacity: usize,
}

impl Journal {
    pub fn new(capacity: usize) -> Self {
        Journal {
            lanes: std::array::from_fn(|_| Mutex::new(LaneBuf::default())),
            capacity,
        }
    }

    pub fn push(&self, lane: usize, tag: DispatchKey, event: Event) {
        let mut buf = self.lanes[lane.min(MAX_LANES - 1)]
            .lock()
            .expect("journal lane poisoned");
        let sub = buf.next_sub;
        buf.next_sub += 1;
        buf.records.push(TaggedEvent { tag, sub, event });
        // Full: keep the greatest `capacity` records, a linear selection
        // once per `capacity` pushes.
        if buf.records.len() > 2 * self.capacity {
            let cut = buf.records.len() - self.capacity;
            buf.records
                .select_nth_unstable_by_key(cut - 1, |r| (r.tag, r.sub));
            buf.records.drain(..cut);
        }
    }

    /// Records ever pushed, over every lane.
    fn pushed(&self) -> u64 {
        self.lanes
            .iter()
            .map(|b| b.lock().expect("journal lane poisoned").next_sub)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.pushed().min(self.capacity as u64) as usize
    }

    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Retained events in canonical order, oldest first: the last
    /// `capacity` records of the merged stream.
    pub fn events(&self) -> Vec<Event> {
        let mut all: Vec<(TaggedEvent, usize)> = Vec::new();
        for (lane, buf) in self.lanes.iter().enumerate() {
            let buf = buf.lock().expect("journal lane poisoned");
            all.extend(buf.records.iter().map(|r| (*r, lane)));
        }
        all.sort_by_key(|(r, lane)| (r.tag, *lane, r.sub));
        let skip = all.len().saturating_sub(self.capacity);
        all[skip..].iter().map(|(r, _)| r.event).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, peer: u32) -> Event {
        Event {
            t_nanos: t,
            kind: EventKind::SessionBackoff { peer, level: 1 },
        }
    }

    fn key(at: u64, dst: u32, src: u32, seq: u64) -> DispatchKey {
        DispatchKey {
            at_nanos: at,
            class: 1,
            dst,
            src,
            seq,
        }
    }

    #[test]
    fn lanes_merge_in_dispatch_order_not_arrival_order() {
        let j = Journal::new(16);
        // Lane 2 records "later" events first — wall-clock arrival order
        // must not matter.
        j.push(2, key(10, 7, 1, 0), ev(10, 7));
        j.push(1, key(5, 3, 0, 0), ev(5, 3));
        j.push(1, key(10, 2, 9, 4), ev(10, 2));
        let events = j.events();
        let times: Vec<u64> = events.iter().map(|e| e.t_nanos).collect();
        assert_eq!(times, vec![5, 10, 10]);
        // At t=10, dst 2 sorts before dst 7.
        let peers: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::SessionBackoff { peer, .. } => peer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(peers, vec![3, 2, 7]);
    }

    #[test]
    fn outside_records_sort_after_in_loop_records_at_same_time() {
        let j = Journal::new(16);
        j.push(0, DispatchKey::outside(10), ev(10, 100));
        j.push(1, key(10, 0, 0, 0), ev(10, 200));
        let events = j.events();
        let peers: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::SessionBackoff { peer, .. } => peer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(peers, vec![200, 100]);
    }

    #[test]
    fn an_outside_record_outranks_later_in_loop_pushes() {
        // Lane 0 receives a record made outside the event loop first, then
        // in-loop records at the same time: canonical order puts the outside
        // record last, so it is the one a capacity-1 journal returns.
        let j = Journal::new(1);
        j.push(0, DispatchKey::outside(10), ev(10, 100));
        for seq in 0..3 {
            j.push(0, key(10, 0, 0, seq), ev(10, 200));
        }
        assert_eq!(j.events(), vec![ev(10, 100)]);
        assert_eq!((j.len(), j.dropped()), (1, 3));
    }

    #[test]
    fn a_lane_keeps_only_what_reads_can_return() {
        // 100k pushes into one lane in scrambled key order: the lane holds
        // at most twice the capacity, and every read equals a reference
        // computed from all the pushes.
        let j = Journal::new(16);
        let mut all = Vec::new();
        let mut state = 7u64;
        for sub in 0..100_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let at = (state >> 33) % 5_000;
            let tag = key(at, (state >> 20) as u32 % 4, 0, sub);
            let event = ev(at, sub as u32);
            j.push(3, tag, event);
            all.push((tag, sub, event));
            assert!(j.lanes[3].lock().unwrap().records.len() <= 32);
        }
        all.sort_by_key(|&(tag, sub, _)| (tag, sub));
        let want: Vec<Event> = all[all.len() - 16..].iter().map(|r| r.2).collect();
        assert_eq!(j.events(), want);
        assert_eq!(j.len(), 16);
        assert_eq!(j.dropped(), 100_000 - 16);
    }

    #[test]
    fn capacity_keeps_newest_and_counts_dropped() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.push(0, DispatchKey::outside(i), ev(i, i as u32));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let events = j.events();
        assert_eq!(events.first().unwrap().t_nanos, 6);
        assert_eq!(events.last().unwrap().t_nanos, 9);
    }
}
