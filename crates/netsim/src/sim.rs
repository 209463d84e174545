//! The simulator: nodes, ports, links and the event loop.
//!
//! A [`Simulator`] owns a set of [`Node`]s connected by point-to-point
//! [`Link`]s. Nodes react to frames and timers through a [`Ctx`] handle that
//! collects their outputs; the simulator applies those outputs after each
//! callback, keeping borrows simple and execution deterministic.
//!
//! # Sharded-parallel execution
//!
//! [`Simulator::set_shards`] partitions the nodes into shards, each with its
//! own event queue, and [`Simulator::run_until`] then advances them on a
//! persistent pinned worker pool (one thread per shard, spawned once per
//! shard-count change and parked on a channel between windows) using
//! conservative lookahead windows: a window `[gvt, end)` is opened from the
//! global minimum event time `gvt`, and within it every shard can run
//! independently because no frame emitted inside the window can cross a
//! shard boundary before the window closes. Cross-shard deliveries land in
//! lock-free single-producer/single-consumer lanes (one per ordered shard
//! pair) that the coordinator drains at the window barrier; chaos steps are
//! applied on the main thread between windows (a window never crosses a
//! chaos timestamp), so link state is frozen while workers run.
//!
//! Window bounds are adaptive. The floor is the classic conservative bound
//! `gvt + min cross-shard link latency`; the sound widened bound is
//! `min over shards s with pending events of (t_s + L_out(s))`, where `t_s`
//! is shard `s`'s earliest queued event and `L_out(s)` the minimum latency
//! of its cross-shard links: any cross-shard arrival emitted during the
//! window is the end of a causal chain starting at an event at or after
//! `t_s` whose final hop adds at least `L_out(s)`. On top of that sits a
//! doubling heuristic cap — windows widen while no cross-shard traffic
//! appears and snap back to the conservative bound when a lane carries a
//! frame — purely to pace barrier frequency; soundness never depends on it,
//! so the window schedule is unobservable in the results.
//!
//! Runs are bit-identical at any shard count because nothing observable
//! depends on the layout:
//!
//! * events are ordered by an intrinsic [`EventKey`] rather than a global
//!   insertion counter, so each shard pops its events in the same order the
//!   single-threaded run would;
//! * every node and every link direction draws from its own seeded
//!   [`SimRng`] stream, so the random rolls a frame sees depend only on
//!   which link carried it and how many frames preceded it there;
//! * observability records carry their dispatch key and merge canonically
//!   (see `peering-obs`), so snapshots and journal digests match too.
//!
//! [`Simulator::run_until_idle`] uses the same windowed engine when shards
//! are configured (quiescence is checked at window barriers, where the
//! coordinator has the global queue view); the sequential engine is the
//! canonical semantics the parallel one must (and does) reproduce. A panic
//! on a shard worker does not abort the process: the window is collected,
//! the simulator is poisoned, and the coordinator re-raises a diagnostic
//! naming the shard, the window bounds and the journal tail.

use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::{mpsc, Mutex, MutexGuard};

use peering_obs::{counter_keys, Counters, DispatchKey, EventKind as ObsEvent, Obs, MAX_LANES};

use crate::chaos::{ChaosChange, ChaosPlan};
use crate::event::{
    push_joined, Event, EventKey, EventKind, EventQueue, Train, CLASS_CHAOS, CLASS_NODE,
    EXTERNAL_SRC,
};
use crate::frame::EtherFrame;
use crate::link::{Link, LinkConfig, LinkStats, TxOutcome};
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a port on a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

/// Identifies a link within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// The two `(node, port)` endpoints of a link.
pub type LinkEnds = ((NodeId, PortId), (NodeId, PortId));

/// Deterministic pseudo-random source for fault injection (SplitMix64).
///
/// Everything random in the simulator — loss rolls, corruption positions —
/// draws from one of these. Each node and each link direction owns an
/// independent stream derived from the simulator seed, so the rolls a
/// component sees depend only on its own history, never on how the
/// simulator's work is partitioned across shards.
#[derive(Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift mapping: fine for fault injection, avoids modulo
        // bias better than `% bound` for small bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Salt mixed into per-node RNG streams (`"NODE"` in ASCII, high bits).
const NODE_STREAM_SALT: u64 = 0x4E4F_4445_0000_0000;

/// Salt mixed into per-link-direction RNG streams (`"LINK"` in ASCII).
const LINK_STREAM_SALT: u64 = 0x4C49_4E4B_0000_0000;

/// Derive an independent stream from the simulator seed and a stable salt.
fn stream(seed: u64, salt: u64) -> SimRng {
    let mut mixer = SimRng::new(salt);
    SimRng::new(seed ^ mixer.next_u64())
}

/// Behaviour plugged into the simulator.
///
/// Implementors are event-driven: they receive frames and timer expirations,
/// and emit frames / arm timers through the [`Ctx`]. The `Any` supertrait
/// lets callers downcast back to the concrete type via [`Simulator::node`];
/// the `Send` supertrait lets sharded-parallel runs move whole shards onto
/// worker threads.
pub trait Node: Any + Send {
    /// A frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame);

    /// Several frames arrived on `port` at the same instant. The simulator
    /// hands a node every frame train queued back to back for one
    /// `(instant, node, port)` in a single call, in event-key order, so
    /// nodes with a batched fast path can amortize per-packet work; the
    /// default just replays them through [`Node::on_frame`] in order.
    fn on_frames(&mut self, ctx: &mut Ctx<'_>, port: PortId, frames: Vec<EtherFrame>) {
        for frame in frames {
            self.on_frame(ctx, port, frame);
        }
    }

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Human-readable label for traces.
    fn label(&self) -> String {
        "node".to_string()
    }
}

enum Action {
    Send { port: PortId, frame: EtherFrame },
    Timer { at: SimTime, token: u64 },
}

/// Handle given to node callbacks for interacting with the simulation.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action>,
    rng: &'a mut SimRng,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Transmit a frame out of `port`. If the port is unconnected the frame
    /// is silently discarded (counted by the simulator).
    pub fn send_frame(&mut self, port: PortId, frame: EtherFrame) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Arm a timer that fires after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Deterministic randomness: this node's private stream, derived from
    /// the simulator seed at registration.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// A node's storage: the behaviour box, its private RNG stream and the
/// per-source sequence counter that numbers the events it emits.
struct NodeSlot {
    node: Option<Box<dyn Node>>,
    rng: SimRng,
    seq: u64,
    /// Reusable action buffer: drained by `apply_actions` after every
    /// callback, so it is always empty between dispatches. Keeping it in
    /// the slot means the per-event `Vec` allocation happens once per node
    /// instead of once per dispatch.
    actions: Vec<Action>,
}

/// `UnsafeCell` wrapper so shards on different worker threads can each
/// mutate their own nodes through a shared `&Topo`.
///
/// # Safety discipline
///
/// Exclusive access to a slot is guaranteed structurally, never checked:
///
/// * outside `run_parallel_until`, only the main thread touches slots —
///   `&mut self` methods have exclusive access by the borrow rules, and
///   `&self` methods ([`Simulator::node`]) only read;
/// * inside a parallel window, exactly one worker owns each shard and only
///   dispatches events whose destination is in that shard, so two workers
///   never reach the same slot.
struct NodeCell(UnsafeCell<NodeSlot>);

// SAFETY: see the discipline above — all access is single-writer.
unsafe impl Sync for NodeCell {}

/// A link plus its endpoints and the two per-direction fault-roll streams.
struct LinkState {
    link: Link,
    ends: [(NodeId, PortId); 2],
    rngs: [SimRng; 2],
}

/// Immutable-during-a-window topology shared with worker threads. Links sit
/// behind mutexes because two shards may legitimately transmit the two
/// directions of one cross-shard link concurrently; each direction's state
/// (queue backlog, stats, RNG) still has a single deterministic writer.
struct Topo {
    nodes: Vec<NodeCell>,
    links: Vec<Mutex<LinkState>>,
    /// The link end wired to each port, indexed `ports[node][port]` and
    /// grown on `connect`: ports are numbered densely from zero, so the
    /// per-frame lookup is two indexings rather than a hash.
    ports: Vec<Vec<Option<(LinkId, usize)>>>,
}

impl Topo {
    /// The `(link, end)` wired to `(node, port)`, if connected.
    fn port(&self, node: NodeId, port: PortId) -> Option<(LinkId, usize)> {
        *self.ports.get(node.0 as usize)?.get(port.0 as usize)?
    }

    /// The table slot for `(node, port)`, growing the table to reach it.
    fn port_slot(&mut self, node: NodeId, port: PortId) -> &mut Option<(LinkId, usize)> {
        let (node, port) = (node.0 as usize, port.0 as usize);
        if self.ports.len() <= node {
            self.ports.resize_with(node + 1, Vec::new);
        }
        let ports = &mut self.ports[node];
        if ports.len() <= port {
            ports.resize(port + 1, None);
        }
        &mut ports[port]
    }

    /// Whether `link` is still wired (`disconnect` clears its ports).
    fn wired(&self, link: LinkId, state: &LinkState) -> bool {
        let (node, port) = state.ends[0];
        self.port(node, port) == Some((link, 0))
    }
}

counter_keys! {
    /// The simulator's fault and chaos counters.
    enum SimCounter {
        LinkDrops = "netsim.link_drops",
        Corrupted = "netsim.frames_corrupted",
        Duplicated = "netsim.frames_duplicated",
        Reordered = "netsim.frames_reordered",
        ChaosSteps = "netsim.chaos_steps",
    }
}

/// Per-dispatch tallies, folded into the simulator after each event (or
/// each parallel window — the sums are commutative, so fold order cannot
/// affect the result).
#[derive(Default)]
struct LocalStats {
    unrouted: u64,
    processed: u64,
    link_drops: u64,
    corrupted: u64,
    duplicated: u64,
    reordered: u64,
}

/// Everything an event dispatch needs besides the queue it pops from.
struct DispatchEnv<'a> {
    topo: &'a Topo,
    out: &'a mut Vec<Event>,
    stats: &'a mut LocalStats,
}

fn key_for(at: SimTime, dst: u32, src: u32, seq: &mut u64) -> EventKey {
    let key = EventKey {
        at,
        class: CLASS_NODE,
        dst,
        src,
        seq: *seq,
    };
    *seq += 1;
    key
}

/// Apply a node's (or an external driver's) buffered actions: arm timers and
/// offer frames to links. Emitted events go to `env.out`, a delivered frame
/// joining the train of the last one when it continues it; the caller
/// routes them to the right shard queue. A run of sends on one port takes
/// that link's lock once, and no two link locks are ever held at once.
fn apply_actions(
    env: &mut DispatchEnv<'_>,
    node: NodeId,
    now: SimTime,
    actions: impl IntoIterator<Item = Action>,
    src: u32,
    seq: &mut u64,
) {
    let topo = env.topo;
    let mut held: Option<(LinkId, MutexGuard<'_, LinkState>)> = None;
    for action in actions {
        match action {
            Action::Timer { at, token } => {
                env.out.push(Event {
                    key: key_for(at, node.0, src, seq),
                    kind: EventKind::Timer { node, token },
                });
            }
            Action::Send { port, frame } => {
                let Some((link_id, end)) = topo.port(node, port) else {
                    env.stats.unrouted += 1;
                    continue;
                };
                if held.as_ref().is_none_or(|(id, _)| *id != link_id) {
                    // Release the previous link before locking the next.
                    drop(held.take());
                    let guard = topo.links[link_id.0 as usize]
                        .lock()
                        .expect("link lock poisoned");
                    held = Some((link_id, guard));
                }
                let state = &mut *held.as_mut().expect("link lock taken above").1;
                let rng = &mut state.rngs[end];
                let drop_roll = rng.below(100) as u8;
                let corrupt_roll = rng.below(100) as u8;
                let is_data_plane = matches!(
                    frame.ethertype,
                    crate::frame::EtherType::Ipv4 | crate::frame::EtherType::Ipv6
                );
                let (outcome, corrupt) = state.link.transmit_typed(
                    end,
                    now,
                    frame.wire_len(),
                    drop_roll,
                    corrupt_roll,
                    is_data_plane,
                );
                if matches!(outcome, TxOutcome::Dropped) {
                    env.stats.link_drops += 1;
                }
                if let TxOutcome::Deliver(at) = outcome {
                    let (dst_node, dst_port) = state.ends[1 - end];
                    let faults = state.link.config.faults;
                    let rng = &mut state.rngs[end];
                    let mut frame = frame;
                    if corrupt && !frame.payload.is_empty() {
                        let mut payload = frame.payload.to_vec();
                        let idx = rng.below(payload.len() as u64) as usize;
                        payload[idx] ^= 1 << rng.below(8);
                        frame.payload = payload.into();
                        env.stats.corrupted += 1;
                    }
                    // Reorder/duplicate rolls are only drawn when the
                    // link configures them, so runs without these faults
                    // keep their exact RNG stream.
                    let mut at = at;
                    let mut duplicate = false;
                    if faults.perturbs_delivery() && (is_data_plane || !faults.data_plane_only) {
                        let reorder_roll = rng.below(100) as u8;
                        let dup_roll = rng.below(100) as u8;
                        if reorder_roll < faults.reorder_pct
                            && faults.reorder_window > SimDuration::ZERO
                        {
                            let extra = rng.below(faults.reorder_window.as_nanos().max(1));
                            at += SimDuration::from_nanos(extra);
                            env.stats.reordered += 1;
                        }
                        duplicate = dup_roll < faults.duplicate_pct;
                    }
                    let mut deliver = |frame: EtherFrame| {
                        let event = Event {
                            key: key_for(at, dst_node.0, src, seq),
                            kind: EventKind::FrameDelivery {
                                node: dst_node,
                                port: dst_port,
                                frames: Train::One(frame),
                            },
                        };
                        push_joined(env.out, event);
                    };
                    if duplicate {
                        env.stats.duplicated += 1;
                        deliver(frame.clone());
                    }
                    deliver(frame);
                }
            }
        }
    }
}

/// Run one node callback and apply the actions it buffered.
fn dispatch_node(
    env: &mut DispatchEnv<'_>,
    now: SimTime,
    id: NodeId,
    f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
) {
    let Some(cell) = env.topo.nodes.get(id.0 as usize) else {
        return;
    };
    // SAFETY: per the NodeCell discipline — the caller is either the main
    // thread holding `&mut Simulator`, or the one worker that owns this
    // node's shard for the current window — this is the only live access.
    let slot = unsafe { &mut *cell.0.get() };
    let Some(mut node) = slot.node.take() else {
        // Node is mid-callback (re-entrant event) — cannot happen with the
        // action-buffer design, but degrade gracefully.
        return;
    };
    let mut actions = std::mem::take(&mut slot.actions);
    {
        let mut ctx = Ctx {
            now,
            node: id,
            actions: &mut actions,
            rng: &mut slot.rng,
        };
        f(node.as_mut(), &mut ctx);
    }
    slot.node = Some(node);
    apply_actions(env, id, now, actions.drain(..), id.0, &mut slot.seq);
    slot.actions = actions;
}

/// Process one node event popped from `queue`. A delivery reaches the node
/// together with every train queued right behind it for the same instant,
/// node and port: only head-of-queue events join, so the key order across
/// nodes is untouched. Chaos events never reach here — they live in the
/// main thread's dedicated queue.
fn process_node_event(env: &mut DispatchEnv<'_>, obs: &Obs, event: Event, queue: &mut EventQueue) {
    let key = event.key;
    let now = key.at;
    obs.set_now_nanos(now.as_nanos());
    peering_obs::set_dispatch_key(DispatchKey {
        at_nanos: now.as_nanos(),
        class: key.class,
        dst: key.dst,
        src: key.src,
        seq: key.seq,
    });
    match event.kind {
        EventKind::FrameDelivery {
            node,
            port,
            mut frames,
        } => {
            while let Some(next) = queue.peek() {
                let same = next.key.at == now
                    && matches!(
                        &next.kind,
                        EventKind::FrameDelivery { node: n, port: p, .. }
                            if *n == node && *p == port
                    );
                if !same {
                    break;
                }
                let Some(Event {
                    kind: EventKind::FrameDelivery { frames: more, .. },
                    ..
                }) = queue.pop()
                else {
                    unreachable!("peek said FrameDelivery");
                };
                frames.extend(more);
            }
            env.stats.processed += frames.len() as u64;
            match frames {
                Train::One(frame) => {
                    dispatch_node(env, now, node, |n, ctx| n.on_frame(ctx, port, frame))
                }
                Train::Many(batch) => {
                    dispatch_node(env, now, node, |n, ctx| n.on_frames(ctx, port, batch))
                }
            }
        }
        EventKind::Timer { node, token } => {
            env.stats.processed += 1;
            dispatch_node(env, now, node, |n, ctx| n.on_timer(ctx, token));
        }
        EventKind::Chaos(_) => unreachable!("chaos events are scheduled on the main thread only"),
    }
}

/// Default ceiling for the adaptive-window doubling multiplier: windows
/// may widen up to `4096 × min cross-shard latency` while no cross-shard
/// traffic appears. Purely a barrier-pacing heuristic — any value ≥ 1
/// yields bit-identical results (see `tests/props.rs`).
const DEFAULT_WINDOW_CAP: u64 = 4096;

/// A message from the coordinator to a parked shard worker.
enum Job {
    /// Execute one lookahead window. The raw pointers inside are valid
    /// until the worker reports on the done channel.
    Window(WindowJob),
    /// Tear the worker down (pool drop or shard-count change).
    Shutdown,
}

/// One window of work for one shard: the window bounds plus raw views of
/// the simulator state the worker is allowed to touch.
///
/// # Safety discipline
///
/// The pointers reference fields of the `Simulator` that owns the pool.
/// They are valid and unaliased for the duration of the window because the
/// coordinator (a) constructs them inside `run_parallel_until` while
/// holding `&mut Simulator`, so the simulator cannot move or be touched
/// elsewhere, and (b) blocks until every dispatched worker has reported
/// done before using any of the pointed-at state again. A worker only
/// mutates its own shard's queue (`queues.add(shard)`), its own nodes
/// (per the [`NodeCell`] discipline) and its own row of lanes
/// (`lanes[shard * shards + dst]`), so no two threads ever write the same
/// location.
struct WindowJob {
    gvt: SimTime,
    end: SimTime,
    topo: *const Topo,
    obs: *const Obs,
    node_shard: *const u32,
    node_shard_len: usize,
    queues: *mut EventQueue,
    lanes: *const UnsafeCell<Vec<Event>>,
    shards: usize,
}

// SAFETY: see the discipline on `WindowJob` — the pointers outlive the
// window and every location has exactly one accessor during it.
unsafe impl Send for WindowJob {}

/// A worker's end-of-window report: per-window tallies, or the panic
/// payload when the shard blew up mid-window.
struct WorkerDone {
    shard: usize,
    result: Result<(LocalStats, SimTime), String>,
}

/// Persistent pinned worker pool: one thread per shard, spawned once per
/// shard-count change and parked on a blocking channel `recv` between
/// windows. Replaces the old per-window `std::thread::scope` respawn,
/// whose spawn/join cost dominated short windows.
///
/// Also owns the single-producer/single-consumer cross-shard lanes:
/// `lanes[src * shards + dst]` is written only by worker `src` during a
/// window and drained only by the coordinator at the barrier, so pushes
/// are plain `Vec` appends — no locks on the cross-shard delivery path.
struct WorkerPool {
    shards: usize,
    jobs: Vec<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<WorkerDone>,
    handles: Vec<std::thread::JoinHandle<()>>,
    lanes: Vec<UnsafeCell<Vec<Event>>>,
}

// SAFETY: the lanes are the only non-Sync payload; access follows the
// single-writer discipline documented on `WorkerPool` and `WindowJob`.
unsafe impl Sync for WorkerPool {}

impl WorkerPool {
    fn new(shards: usize) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        let mut jobs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel();
            let done = done_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("netsim-shard-{shard}"))
                    .spawn(move || worker_main(shard, rx, done))
                    .expect("spawn shard worker"),
            );
            jobs.push(tx);
        }
        let lanes = (0..shards * shards)
            .map(|_| UnsafeCell::new(Vec::new()))
            .collect();
        WorkerPool {
            shards,
            jobs,
            done_rx,
            handles,
            lanes,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.jobs {
            let _ = tx.send(Job::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of a pool worker: park on `recv`, run the window, report, repeat.
/// Panics inside a window are caught and shipped back as a diagnostic so
/// the coordinator can poison the run instead of aborting opaquely.
fn worker_main(shard: usize, rx: mpsc::Receiver<Job>, done: mpsc::Sender<WorkerDone>) {
    // Lane 0 is the main thread; workers are 1-based so each shard's
    // journal records stay distinguishable.
    peering_obs::set_thread_lane(shard + 1);
    let mut out: Vec<Event> = Vec::new();
    while let Ok(Job::Window(job)) = rx.recv() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: this worker is the sole owner of shard `shard` for
            // the window; see `WindowJob`.
            unsafe { run_shard_window(shard, &job, &mut out) }
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        peering_obs::clear_dispatch_key();
        if done.send(WorkerDone { shard, result }).is_err() {
            break;
        }
    }
}

/// Render a caught panic payload for the poison diagnostic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one shard's events inside `[job.gvt, job.end)`.
///
/// # Safety
/// Caller must be the unique owner of shard `shard` for this window and
/// the pointers in `job` must satisfy the `WindowJob` discipline.
unsafe fn run_shard_window(
    shard: usize,
    job: &WindowJob,
    out: &mut Vec<Event>,
) -> (LocalStats, SimTime) {
    out.clear();
    let topo = &*job.topo;
    let obs = &*job.obs;
    let node_shard = std::slice::from_raw_parts(job.node_shard, job.node_shard_len);
    let queue = &mut *job.queues.add(shard);
    let mut stats = LocalStats::default();
    let mut last = job.gvt;
    while queue.peek_time().is_some_and(|t| t < job.end) {
        let ev = queue.pop().expect("peeked event");
        debug_assert!(ev.key.at >= last, "time went backwards");
        last = ev.key.at;
        {
            let mut env = DispatchEnv {
                topo,
                out: &mut *out,
                stats: &mut stats,
            };
            process_node_event(&mut env, obs, ev, queue);
        }
        for e in out.drain(..) {
            let dst = node_shard.get(e.key.dst as usize).copied().unwrap_or(0) as usize;
            if dst == shard {
                queue.push(e.key, e.kind);
            } else {
                // SPSC push: this worker is the only producer for lane
                // (shard, dst) during the window; the coordinator is the
                // only consumer, at the barrier while workers are parked.
                let lane = &mut *(*job.lanes.add(shard * job.shards + dst)).get();
                lane.push(e);
            }
        }
    }
    (stats, last)
}

/// `t + d` in nanoseconds, saturating (the "no cross-shard links" bound is
/// effectively infinite).
fn sat_add(t: SimTime, d: SimDuration) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_add(d.as_nanos()))
}

/// The discrete-event simulator.
pub struct Simulator {
    time: SimTime,
    /// Requested shard count; `queues` matches it after `ensure_partition`.
    shards: usize,
    /// Shard assignment per node id.
    node_shard: Vec<u32>,
    /// One event queue per shard (node events only).
    queues: Vec<EventQueue>,
    /// Chaos steps, kept on the main thread: windows never cross a chaos
    /// timestamp, so link state is frozen while workers run.
    chaos_queue: EventQueue,
    /// Sequence counter for externally-pushed events (`src = EXTERNAL_SRC`).
    ext_seq: u64,
    /// Sequence counter for chaos events.
    chaos_seq: u64,
    needs_repartition: bool,
    topo: Topo,
    seed: u64,
    /// Control-plane stream for callers ([`Simulator::rng_mut`]), e.g. chaos
    /// plan generation; node callbacks use their own per-node streams.
    rng: SimRng,
    /// Frames sent to unconnected ports (usually a wiring bug in a scenario).
    pub unrouted_frames: u64,
    /// Total events processed.
    pub processed_events: u64,
    /// Persistent worker pool, built lazily on the first parallel window
    /// and rebuilt when the shard count changes.
    pool: Option<WorkerPool>,
    /// Fatal diagnostic from a panicked shard worker. Node state inside
    /// the panicked window is torn, so every subsequent run re-raises it.
    poisoned: Option<String>,
    /// Adaptive-window doubling ceiling (see [`Simulator::set_window_cap`]).
    window_cap: u64,
    /// Reusable event buffer for the sequential step path and external
    /// drivers; always empty between uses.
    scratch_out: Vec<Event>,
    obs: Obs,
    counters: Counters<SimCounter>,
}

impl Simulator {
    /// Create a simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        let obs = Obs::new();
        let counters = Counters::new(&obs);
        Simulator {
            time: SimTime::ZERO,
            shards: 1,
            node_shard: Vec::new(),
            queues: vec![EventQueue::new()],
            chaos_queue: EventQueue::new(),
            ext_seq: 0,
            chaos_seq: 0,
            needs_repartition: false,
            topo: Topo {
                nodes: Vec::new(),
                links: Vec::new(),
                ports: Vec::new(),
            },
            seed,
            rng: SimRng::new(seed),
            unrouted_frames: 0,
            processed_events: 0,
            pool: None,
            poisoned: None,
            window_cap: DEFAULT_WINDOW_CAP,
            scratch_out: Vec::new(),
            obs,
            counters,
        }
    }

    /// The simulator's observability handle: the registry its counters
    /// are published in and the journal its chaos events go to, whose
    /// clock tracks `now()`. A platform adopts it for the whole topology.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Partition nodes into `shards` event-queue shards, round-robin by node
    /// id (use [`Simulator::set_node_shard`] to refine). Clamped to
    /// `1..=63` so every shard gets its own observability journal lane.
    /// With more than one shard, [`Simulator::run_until`] executes windows
    /// of events on worker threads; results are bit-identical to one shard.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.clamp(1, MAX_LANES - 1);
        if self.pool.as_ref().is_some_and(|p| p.shards != shards) {
            // Shard-count change: retire the old pool (its lane grid and
            // thread count no longer match). A new one is spawned lazily
            // on the next parallel window.
            self.pool = None;
        }
        self.shards = shards;
        for (i, s) in self.node_shard.iter_mut().enumerate() {
            *s = (i % shards) as u32;
        }
        self.needs_repartition = true;
    }

    /// Cap the adaptive-window doubling multiplier: while windows see no
    /// cross-shard traffic they widen by doubling, up to `cap × min
    /// cross-shard latency`, and snap back to the conservative bound when
    /// a cross-shard frame appears. The schedule is a pacing detail only —
    /// any `cap ≥ 1` produces bit-identical results (property-tested in
    /// `tests/props.rs`); `1` pins the engine to fixed conservative
    /// windows.
    pub fn set_window_cap(&mut self, cap: u64) {
        self.window_cap = cap.max(1);
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pin a node to a specific shard (e.g. the platform places each PoP's
    /// routers together so only inter-PoP links cross shards).
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn set_node_shard(&mut self, node: NodeId, shard: usize) {
        assert!(
            shard < self.shards,
            "shard {shard} out of range (shards={})",
            self.shards
        );
        self.node_shard[node.0 as usize] = shard as u32;
        self.needs_repartition = true;
    }

    /// The shard a node is currently assigned to.
    pub fn node_shard(&self, node: NodeId) -> usize {
        self.node_shard.get(node.0 as usize).copied().unwrap_or(0) as usize
    }

    fn shard_of(&self, dst: u32) -> usize {
        let s = self.node_shard.get(dst as usize).copied().unwrap_or(0) as usize;
        s.min(self.queues.len() - 1)
    }

    /// Rebuild the per-shard queues after a shard-layout change, preserving
    /// every pending event.
    fn ensure_partition(&mut self) {
        if !self.needs_repartition {
            return;
        }
        self.needs_repartition = false;
        let mut events = Vec::new();
        for q in &mut self.queues {
            events.append(&mut q.drain());
        }
        self.queues = (0..self.shards).map(|_| EventQueue::new()).collect();
        for e in events {
            let shard = self.shard_of(e.key.dst);
            self.queues[shard].push(e.key, e.kind);
        }
    }

    /// Push one event onto its destination shard's queue.
    fn route_event(&mut self, e: Event) {
        self.ensure_partition();
        let shard = self.shard_of(e.key.dst);
        self.queues[shard].push(e.key, e.kind);
    }

    /// Route every event in a reusable buffer, leaving it empty.
    fn route_events(&mut self, out: &mut Vec<Event>) {
        for e in out.drain(..) {
            self.route_event(e);
        }
    }

    /// Re-raise the diagnostic from an earlier shard-worker panic: the
    /// panicked window left node state half-applied, so the run cannot
    /// continue meaningfully.
    fn check_poisoned(&self) {
        if let Some(diag) = &self.poisoned {
            panic!("simulator poisoned by an earlier shard-worker panic: {diag}");
        }
    }

    fn ext_key(&mut self, at: SimTime, dst: u32) -> EventKey {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventKey {
            at,
            class: CLASS_NODE,
            dst,
            src: EXTERNAL_SRC,
            seq,
        }
    }

    /// Register a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = self.topo.nodes.len() as u32;
        self.topo.nodes.push(NodeCell(UnsafeCell::new(NodeSlot {
            node: Some(node),
            rng: stream(self.seed, NODE_STREAM_SALT | id as u64),
            seq: 0,
            actions: Vec::new(),
        })));
        self.node_shard.push((id as usize % self.shards) as u32);
        NodeId(id)
    }

    /// Every registered node id, in registration order. Harnesses use this
    /// to sweep the whole topology without tracking ids themselves.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.topo.nodes.len() as u32).map(NodeId).collect()
    }

    /// Connect `(a, pa)` to `(b, pb)` with the given link configuration.
    ///
    /// # Panics
    /// Panics if either port is already connected — topology is fixed wiring,
    /// and double-connecting is always a scenario bug.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        config: LinkConfig,
    ) -> LinkId {
        assert!(
            self.topo.port(a, pa).is_none(),
            "port {pa:?} on {a:?} already connected"
        );
        assert!(
            self.topo.port(b, pb).is_none(),
            "port {pb:?} on {b:?} already connected"
        );
        let id = LinkId(self.topo.links.len() as u32);
        let base = LINK_STREAM_SALT | ((id.0 as u64) << 1);
        self.topo.links.push(Mutex::new(LinkState {
            link: Link::new(config),
            ends: [(a, pa), (b, pb)],
            rngs: [stream(self.seed, base), stream(self.seed, base | 1)],
        }));
        *self.topo.port_slot(a, pa) = Some((id, 0));
        *self.topo.port_slot(b, pb) = Some((id, 1));
        id
    }

    fn link_state(&self, link: LinkId) -> MutexGuard<'_, LinkState> {
        self.topo.links[link.0 as usize]
            .lock()
            .expect("link lock poisoned")
    }

    /// Tear down a link (e.g. a session reset test); both ports become
    /// unconnected. Link stats are retained until the slot is reused.
    pub fn disconnect(&mut self, link: LinkId) {
        let ends = self.link_state(link).ends;
        for (node, port) in ends {
            *self.topo.port_slot(node, port) = None;
        }
    }

    /// Per-direction stats for a link.
    pub fn link_stats(&self, link: LinkId) -> [LinkStats; 2] {
        self.link_state(link).link.stats
    }

    /// Mutable access to the simulator's control RNG stream, so chaos plans
    /// can be generated from a deterministic stream tied to the seed.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedule every step of a chaos plan relative to the current time.
    /// Steps execute on the main thread at their appointed instants; in
    /// sharded runs, parallel windows never cross a chaos timestamp.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        for (offset, step) in plan.steps() {
            let key = EventKey {
                at: self.time + offset,
                class: CLASS_CHAOS,
                dst: step.link.0,
                src: EXTERNAL_SRC,
                seq: self.chaos_seq,
            };
            self.chaos_seq += 1;
            self.chaos_queue.push(key, EventKind::Chaos(step));
        }
    }

    /// All currently-connected links touching `node`, with their endpoints.
    pub fn links_of(&self, node: NodeId) -> Vec<(LinkId, LinkEnds)> {
        self.topo
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let id = LinkId(i as u32);
                let state = slot.lock().expect("link lock poisoned");
                let touches = state.ends[0].0 == node || state.ends[1].0 == node;
                (touches && self.topo.wired(id, &state))
                    .then_some((id, (state.ends[0], state.ends[1])))
            })
            .collect()
    }

    /// Downcast a node to its concrete type.
    pub fn node<T: Node>(&self, id: NodeId) -> Option<&T> {
        let cell = self.topo.nodes.get(id.0 as usize)?;
        // SAFETY: `&self` methods never overlap `&mut self` methods, and no
        // worker thread is live outside `run_parallel_until` (which takes
        // `&mut self`), so the slot cannot be mutated while this shared
        // borrow is alive.
        let slot = unsafe { &*cell.0.get() };
        let boxed = slot.node.as_deref()?;
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Downcast a node to its concrete type, mutably.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.topo.nodes.get_mut(id.0 as usize)?.0.get_mut();
        let boxed = slot.node.as_deref_mut()?;
        (boxed as &mut dyn Any).downcast_mut::<T>()
    }

    /// Inject a frame for delivery to `(node, port)` right now, as if it
    /// arrived from outside the simulated topology.
    pub fn inject_frame(&mut self, node: NodeId, port: PortId, frame: EtherFrame) {
        let key = self.ext_key(self.time, node.0);
        self.route_event(Event {
            key,
            kind: EventKind::FrameDelivery {
                node,
                port,
                frames: Train::One(frame),
            },
        });
    }

    /// Transmit a frame from `(node, port)` over its connected link, exactly
    /// as if the node itself had sent it. Useful for external drivers (the
    /// experiment toolkit injects traffic this way).
    pub fn send_from(&mut self, node: NodeId, port: PortId, frame: EtherFrame) {
        self.apply_external_actions(node, [Action::Send { port, frame }]);
    }

    /// Arm a timer on behalf of a node.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let key = self.ext_key(self.time + delay, node.0);
        self.route_event(Event {
            key,
            kind: EventKind::Timer { node, token },
        });
    }

    /// Invoke a closure with mutable access to a node and a [`Ctx`], so
    /// external drivers can call node methods that need to emit frames.
    ///
    /// # Panics
    /// Panics if the node id is stale or of the wrong type.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let slot = self.topo.nodes[id.0 as usize].0.get_mut();
        let mut node = slot.node.take().expect("node busy/absent");
        let mut actions = std::mem::take(&mut slot.actions);
        let result = {
            let mut ctx = Ctx {
                now: self.time,
                node: id,
                actions: &mut actions,
                rng: &mut slot.rng,
            };
            let node = (node.as_mut() as &mut dyn Any)
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(node, &mut ctx)
        };
        slot.node = Some(node);
        self.apply_external_actions(id, actions.drain(..));
        self.topo.nodes[id.0 as usize].0.get_mut().actions = actions;
        result
    }

    /// Apply actions buffered by an external driver (traffic injection,
    /// `with_node_ctx`): these draw their event sequence numbers from the
    /// shared external counter.
    fn apply_external_actions(&mut self, node: NodeId, actions: impl IntoIterator<Item = Action>) {
        let mut out = std::mem::take(&mut self.scratch_out);
        let mut stats = LocalStats::default();
        {
            let mut env = DispatchEnv {
                topo: &self.topo,
                out: &mut out,
                stats: &mut stats,
            };
            apply_actions(
                &mut env,
                node,
                self.time,
                actions,
                EXTERNAL_SRC,
                &mut self.ext_seq,
            );
        }
        self.fold(stats);
        self.route_events(&mut out);
        self.scratch_out = out;
    }

    /// Add one dispatch's (or one window's) tallies to the simulator's.
    fn fold(&mut self, stats: LocalStats) {
        self.unrouted_frames += stats.unrouted;
        self.processed_events += stats.processed;
        let c = &mut self.counters;
        c.add(SimCounter::LinkDrops, stats.link_drops);
        c.add(SimCounter::Corrupted, stats.corrupted);
        c.add(SimCounter::Duplicated, stats.duplicated);
        c.add(SimCounter::Reordered, stats.reordered);
    }

    /// The key of the next event in the global order, if any.
    fn next_key(&self) -> Option<EventKey> {
        let mut best = self.chaos_queue.peek_key();
        for q in &self.queues {
            let Some(k) = q.peek_key() else { continue };
            match best {
                Some(b) if b <= k => {}
                _ => best = Some(k),
            }
        }
        best
    }

    /// Process the next event if one is pending: a chaos step, a timer, or
    /// a frame delivery together with the same-instant deliveries to the
    /// same `(node, port)` queued right behind it, which reach the node as
    /// one batch (so one step may process many events; see
    /// [`Simulator::processed_events`]). Returns `false` when the queues
    /// are empty. Always sequential — this is the canonical semantics the
    /// parallel engine reproduces.
    pub fn step(&mut self) -> bool {
        self.check_poisoned();
        self.ensure_partition();
        let chaos = self.chaos_queue.peek_key();
        let mut best: Option<(usize, EventKey)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            let Some(k) = q.peek_key() else { continue };
            match best {
                Some((_, b)) if b <= k => {}
                _ => best = Some((i, k)),
            }
        }
        let take_chaos = match (chaos, best) {
            (None, None) => return false,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(c), Some((_, n))) => c < n,
        };
        if take_chaos {
            let ev = self.chaos_queue.pop().expect("peeked chaos event");
            self.apply_chaos_event(ev);
            return true;
        }
        let (i, _) = best.expect("peeked node event");
        let ev = self.queues[i].pop().expect("peeked node event");
        debug_assert!(ev.key.at >= self.time, "time went backwards");
        self.time = ev.key.at;
        let mut out = std::mem::take(&mut self.scratch_out);
        let mut stats = LocalStats::default();
        {
            let mut env = DispatchEnv {
                topo: &self.topo,
                out: &mut out,
                stats: &mut stats,
            };
            process_node_event(&mut env, &self.obs, ev, &mut self.queues[i]);
        }
        peering_obs::clear_dispatch_key();
        self.fold(stats);
        self.route_events(&mut out);
        self.scratch_out = out;
        true
    }

    /// Apply one chaos step on the main thread (chaos never runs on worker
    /// threads: windows stop at chaos timestamps so link state is frozen
    /// while shards execute).
    fn apply_chaos_event(&mut self, ev: Event) {
        let key = ev.key;
        debug_assert!(key.at >= self.time, "time went backwards");
        self.time = key.at;
        self.obs.set_now_nanos(self.time.as_nanos());
        peering_obs::set_dispatch_key(DispatchKey {
            at_nanos: key.at.as_nanos(),
            class: key.class,
            dst: key.dst,
            src: key.src,
            seq: key.seq,
        });
        self.processed_events += 1;
        let EventKind::Chaos(step) = ev.kind else {
            unreachable!("chaos queue holds only chaos events");
        };
        if let Some(slot) = self.topo.links.get(step.link.0 as usize) {
            let mut state = slot.lock().expect("link lock poisoned");
            let change = match step.change {
                ChaosChange::LinkDown => {
                    state.link.up = false;
                    "link-down"
                }
                ChaosChange::LinkUp => {
                    state.link.up = true;
                    "link-up"
                }
                ChaosChange::SetFaults(faults) => {
                    state.link.config.faults = faults;
                    "set-faults"
                }
                ChaosChange::RestoreFaults => {
                    state.link.config.faults = state.link.base_faults;
                    "restore-faults"
                }
            };
            drop(state);
            self.counters.inc(SimCounter::ChaosSteps);
            self.obs.record(ObsEvent::ChaosInjection {
                link: step.link.0,
                change,
            });
        }
        peering_obs::clear_dispatch_key();
    }

    /// Run until the queue is exhausted or `deadline` is reached; the clock
    /// ends at `deadline` if it was reached, otherwise at the last event.
    ///
    /// With more than one shard, events execute in parallel lookahead
    /// windows on worker threads; the results — node state, counters,
    /// journal, clock — are bit-identical to a single-shard run.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.check_poisoned();
        self.ensure_partition();
        match self.per_shard_out_lookahead() {
            Some(l_out) => {
                self.run_parallel_until(deadline, &l_out, None);
            }
            None => {
                while self.next_key().is_some_and(|k| k.at <= deadline) {
                    self.step();
                }
            }
        }
        if self.time < deadline {
            self.time = deadline;
            self.obs.set_now_nanos(self.time.as_nanos());
        }
    }

    /// Run for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.time + duration;
        self.run_until(deadline);
    }

    /// Per-shard minimum latency over cross-shard links incident to each
    /// shard (`L_out`), or `None` when the run must stay on the sequential
    /// engine: one shard, or a zero-latency cross-shard link (which leaves
    /// no safe window). Any cross-shard arrival emitted by
    /// shard `s` is the end of a causal chain whose final hop adds at
    /// least `L_out(s)`, so shard `s` cannot disturb anyone before
    /// `t_s + L_out(s)`. Shards with no cross-shard links get the
    /// saturating "never" bound.
    fn per_shard_out_lookahead(&self) -> Option<Vec<SimDuration>> {
        if self.queues.len() < 2 {
            return None;
        }
        let mut out = vec![SimDuration::from_nanos(u64::MAX); self.queues.len()];
        for (i, slot) in self.topo.links.iter().enumerate() {
            let state = slot.lock().expect("link lock poisoned");
            if !self.topo.wired(LinkId(i as u32), &state) {
                continue; // disconnected: no frames can cross it
            }
            let a = self.shard_of(state.ends[0].0 .0);
            let b = self.shard_of(state.ends[1].0 .0);
            if a == b {
                continue;
            }
            let latency = state.link.config.latency;
            if latency == SimDuration::ZERO {
                return None;
            }
            out[a] = out[a].min(latency);
            out[b] = out[b].min(latency);
        }
        Some(out)
    }

    /// The parallel engine: advance in windows `[gvt, end)` where
    ///
    /// ```text
    /// end = min( gvt + min_s L_out(s) × cap,       doubling heuristic
    ///            min_s (t_s + L_out(s)),           sound emission bound
    ///            next chaos step,
    ///            deadline + 1ns )
    /// ```
    ///
    /// Each dispatched shard runs on its parked pool worker; cross-shard
    /// deliveries land in SPSC lanes drained at the barrier through the
    /// canonical `EventKey`-ordered queues, so the merge — and every
    /// observable result — is independent of the window schedule. The
    /// `cap` multiplier doubles while windows stay cross-shard quiet (up
    /// to [`Simulator::set_window_cap`]) and snaps back to 1 when a lane
    /// carries traffic; the sound bound keeps any schedule correct.
    ///
    /// The floor `min_s L_out(s)` is the classic conservative bound (the
    /// minimum cross-shard link latency); with no cross-shard links at all
    /// the shards are independent and it is an hour.
    ///
    /// With `max_events`, stops early (at a window barrier, with events
    /// still pending) once the run has processed at least that many
    /// events, returning `false`; a window may overshoot the budget.
    fn run_parallel_until(
        &mut self,
        deadline: SimTime,
        l_out: &[SimDuration],
        max_events: Option<u64>,
    ) -> bool {
        let shard_count = self.queues.len();
        if self.pool.as_ref().map(|p| p.shards) != Some(shard_count) {
            self.pool = Some(WorkerPool::new(shard_count));
        }
        let lookahead = l_out
            .iter()
            .copied()
            .min()
            .filter(|&l| l != SimDuration::from_nanos(u64::MAX))
            .unwrap_or(SimDuration::from_secs(3600));
        let start_processed = self.processed_events;
        let mut cap_mult: u64 = 1;
        loop {
            let t_chaos = self.chaos_queue.peek_time();
            let t_node = self.queues.iter().filter_map(|q| q.peek_time()).min();
            let gvt = match (t_chaos, t_node) {
                (None, None) => break,
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
            };
            if gvt > deadline {
                break;
            }
            if max_events.is_some_and(|max| self.processed_events - start_processed >= max) {
                return false;
            }
            if t_chaos == Some(gvt) {
                // Chaos sorts before node events at the same instant
                // (CLASS_CHAOS), so apply every step due now before opening
                // a window.
                while self.chaos_queue.peek_time() == Some(gvt) {
                    let ev = self.chaos_queue.pop().expect("peeked chaos event");
                    self.apply_chaos_event(ev);
                }
                continue;
            }
            // Heuristic width, then clamp to the sound emission bound:
            // no shard can receive a cross-shard event before
            // min_s(t_s + L_out(s)), so any end at or below it is safe.
            let mut end = sat_add(
                gvt,
                SimDuration::from_nanos(lookahead.as_nanos().saturating_mul(cap_mult)),
            );
            for (s, q) in self.queues.iter().enumerate() {
                if let Some(t) = q.peek_time() {
                    end = end.min(sat_add(t, l_out[s]));
                }
            }
            if let Some(tc) = t_chaos {
                end = end.min(tc);
            }
            end = end.min(SimTime::from_nanos(deadline.as_nanos().saturating_add(1)));
            // Dispatch the window to every shard with due events. No
            // borrow of the queues is live once a worker starts mutating
            // its own: only raw pointers cross the channel.
            let mut active = 0usize;
            let queues_ptr = self.queues.as_mut_ptr();
            let topo: *const Topo = &self.topo;
            let obs: *const Obs = &self.obs;
            let node_shard = self.node_shard.as_ptr();
            let node_shard_len = self.node_shard.len();
            let pool = self.pool.as_ref().expect("pool built above");
            for shard in 0..shard_count {
                // SAFETY: reading the shard's own queue head; workers for
                // lower shards only mutate *their* queues.
                let due = unsafe { (*queues_ptr.add(shard)).peek_time() };
                if due.is_none_or(|t| t >= end) {
                    continue; // nothing to do this window
                }
                let job = WindowJob {
                    gvt,
                    end,
                    topo,
                    obs,
                    node_shard,
                    node_shard_len,
                    queues: queues_ptr,
                    lanes: pool.lanes.as_ptr(),
                    shards: shard_count,
                };
                pool.jobs[shard]
                    .send(Job::Window(job))
                    .expect("shard worker channel closed");
                active += 1;
            }
            debug_assert!(active > 0, "window [{gvt:?}, {end:?}) dispatched no shard");
            // Barrier: block until every dispatched worker reports.
            let mut poison: Option<(usize, String)> = None;
            for _ in 0..active {
                let done = self.pool.as_ref().expect("pool built above").done_rx.recv();
                let done = done.expect("shard worker died without reporting");
                match done.result {
                    Ok((stats, last)) => {
                        self.fold(stats);
                        if last > self.time {
                            self.time = last;
                        }
                    }
                    Err(msg) => poison = Some((done.shard, msg)),
                }
            }
            // Drain the SPSC lanes into the canonical per-shard queues.
            // Push order cannot matter: queues order by EventKey.
            let pool = self.pool.as_ref().expect("pool built above");
            let mut saw_cross = false;
            for src in 0..shard_count {
                for dst in 0..shard_count {
                    // SAFETY: all workers are parked (every done report
                    // collected), so the coordinator is the sole accessor.
                    let lane = unsafe { &mut *pool.lanes[src * shard_count + dst].get() };
                    if lane.is_empty() {
                        continue;
                    }
                    saw_cross = true;
                    for e in lane.drain(..) {
                        self.queues[dst].push(e.key, e.kind);
                    }
                }
            }
            cap_mult = if saw_cross {
                1
            } else {
                cap_mult.saturating_mul(2).min(self.window_cap)
            };
            self.obs.set_now_nanos(self.time.as_nanos());
            if let Some((shard, msg)) = poison {
                let tail = self.obs.journal_tail(12);
                let diag = format!(
                    "shard {shard} worker panicked in window [{}ns, {}ns): {msg}\njournal tail:\n{tail}",
                    gvt.as_nanos(),
                    end.as_nanos()
                );
                self.poisoned = Some(diag.clone());
                panic!("{diag}");
            }
        }
        true
    }

    /// Run until no events remain (the network is quiescent), with a safety
    /// cap on processed events to catch livelock in tests. Returns `true`
    /// when the queues drained and `false` when the cap stopped the run
    /// with events still pending.
    ///
    /// Both engines count processed events, and both check the cap only
    /// between units of work, so a run may overshoot it: the sequential
    /// engine by one node's batch of frame trains, the parallel engine by
    /// one window. With shards configured this uses the same windowed
    /// parallel engine as [`Simulator::run_until`] —
    /// quiescence is detected at window barriers, where the coordinator
    /// holds the global queue view — and produces results bit-identical to
    /// the sequential engine.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        self.check_poisoned();
        self.ensure_partition();
        if let Some(l_out) = self.per_shard_out_lookahead() {
            // Deadline at the saturating horizon: windows stop when the
            // queues drain (or the event budget trips).
            return self.run_parallel_until(
                SimTime::from_nanos(u64::MAX),
                &l_out,
                Some(max_events),
            );
        }
        let start = self.processed_events;
        while self.pending_events() > 0 {
            if self.processed_events - start >= max_events {
                return false;
            }
            self.step();
        }
        true
    }

    /// Number of pending events (all shards plus scheduled chaos steps).
    pub fn pending_events(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>() + self.chaos_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::frame::EtherType;
    use crate::mac::MacAddr;

    /// Echoes every frame back out the port it arrived on, swapping MACs.
    struct Echo {
        seen: u64,
    }

    impl Node for Echo {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
            self.seen += 1;
            let reply = EtherFrame::new(frame.src, frame.dst, frame.ethertype, frame.payload);
            ctx.send_frame(port, reply);
        }
    }

    /// Sends one frame at t=0 via a timer, records replies.
    struct Pinger {
        replies: u64,
        target: MacAddr,
        me: MacAddr,
    }

    impl Node for Pinger {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EtherFrame) {
            self.replies += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_frame(
                PortId(0),
                EtherFrame::new(
                    self.target,
                    self.me,
                    EtherType::Other(0x9999),
                    Bytes::from_static(b"ping"),
                ),
            );
        }
    }

    #[test]
    fn ping_pong_over_link() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(
            pinger,
            PortId(0),
            echo,
            PortId(0),
            LinkConfig::with_latency(SimDuration::from_millis(5)),
        );
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        assert!(sim.run_until_idle(100));
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 1);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
        // Round trip = 2 × 5 ms.
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn unconnected_port_counts_unrouted() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::BROADCAST,
            me: MacAddr::from_id(1),
        }));
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        sim.run_until_idle(10);
        assert_eq!(sim.unrouted_frames, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            let pinger = sim.add_node(Box::new(Pinger {
                replies: 0,
                target: MacAddr::from_id(2),
                me: MacAddr::from_id(1),
            }));
            let echo = sim.add_node(Box::new(Echo { seen: 0 }));
            let cfg = LinkConfig::default().with_faults(crate::link::FaultInjector::dropping(50));
            sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
            for i in 0..50 {
                sim.set_timer(pinger, SimDuration::from_millis(i), i);
            }
            sim.run_until_idle(10_000);
            (
                sim.node::<Echo>(echo).unwrap().seen,
                sim.node::<Pinger>(pinger).unwrap().replies,
            )
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        assert!(sim.node::<Pinger>(echo).is_none());
        assert!(sim.node::<Echo>(echo).is_some());
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo { seen: 0 }));
        let b = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::default());
        sim.connect(a, PortId(0), b, PortId(1), LinkConfig::default());
    }

    #[test]
    fn disconnect_stops_delivery() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let link = sim.connect(pinger, PortId(0), echo, PortId(0), LinkConfig::default());
        sim.disconnect(link);
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        sim.run_until_idle(10);
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 0);
        assert_eq!(sim.unrouted_frames, 1);
    }

    /// Counts the frames it receives.
    struct Sink {
        frames: u64,
    }

    impl Node for Sink {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EtherFrame) {
            self.frames += 1;
        }
    }

    #[test]
    fn idle_cap_counts_events_not_steps() {
        for shards in [1, 2] {
            let mut sim = Simulator::new(1);
            let a = sim.add_node(Box::new(Sink { frames: 0 }));
            let b = sim.add_node(Box::new(Sink { frames: 0 }));
            let cfg = LinkConfig::with_latency(SimDuration::from_millis(1));
            sim.connect(a, PortId(0), b, PortId(0), cfg);
            sim.set_shards(shards);
            // Ten consecutive injections to one port join one train and
            // reach the node in one step; the timer stays pending behind.
            for _ in 0..10 {
                let frame = EtherFrame::new(
                    MacAddr::from_id(2),
                    MacAddr::from_id(1),
                    EtherType::Other(0x9999),
                    Bytes::from_static(b"burst"),
                );
                sim.inject_frame(b, PortId(0), frame);
            }
            sim.set_timer(a, SimDuration::from_millis(10), 0);
            assert!(
                !sim.run_until_idle(5),
                "{shards} shard(s): a burst of 10 events must trip a cap of 5"
            );
            assert_eq!(sim.processed_events, 10, "{shards} shard(s)");
            assert_eq!(sim.pending_events(), 1, "{shards} shard(s)");
            assert_eq!(sim.node::<Sink>(b).unwrap().frames, 10);
            assert!(sim.run_until_idle(5), "{shards} shard(s): one timer left");
        }
    }

    /// A faulty ping-pong workload whose observable outcome must not depend
    /// on the shard count (the tentpole property).
    fn sharded_outcome(shards: usize) -> (u64, u64, u64, u64, u64) {
        let mut sim = Simulator::new(42);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let cfg = LinkConfig::with_latency(SimDuration::from_millis(2))
            .with_faults(crate::link::FaultInjector::dropping(20));
        sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
        sim.set_shards(shards);
        for i in 0..40 {
            sim.set_timer(pinger, SimDuration::from_millis(i), i);
        }
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        (
            sim.node::<Echo>(echo).unwrap().seen,
            sim.node::<Pinger>(pinger).unwrap().replies,
            sim.processed_events,
            sim.unrouted_frames,
            sim.now().as_nanos(),
        )
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let base = sharded_outcome(1);
        assert!(base.0 > 0, "workload should deliver some frames");
        assert_eq!(sharded_outcome(2), base);
        assert_eq!(sharded_outcome(4), base);
    }

    #[test]
    fn zero_latency_cross_shard_link_stays_sequential() {
        let mut sim = Simulator::new(5);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let cfg = LinkConfig::with_latency(SimDuration::ZERO);
        sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
        sim.set_shards(2);
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        sim.run_until(SimTime::from_nanos(1_000));
        assert!(
            sim.pool.is_none(),
            "no safe window: the run must stay sequential"
        );
        // The whole round trip happens at t = 0.
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
        assert_eq!(sim.processed_events, 3);
    }

    #[test]
    fn repartition_preserves_pending_events() {
        let mut sim = Simulator::new(3);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(pinger, PortId(0), echo, PortId(0), LinkConfig::default());
        sim.set_timer(pinger, SimDuration::from_millis(1), 0);
        // Re-shard with an event already queued: it must survive the move.
        sim.set_shards(2);
        sim.set_node_shard(echo, 1);
        assert!(sim.run_until_idle(100));
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 1);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
    }
}
