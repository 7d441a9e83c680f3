//! The lock space proper: one [`Protocol`] instance per node hosting K
//! independent DAG-algorithm locks behind a single simulated network.
//!
//! ## How the multiplexing works
//!
//! Each node owns a [`KeyedNode`] core — its lazily materialized per-key
//! DAG instances — plus one per-node request stream from a
//! [`KeyedWorkload`]. The engine's single-lock request/enter/exit
//! machinery (and its single-occupant safety checker) cannot describe a
//! system where many keys are legitimately held at once, so the lock
//! space drives itself entirely through messages and the engine's timer
//! facility (`Ctx::wake_at`):
//!
//! * request arrivals are wake-ups scheduled from the node's stream;
//! * a granted key is held for the configured duration and released by
//!   another wake-up;
//! * per-key safety and liveness are checked by the *shared*
//!   [`KeyedSafetyChecker`]/[`KeyedLivenessChecker`] (one instance for
//!   the whole space, reachable from every node), and per-key counters
//!   roll up in a shared [`KeyedMetrics`].
//!
//! ## Batching
//!
//! Sends are staged rather than transmitted immediately, through the
//! node's [`Transport`] (see the [`transport`](crate::transport) module
//! — the same coalescing code the threaded `LockSpaceCluster` runs).
//! With batching on, a node keeps staging across *all* of its
//! dispatches until its [`FlushPolicy`]'s window closes, then flushes
//! once (a wake-up, which the engine orders after every same-tick
//! delivery): each destination then receives one pooled
//! [`Envelope::Batch`] (or a bare [`Envelope::One`]) per window, no
//! matter how many keys' messages piled up — this is how a busy node's
//! fan-out, e.g. a hub forwarding many keys' requests, collapses onto
//! the per-destination links.
//!
//! [`FlushPolicy::EveryTick`] flushes at the same tick the messages
//! were produced, adding no latency; [`FlushPolicy::Window`]`(k)`
//! holds traffic Nagle-style for up to `k` ticks, trading latency for
//! fewer, fatter envelopes. With batching off every message is
//! transmitted in its own envelope the moment its dispatch ends, which
//! makes per-key traffic match an equivalent single-lock run message
//! for message.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_simnet::checker::{KeyedLivenessChecker, KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::metrics::{Histogram, KeyStats, KeyedMetrics, KeyedRollup};
use dmx_simnet::{Ctx, MessageMeta, Protocol, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{KeyStream, KeyedWorkload};

use crate::envelope::Envelope;
use crate::keyed::{Effect, KeyedNode, Placement, Seeds};
use crate::transport::{BatchPool, FlushPolicy, Transport};

/// Lock-space parameters.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::LockSpaceConfig;
///
/// let config = LockSpaceConfig { keys: 64, ..LockSpaceConfig::default() };
/// assert!(config.batching);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpaceConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// How long a node holds a granted key before releasing it.
    pub hold: Time,
    /// Group same-destination sends into [`Envelope::Batch`]
    /// deliveries. Off, every keyed message is its own delivery —
    /// per-key message counts then match an equivalent single-lock run
    /// exactly, and `flush` is ignored.
    pub batching: bool,
    /// How long the transport coalesces before flushing (see
    /// [`FlushPolicy`]); only meaningful with `batching` on. Validated
    /// once at [`LockSpace::cluster`].
    pub flush: FlushPolicy,
    /// Shard count of each node's [`LockTable`](crate::LockTable).
    pub shards: usize,
    /// Trace per-request DAG path lengths (REQUEST hops from requester
    /// to the privilege holder) into a histogram reachable via
    /// [`LockSpaceMonitor::path_histogram`]. Off by default: the hot
    /// path then pays only an is-empty check on an always-empty vector.
    pub trace_paths: bool,
}

impl Default for LockSpaceConfig {
    fn default() -> Self {
        LockSpaceConfig {
            keys: 1,
            placement: Placement::Modulo,
            hold: Time(1),
            batching: true,
            flush: FlushPolicy::EveryTick,
            shards: 16,
            trace_paths: false,
        }
    }
}

/// State shared by every node of one lock space (single-threaded, under
/// the engine): the per-key oracles, per-key metric rollups, the batch
/// buffer pool, and the instance seeds (with their per-hub orientation
/// cache).
struct Shared {
    seeds: Seeds,
    safety: KeyedSafetyChecker,
    liveness: KeyedLivenessChecker,
    keyed: KeyedMetrics,
    /// Recycled batch payloads; see [`Envelope::Batch`].
    pool: BatchPool,
    /// First correctness violation observed, if any. Protocol callbacks
    /// cannot abort the engine, so violations are recorded here and
    /// surfaced through [`LockSpaceMonitor`].
    violation: Option<KeyedViolation>,
    /// Per-origin REQUEST hop counters, sized to the node count when
    /// `trace_paths` is on (empty — and costing one length check per
    /// delivery — when off). One slot per node suffices because the
    /// lock-space model allows one outstanding request per node.
    path_hops: Vec<u32>,
    /// Distribution of per-request DAG path lengths (0 for grants
    /// satisfied locally by a parked token).
    path_hist: Histogram,
}

impl Shared {
    fn note(&mut self, err: Option<KeyedViolation>) {
        if self.violation.is_none() {
            self.violation = err;
        }
    }
}

/// What this node's local user is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between requests.
    Idle,
    /// A request for `key` is outstanding.
    Waiting {
        /// The requested key.
        key: LockId,
    },
    /// Inside `key`'s critical section until `until`.
    Holding {
        /// The held key.
        key: LockId,
        /// Scheduled release time.
        until: Time,
    },
}

/// One node of a lock space: the [`Protocol`] impl the engine drives —
/// a [`KeyedNode`] core plus this driver's closed-loop phase, request
/// stream, and transport.
///
/// Build a whole space with [`LockSpace::cluster`]; see the
/// [crate-level example](crate).
pub struct LockSpaceNode {
    config: LockSpaceConfig,
    shared: Rc<RefCell<Shared>>,
    core: KeyedNode,
    stream: Box<dyn KeyStream>,
    /// The stream's next `(time, key)` request, once scheduled.
    next_arrival: Option<(Time, LockId)>,
    phase: Phase,
    /// Buffer the core appends [`Effect`]s to.
    effects: Vec<Effect>,
    /// The coalescing transport: staged sends, destination grouping,
    /// and the flush-window bookkeeping (shared implementation with the
    /// threaded `LockSpaceCluster`).
    transport: Transport,
}

impl LockSpaceNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.core.id()
    }

    /// The key this node currently holds, if any.
    pub fn holding_key(&self) -> Option<LockId> {
        match self.phase {
            Phase::Holding { key, .. } => Some(key),
            _ => None,
        }
    }

    /// The node's keyed core: its materialized per-key instances.
    pub fn table(&self) -> &KeyedNode {
        &self.core
    }

    /// Keys whose token (PRIVILEGE) is currently parked at this node.
    pub fn token_keys(&self) -> impl Iterator<Item = LockId> + '_ {
        self.core
            .iter()
            .filter(|(_, node, _)| node.has_token())
            .map(|(key, _, _)| key)
    }

    /// Issues the local user's request for `key` right now.
    fn issue(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        let me = self.id();
        debug_assert_eq!(self.phase, Phase::Idle, "issue() while not idle");
        self.phase = Phase::Waiting { key };
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.liveness.on_request(me, key.index(), now).err();
            sh.note(r);
            sh.keyed.on_request(key.index());
            if let Some(hops) = sh.path_hops.get_mut(me.index()) {
                *hops = 0;
            }
            self.core.request(key, &mut sh.seeds, &mut self.effects);
        }
        self.apply_effects(ctx);
    }

    /// The local request for `key` was granted.
    fn granted(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        let me = self.id();
        debug_assert_eq!(
            self.phase,
            Phase::Waiting { key },
            "grant without a matching wait"
        );
        {
            let mut sh = self.shared.borrow_mut();
            let wait = match sh.liveness.on_grant(me, key.index(), now) {
                Ok(requested_at) => now.saturating_since(requested_at).ticks(),
                Err(v) => {
                    sh.note(Some(v));
                    0
                }
            };
            let r = sh.safety.on_enter(key.index(), me, now).err();
            sh.note(r);
            sh.keyed.on_grant(key.index(), wait);
            if let Some(&hops) = sh.path_hops.get(me.index()) {
                sh.path_hist.record(u64::from(hops));
            }
        }
        let until = now + self.config.hold;
        self.phase = Phase::Holding { key, until };
        ctx.wake_at(until);
    }

    /// The hold on `key` expired: leave the critical section, hand the
    /// token on if someone follows, and line up the next request.
    fn release(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.safety.on_exit(key.index(), self.id(), now).err();
            sh.note(r);
        }
        self.core.release(key, &mut self.effects);
        self.phase = Phase::Idle;
        self.apply_effects(ctx);
        if let Some((at, next_key)) = self.stream.next_request(now) {
            debug_assert!(at >= now, "streams must not request in the past");
            if at == now {
                // Issue in this dispatch: the fresh REQUEST shares the
                // staging pass — and possibly an envelope — with the
                // hand-off traffic above. This is where batching starts.
                self.issue(next_key, ctx);
            } else {
                self.next_arrival = Some((at, next_key));
                ctx.wake_at(at);
            }
        }
    }

    /// One keyed message arrived (already unwrapped from its envelope).
    fn deliver(&mut self, from: NodeId, keyed: KeyedDagMessage, ctx: &mut Ctx<'_, Envelope>) {
        let key = keyed.lock;
        {
            let mut sh = self.shared.borrow_mut();
            sh.keyed.on_message(key.index(), keyed.msg.kind());
            // Path tracing: every delivery of a REQUEST still carrying
            // `origin` is one hop of that request's DAG path.
            if let DagMessage::Request { from: link, origin } = keyed.msg {
                debug_assert_eq!(link, from, "REQUEST's X field must match the wire sender");
                if let Some(hops) = sh.path_hops.get_mut(origin.index()) {
                    *hops += 1;
                }
            }
            self.core.deliver(keyed, &mut sh.seeds, &mut self.effects);
        }
        self.apply_effects(ctx);
    }

    /// Drains the core's effects: sends are staged, an entry becomes a
    /// grant.
    fn apply_effects(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.transport.stage(to, msg),
                Effect::Enter(key) => self.granted(key, ctx),
            }
        }
        self.effects = effects;
    }

    /// Ends a dispatch: with batching off, transmit everything staged
    /// right away (one envelope per message); with batching on, make
    /// sure a flush wake is booked per the transport's [`FlushPolicy`].
    fn end_dispatch(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.config.batching {
            self.transport
                .drain_unbatched(|to, keyed| ctx.send(to, Envelope::One(keyed)));
            return;
        }
        if let Some(at) = self.transport.after_dispatch(ctx.now()) {
            ctx.wake_at(at);
        }
    }

    /// Transmits everything staged through the transport: one pooled
    /// [`Envelope::Batch`] (or bare [`Envelope::One`]) per destination.
    fn flush_now(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mut sh = self.shared.borrow_mut();
        self.transport
            .flush(&mut sh.pool, |dst, envelope| ctx.send(dst, envelope));
    }
}

impl Protocol for LockSpaceNode {
    type Message = Envelope;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if let Some((at, key)) = self.stream.next_request(Time::ZERO) {
            self.next_arrival = Some((at, key));
            ctx.wake_at(at);
        }
    }

    fn on_request_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!(
            "lock spaces drive demand through their keyed streams; \
             use the workload, not Engine::request_at"
        );
    }

    fn on_message(&mut self, from: NodeId, msg: Envelope, ctx: &mut Ctx<'_, Envelope>) {
        match msg {
            Envelope::One(keyed) => self.deliver(from, keyed, ctx),
            Envelope::Batch(mut batch) => {
                for keyed in batch.drain(..) {
                    self.deliver(from, keyed, ctx);
                }
                // The drained payload returns to the pool for reuse.
                self.shared.borrow_mut().pool.put(batch);
            }
        }
        self.end_dispatch(ctx);
    }

    fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("lock spaces never call enter_cs, so the engine never schedules an exit");
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        if let Phase::Holding { key, until } = self.phase {
            if until <= now {
                self.release(key, ctx);
            }
        }
        if self.phase == Phase::Idle {
            if let Some((at, key)) = self.next_arrival {
                if at <= now {
                    self.next_arrival = None;
                    self.issue(key, ctx);
                }
            }
        }
        if self.transport.flush_due(now) {
            // This wake is the flush point of the open coalescing
            // window; everything staged since it opened leaves now
            // (including anything the release/issue above just staged).
            self.flush_now(ctx);
        } else {
            self.end_dispatch(ctx);
        }
    }

    fn storage_words(&self) -> usize {
        // Three words per materialized instance (Chapter 6.4 per key),
        // plus the node's own phase/arrival bookkeeping.
        3 * self.core.len() + 4
    }
}

/// Builder for a whole lock space.
pub struct LockSpace;

impl LockSpace {
    /// One [`LockSpaceNode`] per node of `tree`, sharing one set of
    /// per-key oracles and rollups reachable through the returned
    /// [`LockSpaceMonitor`]. Each node's request stream comes from
    /// `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `config.keys == 0`, `config.shards == 0`,
    /// `config.flush` is invalid (see [`FlushPolicy::validate`]), or the
    /// placement is (see [`Placement::validate`]).
    pub fn cluster(
        tree: &Tree,
        config: LockSpaceConfig,
        workload: &dyn KeyedWorkload,
    ) -> (Vec<LockSpaceNode>, LockSpaceMonitor) {
        assert!(config.keys > 0, "lock space needs at least one key");
        config.flush.validate();
        let n = tree.len();
        config.placement.validate(n);
        let shared = Rc::new(RefCell::new(Shared {
            seeds: Seeds::new(Arc::new(tree.clone()), config.placement.clone()),
            safety: KeyedSafetyChecker::with_keys(config.keys as usize),
            liveness: KeyedLivenessChecker::with_nodes(n),
            keyed: KeyedMetrics::with_keys(config.keys as usize).with_per_key_histograms(),
            pool: BatchPool::new(),
            violation: None,
            path_hops: if config.trace_paths {
                vec![0; n]
            } else {
                Vec::new()
            },
            path_hist: Histogram::default(),
        }));
        let nodes = tree
            .nodes()
            .map(|id| LockSpaceNode {
                config: config.clone(),
                shared: Rc::clone(&shared),
                core: KeyedNode::new(id, config.shards),
                stream: workload.stream(id),
                next_arrival: None,
                phase: Phase::Idle,
                effects: Vec::new(),
                transport: Transport::new(n, config.flush),
            })
            .collect();
        (nodes, LockSpaceMonitor { shared })
    }
}

/// Observer handle over a running (or finished) lock space: per-key
/// occupancy, metric rollups, and the verdicts of the per-key safety and
/// liveness oracles.
pub struct LockSpaceMonitor {
    shared: Rc<RefCell<Shared>>,
}

impl LockSpaceMonitor {
    /// The first correctness violation observed, if any. `None` is the
    /// per-key safety verdict every healthy run must end with.
    pub fn violation(&self) -> Option<KeyedViolation> {
        self.shared.borrow().violation
    }

    /// The node currently inside `key`'s critical section, if any.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn occupant(&self, key: LockId) -> Option<NodeId> {
        self.shared.borrow().safety.occupant(key.index())
    }

    /// Keys currently held, across the whole space.
    pub fn concurrent_holders(&self) -> usize {
        self.shared.borrow().safety.concurrent()
    }

    /// Most keys ever held at the same instant — the concurrency a
    /// single-lock system can never exhibit.
    pub fn peak_concurrent_holders(&self) -> usize {
        self.shared.borrow().safety.peak_concurrent()
    }

    /// Requests currently waiting, across all nodes and keys.
    pub fn pending_requests(&self) -> usize {
        self.shared.borrow().liveness.pending_count()
    }

    /// Per-key counters for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn key_stats(&self, key: LockId) -> KeyStats {
        *self.shared.borrow().keyed.stats(key.index())
    }

    /// Whole-space rollup of the per-key counters.
    pub fn rollup(&self) -> KeyedRollup {
        self.shared.borrow().keyed.rollup()
    }

    /// The global request→grant wait distribution.
    pub fn wait_histogram(&self) -> Histogram {
        *self.shared.borrow().keyed.wait_histogram()
    }

    /// The wait distribution for one key (per-key histograms are always
    /// on in the simulated lock space).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn key_wait_histogram(&self, key: LockId) -> Histogram {
        *self
            .shared
            .borrow()
            .keyed
            .key_wait_histogram(key.index())
            .expect("lock spaces record per-key histograms")
    }

    /// The per-request DAG path-length distribution (REQUEST hops from
    /// requester to privilege holder; 0 for locally-parked grants).
    /// Empty unless [`LockSpaceConfig::trace_paths`] was set.
    pub fn path_histogram(&self) -> Histogram {
        self.shared.borrow().path_hist
    }

    /// The `grants`-hottest keys, hottest first (ties by key id).
    pub fn hottest_keys(&self, count: usize) -> Vec<(LockId, KeyStats)> {
        let sh = self.shared.borrow();
        let mut all: Vec<(LockId, KeyStats)> = sh
            .keyed
            .iter_touched()
            .map(|(k, s)| (LockId::from_index(k), *s))
            .collect();
        all.sort_by_key(|&(k, s)| (std::cmp::Reverse(s.grants), k.0));
        all.truncate(count);
        all
    }

    /// Full-run verdict once the engine has quiesced.
    ///
    /// # Errors
    ///
    /// The first recorded [`KeyedViolation`], or a keyed starvation if
    /// any request is still pending.
    pub fn check_quiescent(&self) -> Result<(), KeyedViolation> {
        let sh = self.shared.borrow();
        if let Some(v) = sh.violation {
            return Err(v);
        }
        sh.liveness.at_quiescence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_simnet::{Engine, EngineConfig, LatencyModel};
    use dmx_workload::{KeyDist, KeyedSchedule, KeyedThinkTime};

    fn quiet() -> EngineConfig {
        EngineConfig {
            record_trace: false,
            ..EngineConfig::default()
        }
    }

    /// Runs `workload` over `tree` and returns (engine, monitor).
    fn run(
        tree: &Tree,
        config: LockSpaceConfig,
        workload: &dyn KeyedWorkload,
    ) -> (Engine<LockSpaceNode>, LockSpaceMonitor) {
        let (nodes, monitor) = LockSpace::cluster(tree, config, workload);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().expect("run completes");
        monitor.check_quiescent().expect("no keyed violation");
        (engine, monitor)
    }

    #[test]
    fn single_key_single_request_matches_the_paper_bound() {
        // One key hubbed at a star leaf, requested from another leaf:
        // REQUEST, REQUEST, PRIVILEGE — the paper's bound of 3.
        let tree = Tree::star(8);
        let mut sched = KeyedSchedule::new(8);
        sched.push(NodeId(5), Time(0), LockId(0));
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(3)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        let stats = monitor.key_stats(LockId(0));
        assert_eq!(stats.grants, 1);
        assert_eq!(stats.request_messages, 2);
        assert_eq!(stats.privilege_messages, 1);
        assert_eq!(engine.metrics().messages_total, 3);
        assert_eq!(monitor.rollup().keys_touched, 1);
    }

    #[test]
    fn distinct_keys_are_held_concurrently() {
        // Every node grabs its own hub key at t = 0 and holds for 10
        // ticks: all n holds overlap.
        let n = 6;
        let tree = Tree::kary(n, 2);
        let mut sched = KeyedSchedule::new(n);
        for i in 0..n {
            sched.push(NodeId::from_index(i), Time(0), LockId(i as u32));
        }
        let config = LockSpaceConfig {
            keys: n as u32,
            placement: Placement::Modulo,
            hold: Time(10),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.peak_concurrent_holders(), n);
        assert_eq!(monitor.rollup().grants, n as u64);
        // Hub keys grant locally: zero network traffic.
        assert_eq!(engine.metrics().messages_total, 0);
    }

    #[test]
    fn same_key_is_never_held_concurrently_under_contention() {
        let n = 9;
        let tree = Tree::kary(n, 2);
        let workload = KeyedThinkTime::new(
            4,
            KeyDist::Zipf { exponent: 1.5 },
            LatencyModel::Fixed(Time(0)),
            25,
            7,
        );
        let config = LockSpaceConfig {
            keys: 4,
            hold: Time(2),
            ..LockSpaceConfig::default()
        };
        let (_, monitor) = run(&tree, config, &workload);
        assert_eq!(monitor.rollup().grants, 25 * n as u64);
        assert!(monitor.violation().is_none());
    }

    #[test]
    fn untouched_keys_cost_nothing() {
        let tree = Tree::line(4);
        let mut sched = KeyedSchedule::new(4);
        sched.push(NodeId(3), Time(0), LockId(17));
        let config = LockSpaceConfig {
            keys: 4096,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        // Only key 17 materialized, and only along the request path.
        for node in engine.nodes() {
            assert!(
                node.table().len() <= 1,
                "node {} over-materialized",
                node.id()
            );
        }
        assert_eq!(monitor.rollup().keys_touched, 1);
        assert_eq!(monitor.key_stats(LockId(17)).grants, 1);
        assert_eq!(monitor.key_stats(LockId(16)).grants, 0);
    }

    #[test]
    fn batching_reduces_envelopes_without_changing_keyed_traffic() {
        let n = 7;
        let tree = Tree::star(n);
        let make = |batching| {
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Fixed(Time(0)), // saturated: think time zero
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                batching,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_on, monitor_on) = make(true);
        let (engine_off, monitor_off) = make(false);
        // The demand served is identical either way (same workload)...
        assert_eq!(monitor_on.rollup().grants, monitor_off.rollup().grants);
        assert_eq!(monitor_on.rollup().requests, monitor_off.rollup().requests);
        // ...but with batching on there are fewer simulated deliveries
        // than keyed messages (multiplexing is real), fewer than the
        // unbatched run pays, and some envelopes are multi-key batches.
        // (Keyed message *totals* may differ by a hair between the two
        // runs: batching changes same-tick interleaving, which the
        // path-reversal algorithm's message count is sensitive to.)
        let on = engine_on.metrics();
        let off = engine_off.metrics();
        assert!(on.messages_total < off.messages_total);
        assert!(on.messages_total < monitor_on.rollup().messages);
        assert!(on.kind_count("BATCH") > 0, "no batch ever formed");
        assert_eq!(monitor_off.rollup().messages, off.messages_total);
    }

    #[test]
    fn window_flush_coalesces_across_ticks() {
        // A hub granting keys requested on *different* ticks: EveryTick
        // flushes each tick separately, a 16-tick window merges ticks —
        // fewer envelopes for the same keyed traffic and the same
        // demand served.
        let n = 7;
        let make = |flush| {
            let tree = Tree::star(n);
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Uniform {
                    lo: Time(1),
                    hi: Time(6),
                },
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                flush,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_tick, monitor_tick) = make(FlushPolicy::EveryTick);
        let (engine_win, monitor_win) = make(FlushPolicy::Window(16));
        assert_eq!(monitor_tick.rollup().grants, monitor_win.rollup().grants);
        assert!(
            engine_win.metrics().messages_total < engine_tick.metrics().messages_total,
            "window {} !< every-tick {}",
            engine_win.metrics().messages_total,
            engine_tick.metrics().messages_total
        );
        // The latency side of the tradeoff: holding traffic for a
        // window can only lengthen waits.
        assert!(monitor_win.rollup().mean_wait_ticks >= monitor_tick.rollup().mean_wait_ticks);
    }

    #[test]
    fn adaptive_flush_stays_between_tick_and_max_window() {
        let n = 7;
        let make = |flush| {
            let tree = Tree::star(n);
            let workload = KeyedThinkTime::new(
                8,
                KeyDist::Uniform,
                LatencyModel::Uniform {
                    lo: Time(1),
                    hi: Time(6),
                },
                40,
                11,
            );
            let config = LockSpaceConfig {
                keys: 8,
                placement: Placement::Hub(NodeId(0)),
                hold: Time(0),
                flush,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &workload)
        };
        let (engine_tick, monitor_tick) = make(FlushPolicy::EveryTick);
        let (engine_adaptive, monitor_adaptive) = make(FlushPolicy::Adaptive {
            target_per_dst: 3.0,
            max_window: 16,
        });
        assert_eq!(
            monitor_tick.rollup().grants,
            monitor_adaptive.rollup().grants
        );
        assert!(engine_adaptive.metrics().messages_total <= engine_tick.metrics().messages_total);
    }

    #[test]
    #[should_panic(expected = "Window needs >= 1 tick")]
    fn zero_tick_window_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            flush: FlushPolicy::Window(0),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    #[should_panic(expected = "target_per_dst must be finite")]
    fn nan_adaptive_target_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            flush: FlushPolicy::Adaptive {
                target_per_dst: f64::INFINITY,
                max_window: 4,
            },
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    fn tokens_park_where_demand_is() {
        // A single hot node hammers one key: after the first grant the
        // token parks there and re-entries are free.
        let tree = Tree::line(3);
        let mut sched = KeyedSchedule::new(3);
        for round in 0..10u64 {
            sched.push(NodeId(2), Time(round * 50), LockId(0));
        }
        let config = LockSpaceConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.key_stats(LockId(0)).grants, 10);
        // 2 REQUEST hops + 1 PRIVILEGE... PRIVILEGE goes direct: the
        // first acquisition costs 3, the other nine are local.
        assert_eq!(engine.metrics().messages_total, 3);
        assert!(engine.node(NodeId(2)).token_keys().any(|k| k == LockId(0)));
    }

    #[test]
    fn path_tracing_counts_request_hops() {
        // Hub at one end of a 4-node line, requester at the other: the
        // first REQUEST travels 3 hops; after the token parks at the
        // requester, the re-request is a 0-hop local grant.
        let make = |trace_paths| {
            let tree = Tree::line(4);
            let mut sched = KeyedSchedule::new(4);
            sched.push(NodeId(3), Time(0), LockId(0));
            sched.push(NodeId(3), Time(100), LockId(0));
            let config = LockSpaceConfig {
                keys: 1,
                placement: Placement::Hub(NodeId(0)),
                trace_paths,
                ..LockSpaceConfig::default()
            };
            run(&tree, config, &sched).1
        };
        let monitor = make(true);
        let h = monitor.path_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 3);
        assert_eq!(
            h.iter_buckets().collect::<Vec<_>>(),
            vec![(0, 0, 1), (2, 3, 1)]
        );
        // With tracing off (the default) the histogram stays empty —
        // and the wait histograms record either way.
        let off = make(false);
        assert!(off.path_histogram().is_empty());
        assert_eq!(off.wait_histogram().count(), 2);
        assert_eq!(off.key_wait_histogram(LockId(0)).count(), 2);
    }

    #[test]
    fn profile_placement_parks_each_key_at_its_named_hub() {
        // Keys 0/1/2 hubbed at nodes 2/0/1: each node requests "its" key
        // at t=0 and grants locally — zero traffic, like Modulo's
        // aligned case but under an arbitrary map.
        let tree = Tree::line(3);
        let profile = Arc::new(vec![NodeId(2), NodeId(0), NodeId(1)]);
        let mut sched = KeyedSchedule::new(3);
        sched.push(NodeId(2), Time(0), LockId(0));
        sched.push(NodeId(0), Time(0), LockId(1));
        sched.push(NodeId(1), Time(0), LockId(2));
        let config = LockSpaceConfig {
            keys: 3,
            placement: Placement::Profile(profile),
            ..LockSpaceConfig::default()
        };
        let (engine, monitor) = run(&tree, config, &sched);
        assert_eq!(monitor.rollup().grants, 3);
        assert_eq!(engine.metrics().messages_total, 0, "all grants local");
    }

    #[test]
    #[should_panic(expected = "profile hub")]
    fn out_of_range_profile_hub_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            placement: Placement::Profile(Arc::new(vec![NodeId(7)])),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    #[should_panic(expected = "at least one hub")]
    fn empty_profile_is_rejected_at_cluster_construction() {
        let tree = Tree::star(3);
        let sched = KeyedSchedule::new(3);
        let config = LockSpaceConfig {
            placement: Placement::Profile(Arc::new(Vec::new())),
            ..LockSpaceConfig::default()
        };
        let _ = LockSpace::cluster(&tree, config, &sched);
    }

    #[test]
    fn storage_scales_with_materialized_keys_only() {
        let tree = Tree::line(2);
        let mut sched = KeyedSchedule::new(2);
        for k in 0..5u32 {
            sched.push(NodeId(1), Time(u64::from(k) * 100), LockId(2 * k));
        }
        let config = LockSpaceConfig {
            keys: 1000,
            placement: Placement::Hub(NodeId(0)),
            ..LockSpaceConfig::default()
        };
        let (engine, _) = run(&tree, config, &sched);
        // 5 materialized instances on each of the two nodes.
        assert_eq!(engine.node(NodeId(1)).storage_words(), 3 * 5 + 4);
    }
}
