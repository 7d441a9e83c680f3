//! The multi-lock service over real threads: a [`LockSpaceCluster`]
//! serves the same keyed-lock API the simulated `dmx-lockspace`
//! subsystem exposes — with per-shard worker parallelism, the same
//! coalescing transport the simulator runs, and the same unified
//! [`LockClient`] every other backend hands out (try/timeout/deadline
//! and deadlock-free [`lock_many`](LockClient::lock_many) included).
//!
//! Each node is a small thread group:
//!
//! * **per-shard workers** (one or more, [`LockSpaceClusterConfig::workers`])
//!   each run a [`KeyedNode`] core for the keys hashed to them — the
//!   same keyed core every other driver in the workspace runs (the
//!   simulated lock space, the session executor, the parallel engine's
//!   shards, and the single-key node loop behind [`Cluster`] and
//!   [`TcpCluster`]) — and ship each call's sends back as an outbox;
//! * a **router** thread that unwraps incoming [`Envelope`]s, fans the
//!   keyed messages out to the owning workers, merges the workers'
//!   outboxes into one shared [`Transport`] (`dmx-lockspace`'s
//!   coalescing layer — the identical grouping code the simulated
//!   `LockSpace` flushes through), and flushes one envelope per
//!   destination when the [`FlushPolicy`]'s cap is hit or the inbox
//!   goes idle. The router also runs the shared
//!   [`PendingSet`](crate::service) pending/abandon machine — across
//!   its whole key space, where the single-lock node loop runs it for
//!   one key — so timeouts, abandonment (release-on-grant; the paper
//!   has no cancel message), and request adoption behave identically
//!   on every backend.
//!
//! The wire therefore carries [`Envelope::One`]/[`Envelope::Batch`]
//! exactly like the simulator's network: a node forwarding many keys'
//! traffic to the same peer pays one channel send, not one per key.
//! Locking key `k` from node `i` still runs exactly the per-key
//! algorithm the simulator measures: `REQUEST`s hop toward `k`'s sink,
//! the `PRIVILEGE` parks where demand is.
//!
//! Every driver is an adapter over the one core: the core owns the
//! per-key protocol state and its transitions, the adapter owns the
//! I/O (here: channels and the router's transport), the clock (none —
//! the threaded runtime is tickless), and the user-side policy (here:
//! the router's pending/abandon set).
//!
//! [`Cluster`]: crate::Cluster
//! [`TcpCluster`]: crate::tcp::TcpCluster
//!
//! # Examples
//!
//! ```
//! use dmx_core::LockId;
//! use dmx_lockspace::Placement;
//! use dmx_runtime::LockSpaceCluster;
//! use dmx_topology::{NodeId, Tree};
//!
//! let (cluster, mut clients) =
//!     LockSpaceCluster::start(&Tree::star(4), 64, Placement::Modulo);
//! {
//!     let _guard = clients[2].lock(LockId(17)).wait()?; // key 17's critical section
//! } // drop releases; key 17's token stays parked at node 2
//! {
//!     // Deadlock-free multi-key acquisition: sorted LockId order.
//!     let guard = clients[2].lock_many(&[LockId(9), LockId(3)]).wait()?;
//!     assert_eq!(guard.keys(), &[LockId(3), LockId(9)]);
//! }
//! let stats = cluster.shutdown();
//! assert_eq!(stats.entries, 3);
//! # Ok::<(), dmx_runtime::LockError>(())
//! ```

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{
    BatchPool, Effect, Envelope, FlushPolicy, KeyedNode, Placement, Seeds, Transport,
};
use dmx_topology::{NodeId, Tree};

use crate::client::{Endpoint, LockClient};
use crate::service::{
    AbandonAction, AcquireAction, GrantAction, LockError, LockService, PendingSet, Reply,
};
use crate::snapshot::{KeyCut, LockSpaceSnapshot, NodeCut};

/// Threaded lock-space parameters.
///
/// # Examples
///
/// ```
/// use dmx_lockspace::FlushPolicy;
/// use dmx_runtime::LockSpaceClusterConfig;
///
/// let config = LockSpaceClusterConfig {
///     keys: 64,
///     workers: 4,
///     flush: FlushPolicy::Window(4),
///     ..LockSpaceClusterConfig::default()
/// };
/// assert_eq!(config.workers, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpaceClusterConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// Worker threads per node; key `k` is served by worker
    /// `k % workers`, so each worker owns a shard of the node's lock
    /// table.
    pub workers: usize,
    /// How the per-node transport coalesces outgoing traffic. The
    /// threaded runtime has no ticks, so the policy maps to merged
    /// worker-outbox *bursts*: [`FlushPolicy::EveryTick`] flushes after
    /// every burst, [`FlushPolicy::Window`]`(k)` merges up to `k`
    /// bursts, and [`FlushPolicy::Adaptive`] flushes on its
    /// staged-per-destination target — and every policy flushes the
    /// moment the node's inbox goes idle, so coalescing never stalls a
    /// waiting lock.
    pub flush: FlushPolicy,
}

impl Default for LockSpaceClusterConfig {
    fn default() -> Self {
        LockSpaceClusterConfig {
            keys: 1,
            placement: Placement::Modulo,
            workers: 1,
            flush: FlushPolicy::EveryTick,
        }
    }
}

/// Inputs a lock-space node processes.
enum Input {
    /// Local user wants `key`'s critical section; reply when granted.
    Acquire(LockId, Sender<Reply>),
    /// Local user wants `key` only if its token is here right now;
    /// reply [`Reply::Granted`] or [`Reply::Unavailable`] without ever
    /// sending a protocol message.
    TryAcquire(LockId, Sender<Reply>),
    /// Local user releases `key`.
    Release(LockId),
    /// The user gave up waiting on `key`; release its privilege the
    /// moment it arrives (unless a new acquisition adopts the request).
    Abandon(LockId),
    /// An envelope of keyed protocol messages from a peer.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload: one or many keyed messages.
        envelope: Envelope,
    },
    /// Capture a consistent cut: reply with this node's slice once the
    /// Chandy–Lamport round completes (all peers' markers received).
    Snapshot {
        /// Where the node's [`NodeCut`] goes.
        reply: Sender<NodeCut>,
    },
    /// A Chandy–Lamport marker from peer `from`: the cut boundary on
    /// the `from → me` channel.
    Marker {
        /// The peer whose cut point this marker carries.
        from: NodeId,
    },
    /// Stop and report stats.
    Shutdown,
}

/// Everything a node's router thread receives: external inputs plus its
/// own workers' outboxes coming back for the merge.
enum NodeMsg {
    External(Input),
    Worker(WorkerOut),
    /// One worker's table slice for an in-progress cut. Deliberately
    /// not a [`WorkerOut`]: cuts do not count against the router's
    /// outstanding-job bookkeeping.
    WorkerCut(Vec<KeyCut>),
}

/// One job dispatched from a router to the worker owning the key.
enum WorkerJob {
    /// Local user wants `key`.
    Acquire(LockId),
    /// Local user wants `key` iff its token is locally available.
    TryAcquire(LockId),
    /// Local user releases `key`.
    Release(LockId),
    /// A keyed protocol message from a peer.
    Net(KeyedDagMessage),
    /// Report the table slice as a [`NodeMsg::WorkerCut`]. Queue
    /// position is the worker's cut point: every job ahead of it is
    /// pre-cut, everything behind post-cut.
    Snapshot,
    /// Stop and report stats.
    Shutdown,
}

/// One worker dispatch's results: the outbox the router merges into the
/// node transport, plus a grant signal when the dispatch entered a
/// critical section (or a refusal when a try found the token remote).
struct WorkerOut {
    sends: Vec<(NodeId, KeyedDagMessage)>,
    entered: Option<LockId>,
    refused: Option<LockId>,
}

/// One router's in-progress Chandy–Lamport cut.
///
/// Two phases. **Drain** (`!markers_sent`): the workers have been sent
/// [`WorkerJob::Snapshot`] and the router parks every external input in
/// `deferred` while the pre-cut jobs' outboxes finish merging — worker
/// out-channels are FIFO, so once all [`NodeMsg::WorkerCut`]s are in,
/// the router has merged *exactly* the sends of the jobs the tables
/// reflect, and the staged transport can be captured without double- or
/// under-counting a token. **Record** (`markers_sent`): markers are
/// out, deferred inputs replay, and traffic from each peer is recorded
/// as that channel's in-flight state until its marker arrives.
struct CutState {
    /// Where this node's slice goes; `None` until the local snapshot
    /// request arrives (a peer's marker may trigger the cut first).
    reply: Option<Sender<NodeCut>>,
    /// Worker table slices still owed.
    workers_left: usize,
    /// Per-peer: marker received, channel recording closed.
    marker_seen: Vec<bool>,
    /// Peers whose marker is still outstanding.
    markers_left: usize,
    /// `false` during the drain phase, `true` once this node's own
    /// markers went out.
    markers_sent: bool,
    /// Materialized instances reported by the workers.
    keys: Vec<KeyCut>,
    /// Local user state at the cut point (captured at drain end).
    held: Vec<LockId>,
    /// Outstanding local acquisitions at the cut point.
    pending: Vec<(LockId, bool)>,
    /// Transport staging at the cut point.
    staged: Vec<(NodeId, KeyedDagMessage)>,
    /// Per-sender channel recordings.
    recording: Vec<Vec<KeyedDagMessage>>,
    /// External inputs parked during the drain phase, replayed in
    /// arrival order the moment the markers go out.
    deferred: Vec<Input>,
}

/// Counters one worker accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    requests_sent: u64,
    privileges_sent: u64,
    keys_materialized: usize,
}

/// Counters one lock-space node accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockSpaceNodeStats {
    /// Keyed `REQUEST` messages sent by this node.
    pub requests_sent: u64,
    /// Keyed `PRIVILEGE` messages sent by this node.
    pub privileges_sent: u64,
    /// Envelopes transmitted by this node (post-coalescing channel
    /// sends; at most `requests_sent + privileges_sent`).
    pub envelopes_sent: u64,
    /// Critical-section entries performed by this node's local user.
    pub entries: u64,
    /// Acquisitions whose user gave up waiting: the privilege arrived
    /// (or was already held) with nobody waiting and was released
    /// immediately.
    pub abandoned: u64,
    /// Lock instances this node materialized (keys it saw traffic for),
    /// summed over its workers.
    pub keys_materialized: usize,
}

/// Whole-cluster counters returned by [`LockSpaceCluster::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSpaceStats {
    /// Per-node counters, indexed by node.
    pub per_node: Vec<LockSpaceNodeStats>,
    /// Total keyed protocol messages exchanged (pre-coalescing).
    pub messages_total: u64,
    /// Total envelopes transmitted (post-coalescing channel sends).
    pub envelopes_total: u64,
    /// Total critical-section entries, across all keys.
    pub entries: u64,
}

impl LockSpaceStats {
    fn from_nodes(per_node: Vec<LockSpaceNodeStats>) -> Self {
        let messages_total = per_node
            .iter()
            .map(|s| s.requests_sent + s.privileges_sent)
            .sum();
        let envelopes_total = per_node.iter().map(|s| s.envelopes_sent).sum();
        let entries = per_node.iter().map(|s| s.entries).sum();
        LockSpaceStats {
            per_node,
            messages_total,
            envelopes_total,
            entries,
        }
    }

    /// Counters for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &LockSpaceNodeStats {
        &self.per_node[node.index()]
    }
}

/// A running multi-lock cluster: a router plus per-shard workers per
/// tree node, each worker hosting its shard's per-key DAG instances.
/// Obtain per-node [`LockClient`]s from [`LockSpaceCluster::start`]
/// (or [`start_with`](LockSpaceCluster::start_with) for worker/flush
/// control) and call [`shutdown`](LockSpaceCluster::shutdown) when
/// done.
#[derive(Debug)]
pub struct LockSpaceCluster {
    keys: u32,
    placement: Placement,
    txs: Vec<Sender<NodeMsg>>,
    joins: Vec<JoinHandle<LockSpaceNodeStats>>,
}

/// The lock space's [`Endpoint`]: client operations map onto keyed
/// [`Input`]s for the node's router.
struct LockSpaceEndpoint {
    tx: Sender<NodeMsg>,
}

impl Endpoint for LockSpaceEndpoint {
    fn acquire(&self, key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        self.tx
            .send(NodeMsg::External(Input::Acquire(key, ack)))
            .map_err(|_| LockError::ClusterDown)
    }

    fn try_acquire(&self, key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        self.tx
            .send(NodeMsg::External(Input::TryAcquire(key, ack)))
            .map_err(|_| LockError::ClusterDown)
    }

    fn abandon(&self, key: LockId) -> Result<(), LockError> {
        self.tx
            .send(NodeMsg::External(Input::Abandon(key)))
            .map_err(|_| LockError::ClusterDown)
    }

    fn release(&self, key: LockId) {
        // If the cluster is already gone there is nobody to notify.
        let _ = self.tx.send(NodeMsg::External(Input::Release(key)));
    }
}

impl LockSpaceCluster {
    /// Spawns one node group per node of `tree` serving `keys` locks
    /// placed per `placement` (one worker per node, every-burst
    /// flushing), and returns the cluster plus one [`LockClient`]
    /// per node (index = node id).
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0` or a [`Placement::Hub`] names an
    /// out-of-range node.
    pub fn start(
        tree: &Tree,
        keys: u32,
        placement: Placement,
    ) -> (LockSpaceCluster, Vec<LockClient>) {
        LockSpaceCluster::start_with(
            tree,
            LockSpaceClusterConfig {
                keys,
                placement,
                ..LockSpaceClusterConfig::default()
            },
        )
    }

    /// [`LockSpaceCluster::start`] with explicit worker parallelism and
    /// flush policy.
    ///
    /// # Panics
    ///
    /// Panics if `config.keys == 0`, `config.workers == 0`,
    /// `config.flush` is invalid (see [`FlushPolicy::validate`]), or the
    /// placement is (see [`Placement::validate`]).
    pub fn start_with(
        tree: &Tree,
        config: LockSpaceClusterConfig,
    ) -> (LockSpaceCluster, Vec<LockClient>) {
        assert!(config.keys > 0, "lock space needs at least one key");
        assert!(config.workers > 0, "lock space needs at least one worker");
        config.flush.validate();
        let n = tree.len();
        config.placement.validate(n);
        // Each worker's seeds lazily cache the orientations of the hubs
        // it actually touches (computing one up front per node would
        // cost O(n²) before the first lock is served); only the tree
        // itself is shared.
        let tree = Arc::new(tree.clone());

        let channels: Vec<(Sender<NodeMsg>, Receiver<NodeMsg>)> =
            (0..n).map(|_| unbounded()).collect();
        let txs: Vec<Sender<NodeMsg>> = channels.iter().map(|(tx, _)| tx.clone()).collect();

        let mut joins = Vec::with_capacity(n);
        for (i, (self_tx, rx)) in channels.into_iter().enumerate() {
            let me = NodeId::from_index(i);
            let peers = txs.clone();
            // Per-shard workers: worker w owns keys with k % workers == w.
            let mut worker_txs = Vec::with_capacity(config.workers);
            let mut worker_joins = Vec::with_capacity(config.workers);
            for _ in 0..config.workers {
                let (jtx, jrx) = unbounded::<WorkerJob>();
                let out = self_tx.clone();
                let seeds = Seeds::new(Arc::clone(&tree), config.placement.clone());
                worker_txs.push(jtx);
                worker_joins.push(std::thread::spawn(move || worker_main(me, seeds, jrx, out)));
            }
            drop(self_tx);
            joins.push(std::thread::spawn(move || {
                router_main(me, n, config.flush, rx, peers, worker_txs, worker_joins)
            }));
        }

        let clients = txs
            .iter()
            .enumerate()
            .map(|(i, tx)| {
                LockClient::new(
                    NodeId::from_index(i),
                    config.keys,
                    Box::new(LockSpaceEndpoint { tx: tx.clone() }),
                )
            })
            .collect();
        (
            LockSpaceCluster {
                keys: config.keys,
                placement: config.placement,
                txs,
                joins,
            },
            clients,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`LockSpaceCluster::len`].
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Number of keys served.
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// Captures a consistent cut of the running space without pausing
    /// it: the Chandy–Lamport marker algorithm over the cluster's FIFO
    /// channels (see [`crate::snapshot`] for the protocol and
    /// [`LockSpaceSnapshot::verify`] for the oracle it must pass).
    ///
    /// Every node is asked at once, so whichever reaches a node first —
    /// this request or a peer's marker — triggers its cut, and the
    /// slices still compose into one consistent global state. Lock
    /// traffic keeps flowing the whole time; only each node's own
    /// worker drain serializes briefly with its cut point.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is shut down while the cut is in
    /// progress (take snapshots before [`shutdown`], not concurrently
    /// with it).
    ///
    /// [`shutdown`]: LockSpaceCluster::shutdown
    pub fn snapshot(&self) -> LockSpaceSnapshot {
        let (reply, slices) = unbounded();
        for tx in &self.txs {
            let sent = tx.send(NodeMsg::External(Input::Snapshot {
                reply: reply.clone(),
            }));
            assert!(sent.is_ok(), "snapshot of a stopped cluster");
        }
        drop(reply);
        let mut cuts: Vec<NodeCut> = (0..self.txs.len())
            .map(|_| slices.recv().expect("cut interrupted by shutdown"))
            .collect();
        cuts.sort_by_key(|c| c.node.index());
        LockSpaceSnapshot::new(self.keys, self.placement.clone(), cuts)
    }

    /// Stops every node and returns the aggregated counters.
    pub fn shutdown(self) -> LockSpaceStats {
        for tx in &self.txs {
            let _ = tx.send(NodeMsg::External(Input::Shutdown));
        }
        let per_node: Vec<LockSpaceNodeStats> = self
            .joins
            .into_iter()
            .map(|j| j.join().expect("lock-space router thread panicked"))
            .collect();
        LockSpaceStats::from_nodes(per_node)
    }
}

impl LockService for LockSpaceCluster {
    type Stats = LockSpaceStats;

    fn len(&self) -> usize {
        LockSpaceCluster::len(self)
    }

    fn keys(&self) -> u32 {
        LockSpaceCluster::keys(self)
    }

    fn snapshot(&self) -> Option<LockSpaceSnapshot> {
        Some(LockSpaceCluster::snapshot(self))
    }

    fn shutdown(self) -> LockSpaceStats {
        LockSpaceCluster::shutdown(self)
    }
}

/// One per-shard worker: drives a [`KeyedNode`] core for every key
/// hashed to it, returning each dispatch's outbox to the router for the
/// transport merge.
fn worker_main(
    me: NodeId,
    mut seeds: Seeds,
    rx: Receiver<WorkerJob>,
    out: Sender<NodeMsg>,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut core: KeyedNode = KeyedNode::new(me, 16);
    // Reused across dispatches; the per-dispatch outbox is harvested
    // from it before being shipped to the router.
    let mut effects: Vec<Effect> = Vec::new();

    while let Ok(job) = rx.recv() {
        let mut refused = None;
        match job {
            WorkerJob::Acquire(key) => {
                core.request(key, &mut seeds, &mut effects);
            }
            WorkerJob::TryAcquire(key) => {
                // Enters only if the token is parked here, idle: local
                // and free.
                if !core.try_request(key, &mut seeds, &mut effects) {
                    refused = Some(key);
                }
            }
            WorkerJob::Release(key) => {
                core.release(key, &mut effects);
            }
            WorkerJob::Net(msg) => {
                core.deliver(msg, &mut seeds, &mut effects);
            }
            WorkerJob::Snapshot => {
                // The cut point for this worker's shard: every job the
                // router dispatched before the cut has been applied to
                // the table (per-channel FIFO), nothing after it has.
                let cut = core
                    .iter()
                    .map(|(key, inst, _)| KeyCut {
                        key,
                        has_token: inst.has_token(),
                        executing: inst.is_executing(),
                        requesting: inst.is_requesting(),
                    })
                    .collect();
                let _ = out.send(NodeMsg::WorkerCut(cut));
                continue;
            }
            WorkerJob::Shutdown => break,
        }
        let mut sends = Vec::with_capacity(effects.len());
        let mut entered = None;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    match msg.msg {
                        DagMessage::Request { .. } => stats.requests_sent += 1,
                        DagMessage::Privilege => stats.privileges_sent += 1,
                        DagMessage::Initialize => {}
                    }
                    sends.push((to, msg));
                }
                Effect::Enter(key) => entered = Some(key),
            }
        }
        // The reply can only fail during shutdown, when the router no
        // longer merges.
        let _ = out.send(NodeMsg::Worker(WorkerOut {
            sends,
            entered,
            refused,
        }));
    }
    stats.keys_materialized = core.len();
    stats
}

/// One node's router: fans keyed traffic out to the per-shard workers,
/// merges their outboxes into the shared [`Transport`], flushes pooled
/// envelopes to the peers when the flush policy's cap is hit or the
/// inbox goes idle, and resolves local grants through the shared
/// [`PendingSet`] pending/abandon machine.
fn router_main(
    me: NodeId,
    n: usize,
    flush: FlushPolicy,
    rx: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    worker_txs: Vec<Sender<WorkerJob>>,
    worker_joins: Vec<JoinHandle<WorkerStats>>,
) -> LockSpaceNodeStats {
    let mut stats = LockSpaceNodeStats::default();
    let mut transport = Transport::new(n, flush);
    let mut pool = BatchPool::new();
    // The local user's outstanding acquisitions (waiting or abandoned),
    // across the whole key space — the same machine the single-lock
    // node loop runs for its one key.
    let mut pending = PendingSet::new();
    // The one outstanding try-acquisition, if any (the client is
    // `&mut`-serialized, so there is never more than one).
    let mut trying: Option<(LockId, Sender<Reply>)> = None;
    // Keys the local user currently holds (granted, not yet released);
    // lock_many holds several at once.
    let mut held: Vec<LockId> = Vec::new();
    // Jobs dispatched to workers whose outboxes have not come back yet:
    // while nonzero, more coalescing material is guaranteed to arrive,
    // so an empty inbox is not yet "idle".
    let mut outstanding = 0usize;
    // Worker outboxes merged since the last flush (the tickless
    // analogue of the simulator's coalescing window).
    let mut bursts = 0u64;
    // The in-progress Chandy–Lamport cut, if any.
    let mut cut: Option<CutState> = None;
    // Inputs deferred during a cut's drain phase, consumed ahead of the
    // inbox so channel order is preserved.
    let mut replay: VecDeque<Input> = VecDeque::new();

    let workers = worker_txs.len();
    let worker_for = |key: LockId| key.index() % workers;

    macro_rules! flush_transport {
        () => {
            transport.flush(&mut pool, |to, envelope| {
                stats.envelopes_sent += 1;
                // A send can only fail during shutdown, when the
                // counters no longer matter.
                let _ =
                    peers[to.index()].send(NodeMsg::External(Input::Net { from: me, envelope }));
            });
            bursts = 0;
        };
    }

    macro_rules! dispatch {
        ($key:expr, $job:expr) => {
            let _ = worker_txs[worker_for($key)].send($job);
            outstanding += 1;
        };
    }

    // Opens a cut: ask every worker for its table slice at its current
    // queue position; the drain phase runs until all slices are back.
    macro_rules! start_cut {
        () => {{
            for tx in &worker_txs {
                let _ = tx.send(WorkerJob::Snapshot);
            }
            CutState {
                reply: None,
                workers_left: workers,
                marker_seen: vec![false; n],
                markers_left: n - 1,
                markers_sent: false,
                keys: Vec::new(),
                held: Vec::new(),
                pending: Vec::new(),
                staged: Vec::new(),
                recording: vec![Vec::new(); n],
                deferred: Vec::new(),
            }
        }};
    }

    // Ships the node's slice once the cut is complete: markers out,
    // every peer's marker in, and the local reply channel attached.
    macro_rules! finish_cut {
        () => {
            if cut
                .as_ref()
                .is_some_and(|c| c.markers_sent && c.markers_left == 0 && c.reply.is_some())
            {
                let mut c = cut.take().expect("checked above");
                c.keys.sort_by_key(|k| k.key);
                let _ = c.reply.expect("checked above").send(NodeCut {
                    node: me,
                    keys: c.keys,
                    held: c.held,
                    pending: c.pending,
                    staged: c.staged,
                    in_flight: c.recording,
                });
            }
        };
    }

    loop {
        // Deferred inputs replay ahead of the inbox; otherwise block
        // only when the transport is empty or workers still owe
        // outboxes, and flush the moment the inbox goes idle.
        let msg = if let Some(input) = replay.pop_front() {
            NodeMsg::External(input)
        } else if transport.staged() > 0 && outstanding == 0 {
            match rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    flush_transport!();
                    continue;
                }
                Err(TryRecvError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            }
        };
        // Drain phase: park external inputs until the workers' cut
        // slices are in — dispatching (or even resolving) them now
        // could stage a post-cut send into the about-to-be-captured
        // transport and double-count a token.
        let msg = match (&mut cut, msg) {
            (Some(c), NodeMsg::External(input)) if !c.markers_sent => {
                c.deferred.push(input);
                continue;
            }
            (_, msg) => msg,
        };
        match msg {
            NodeMsg::External(Input::Acquire(key, ack)) => match pending.acquire(key, ack) {
                // An abandoned request for this key is still in
                // flight; the new acquisition adopts it silently.
                AcquireAction::Adopted => {}
                AcquireAction::Issue => {
                    dispatch!(key, WorkerJob::Acquire(key));
                }
            },
            NodeMsg::External(Input::TryAcquire(key, ack)) => {
                debug_assert!(trying.is_none(), "second outstanding try");
                if pending.is_engaged(key) {
                    // An abandoned request is in flight: the token is
                    // not here (a requesting node never holds it).
                    let _ = ack.send(Reply::Unavailable);
                } else {
                    trying = Some((key, ack));
                    dispatch!(key, WorkerJob::TryAcquire(key));
                }
            }
            NodeMsg::External(Input::Release(key)) => {
                held.retain(|&k| k != key);
                dispatch!(key, WorkerJob::Release(key));
            }
            NodeMsg::External(Input::Abandon(key)) => {
                match pending.abandon(key, held.contains(&key)) {
                    AbandonAction::Marked | AbandonAction::Stale => {}
                    // Race: the grant was already delivered but the
                    // user timed out anyway — release immediately.
                    AbandonAction::ReleaseNow => {
                        stats.abandoned += 1;
                        held.retain(|&k| k != key);
                        dispatch!(key, WorkerJob::Release(key));
                    }
                }
            }
            NodeMsg::External(Input::Net { from, envelope }) => {
                if let Some(c) = cut.as_mut() {
                    // Post-cut, pre-marker traffic on this channel is
                    // exactly the in-flight state the cut must record.
                    if !c.marker_seen[from.index()] {
                        match &envelope {
                            Envelope::One(msg) => c.recording[from.index()].push(*msg),
                            Envelope::Batch(batch) => {
                                c.recording[from.index()].extend(batch.iter().copied());
                            }
                        }
                    }
                }
                match envelope {
                    Envelope::One(msg) => {
                        dispatch!(msg.lock, WorkerJob::Net(msg));
                    }
                    Envelope::Batch(mut batch) => {
                        for msg in batch.drain(..) {
                            dispatch!(msg.lock, WorkerJob::Net(msg));
                        }
                        // The drained payload joins this node's own pool:
                        // cross-node buffer recycling.
                        pool.put(batch);
                    }
                }
            }
            NodeMsg::External(Input::Snapshot { reply }) => {
                if cut.is_none() {
                    cut = Some(start_cut!());
                }
                cut.as_mut().expect("just opened").reply = Some(reply);
                finish_cut!();
            }
            NodeMsg::External(Input::Marker { from }) => {
                if cut.is_none() {
                    // A peer's marker reached us before the local
                    // snapshot request: its arrival is our cut point,
                    // and that channel records nothing.
                    cut = Some(start_cut!());
                }
                let c = cut.as_mut().expect("just opened");
                if !c.marker_seen[from.index()] {
                    c.marker_seen[from.index()] = true;
                    c.markers_left -= 1;
                }
                finish_cut!();
            }
            NodeMsg::External(Input::Shutdown) => break,
            NodeMsg::Worker(WorkerOut {
                sends,
                entered,
                refused,
            }) => {
                outstanding -= 1;
                for (to, keyed) in sends {
                    transport.stage(to, keyed);
                }
                // Every merged outbox counts toward the cap — including
                // send-less ones — so a busy stretch of absorbing
                // dispatches cannot freeze the counter and hold an
                // already-staged envelope past the policy's bound.
                bursts += 1;
                if let Some(key) = refused {
                    match trying.take() {
                        Some((wanted, ack)) => {
                            assert_eq!(wanted, key, "try refusal for the wrong key");
                            let _ = ack.send(Reply::Unavailable);
                        }
                        None => unreachable!("node {me}: try refusal with no try outstanding"),
                    }
                }
                if let Some(key) = entered {
                    if trying.as_ref().is_some_and(|(k, _)| *k == key) {
                        let (_, ack) = trying.take().expect("checked above");
                        stats.entries += 1;
                        held.push(key);
                        let _ = ack.send(Reply::Granted);
                    } else {
                        match pending.grant(key) {
                            GrantAction::Deliver(ack) => {
                                stats.entries += 1;
                                held.push(key);
                                let _ = ack.send(Reply::Granted);
                            }
                            GrantAction::AutoRelease => {
                                // The waiter abandoned: bounce the
                                // privilege straight back out — unless a
                                // cut is draining, in which case the
                                // bounce is post-cut work and must wait
                                // with the other deferred inputs.
                                stats.abandoned += 1;
                                match cut.as_mut().filter(|c| !c.markers_sent) {
                                    Some(c) => c.deferred.push(Input::Release(key)),
                                    None => {
                                        dispatch!(key, WorkerJob::Release(key));
                                    }
                                }
                            }
                        }
                    }
                }
                if transport.staged() > 0 && transport.burst_cap_reached(bursts) {
                    flush_transport!();
                }
            }
            NodeMsg::WorkerCut(mut keys) => {
                let drained = {
                    let c = cut.as_mut().expect("worker cut without an active cut");
                    c.keys.append(&mut keys);
                    c.workers_left -= 1;
                    c.workers_left == 0
                };
                if drained {
                    // Every pre-cut job's outbox is merged (worker out
                    // channels are FIFO), so table slices, user state,
                    // and transport staging now describe one frontier:
                    // capture it, send the markers, and let the parked
                    // inputs replay as post-cut traffic.
                    let c = cut.as_mut().expect("still active");
                    c.held = held.clone();
                    pending.for_each_engaged(|key, abandoned| c.pending.push((key, abandoned)));
                    transport.for_each_staged(|to, msg| c.staged.push((to, *msg)));
                    for (p, peer) in peers.iter().enumerate() {
                        if p != me.index() {
                            let _ = peer.send(NodeMsg::External(Input::Marker { from: me }));
                        }
                    }
                    c.markers_sent = true;
                    debug_assert!(replay.is_empty(), "two cuts draining at once");
                    replay.extend(c.deferred.drain(..));
                    finish_cut!();
                }
            }
        }
    }

    for tx in &worker_txs {
        let _ = tx.send(WorkerJob::Shutdown);
    }
    for join in worker_joins {
        let ws = join.join().expect("lock-space worker thread panicked");
        stats.requests_sent += ws.requests_sent;
        stats.privileges_sent += ws.privileges_sent;
        stats.keys_materialized += ws.keys_materialized;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn distinct_keys_are_held_concurrently_across_nodes() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 8, Placement::Hub(NodeId(0)));
        let barrier = Arc::new(Barrier::new(2));
        let mut workers = Vec::new();
        for (i, mut client) in clients.into_iter().enumerate().skip(1) {
            let barrier = Arc::clone(&barrier);
            workers.push(std::thread::spawn(move || {
                let guard = client.lock(LockId(i as u32)).wait().unwrap();
                assert_eq!(guard.key(), LockId(i as u32));
                // Both nodes are inside *different* keys' critical
                // sections right now — rendezvous proves the overlap.
                barrier.wait();
                drop(guard);
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn same_key_is_mutually_exclusive_under_contention() {
        let n = 4;
        let (cluster, clients) = LockSpaceCluster::start(&Tree::star(n), 4, Placement::Modulo);
        let in_cs = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for mut client in clients {
            let in_cs = Arc::clone(&in_cs);
            let counter = Arc::clone(&counter);
            workers.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let guard = client.lock(LockId(2)).wait().unwrap();
                    assert!(
                        !in_cs.swap(true, Ordering::SeqCst),
                        "two nodes inside key 2's critical section"
                    );
                    counter.fetch_add(1, Ordering::Relaxed);
                    in_cs.store(false, Ordering::SeqCst);
                    drop(guard);
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 25 * n as u64);
        assert_eq!(stats.entries, 25 * n as u64);
    }

    #[test]
    fn sharded_workers_preserve_mutual_exclusion_under_contention() {
        // The same contention battery, but with real per-shard worker
        // parallelism and a coalescing window on every node.
        let n = 4;
        let config = LockSpaceClusterConfig {
            keys: 8,
            placement: Placement::Modulo,
            workers: 4,
            flush: FlushPolicy::Window(4),
        };
        let (cluster, clients) = LockSpaceCluster::start_with(&Tree::star(n), config);
        let in_cs = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for mut client in clients {
            let in_cs = Arc::clone(&in_cs);
            workers.push(std::thread::spawn(move || {
                for round in 0..25u32 {
                    // Same hot key for everyone, plus a private key to
                    // keep the shards busy across workers.
                    let guard = client.lock(LockId(5)).wait().unwrap();
                    assert!(
                        !in_cs.swap(true, Ordering::SeqCst),
                        "two nodes inside key 5's critical section"
                    );
                    in_cs.store(false, Ordering::SeqCst);
                    drop(guard);
                    let private = LockId(round % 8);
                    drop(client.lock(private).wait().unwrap());
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2 * 25 * n as u64);
        // The transport really coalesced: never more envelopes than
        // keyed messages, and the counters are self-consistent.
        assert!(stats.envelopes_total <= stats.messages_total);
        assert!(stats.envelopes_total > 0);
    }

    #[test]
    fn token_parks_per_key_making_reentry_free() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 16, Placement::Hub(NodeId(0)));
        for _ in 0..10 {
            drop(clients[2].lock(LockId(7)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 10);
        // First acquisition walks the line (2 REQUESTs + 1 PRIVILEGE);
        // the other nine are free — key 7's token parked at node 2.
        assert_eq!(stats.messages_total, 3);
        // Lone messages ride One envelopes: 3 envelopes too.
        assert_eq!(stats.envelopes_total, 3);
        // Only key 7 ever materialized anywhere.
        assert!(stats.per_node.iter().all(|s| s.keys_materialized <= 1));
    }

    #[test]
    fn one_node_serves_many_keys_sequentially() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::star(4), 32, Placement::Modulo);
        for k in 0..32u32 {
            let guard = clients[1].lock(LockId(k)).wait().unwrap();
            assert_eq!(guard.node(), NodeId(1));
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.node(NodeId(1)).entries, 32);
        // Node 1 materialized every key it touched.
        assert_eq!(stats.node(NodeId(1)).keys_materialized, 32);
    }

    #[test]
    fn lock_after_shutdown_errors() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::line(2), 2, Placement::Modulo);
        cluster.shutdown();
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }

    #[test]
    fn explicit_unlock_equals_drop() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(2), 4, Placement::Hub(NodeId(1)));
        let guard = clients[0].lock(LockId(3)).wait().unwrap();
        guard.unlock();
        let again = clients[0].lock(LockId(3)).wait().unwrap();
        drop(again);
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn keyed_timeout_times_out_while_contended_then_autoreleases() {
        // The API-gap fix the redesign started from: lock-space clients
        // now have the same timeout/abandon machinery the single-lock
        // cluster always had.
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 4, Placement::Hub(NodeId(1)));
        let mut it = clients.into_iter();
        let _c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();
        let mut c2 = it.next().unwrap();

        let guard = c1.lock(LockId(2)).wait().unwrap();
        assert_eq!(
            c2.lock(LockId(2))
                .timeout(Duration::from_millis(30))
                .unwrap_err(),
            LockError::Timeout,
            "must time out while key 2 is held"
        );
        // A *different* key is still instantly available to the same
        // client — the abandoned request only poisons its own key.
        drop(c2.lock(LockId(3)).timeout(Duration::from_secs(5)).unwrap());
        drop(guard); // key 2's token travels to node 2, which auto-releases

        // Node 1 can reacquire key 2: the abandoned grant did not wedge
        // its token.
        let again = c1.lock(LockId(2)).timeout(Duration::from_secs(5));
        assert!(again.is_ok());
        drop(again);
        drop(c1);
        drop(c2);
        let stats = cluster.shutdown();
        assert_eq!(stats.node(NodeId(2)).abandoned, 1);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn keyed_acquire_adopts_abandoned_request() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::line(2), 8, Placement::Hub(NodeId(0)));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();

        let guard = c0.lock(LockId(5)).wait().unwrap();
        assert_eq!(
            c1.lock(LockId(5))
                .timeout(Duration::from_millis(20))
                .unwrap_err(),
            LockError::Timeout
        );

        let waiter = std::thread::spawn(move || {
            let g = c1.lock(LockId(5)).wait().unwrap();
            drop(g);
            c1
        });
        std::thread::sleep(Duration::from_millis(60));
        drop(guard);
        let c1 = waiter.join().unwrap();

        drop(c0);
        drop(c1);
        let stats = cluster.shutdown();
        // One keyed REQUEST covered both acquisition attempts.
        assert_eq!(stats.node(NodeId(1)).requests_sent, 1);
        assert_eq!(stats.node(NodeId(1)).abandoned, 0);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn try_now_is_free_and_key_local() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 8, Placement::Hub(NodeId(2)));
        // All hubs at node 2: node 0's try fails without any traffic.
        assert_eq!(
            clients[0].lock(LockId(1)).try_now().unwrap_err(),
            LockError::WouldBlock
        );
        {
            let guard = clients[2].lock(LockId(1)).try_now().unwrap();
            assert_eq!(guard.key(), LockId(1));
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.messages_total, 0, "try never sends messages");
    }

    #[test]
    fn lock_many_acquires_in_sorted_order_and_releases_all() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::star(4), 16, Placement::Modulo);
        {
            let guard = clients[1]
                .lock_many(&[LockId(9), LockId(2), LockId(9), LockId(4)])
                .wait()
                .unwrap();
            assert_eq!(guard.keys(), &[LockId(2), LockId(4), LockId(9)]);
        }
        // Everything released: each key is instantly reacquirable.
        for k in [2u32, 4, 9] {
            drop(
                clients[1]
                    .lock(LockId(k))
                    .timeout(Duration::from_secs(5))
                    .unwrap(),
            );
        }
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 6);
    }

    #[test]
    fn lock_many_timeout_rolls_back_already_acquired_keys() {
        let (cluster, clients) =
            LockSpaceCluster::start(&Tree::star(3), 8, Placement::Hub(NodeId(1)));
        let mut it = clients.into_iter();
        let mut c0 = it.next().unwrap();
        let mut c1 = it.next().unwrap();
        let mut c2 = it.next().unwrap();

        // Node 1 holds key 6; node 2's multi-acquisition of {3, 6} gets
        // key 3, stalls on key 6, times out, and must give key 3 back.
        let guard = c1.lock(LockId(6)).wait().unwrap();
        assert_eq!(
            c2.lock_many(&[LockId(3), LockId(6)])
                .timeout(Duration::from_millis(40))
                .unwrap_err(),
            LockError::Timeout
        );
        // Key 3 is free again: node 0 can take it immediately.
        drop(
            c0.lock_many(&[LockId(3)])
                .timeout(Duration::from_secs(5))
                .unwrap(),
        );
        drop(guard);
        // Reacquiring key 6 from node 1 serializes behind node 2's
        // auto-release bounce: by the time this grant arrives, the
        // abandoned privilege has demonstrably come and gone.
        drop(c1.lock(LockId(6)).timeout(Duration::from_secs(5)).unwrap());
        drop(c0);
        drop(c1);
        drop(c2);
        let stats = cluster.shutdown();
        // Key 6's abandoned privilege eventually reached node 2 and
        // bounced (abandoned), leaving the space clean.
        let abandoned: u64 = stats.per_node.iter().map(|s| s.abandoned).sum();
        assert_eq!(abandoned, 1);
    }

    #[test]
    fn lock_many_try_now_rolls_back_on_first_remote_key() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::line(2), 8, Placement::Modulo);
        // Keys 0, 2, 4 are hubbed at node 0; key 1 at node 1. A try for
        // {0, 1, 2} takes 0, refuses at 1, and must give 0 back.
        assert_eq!(
            clients[0]
                .lock_many(&[LockId(0), LockId(1), LockId(2)])
                .try_now()
                .unwrap_err(),
            LockError::WouldBlock
        );
        // Key 0 was rolled back: node 1 can lock it (proves no orphan).
        drop(
            clients[1]
                .lock(LockId(0))
                .timeout(Duration::from_secs(5))
                .unwrap(),
        );
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn snapshot_of_quiescent_space_passes_the_oracle() {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::line(3), 16, Placement::Hub(NodeId(0)));
        // Pull key 7's token to node 2, then hold key 3 there while the
        // cut is taken.
        drop(clients[2].lock(LockId(7)).wait().unwrap());
        let guard = clients[2].lock(LockId(3)).wait().unwrap();

        let snapshot = cluster.snapshot();
        let summary = snapshot.verify().expect("quiescent cut is consistent");
        assert_eq!(snapshot.nodes(), 3);
        assert_eq!(snapshot.keys(), 16);
        // Nothing is moving: no staged or recorded traffic anywhere.
        assert_eq!(snapshot.in_flight_messages(), 0);
        assert_eq!(summary.executing, 1);
        // Keys 7 and 3 materialized away from their hub; 14 never left.
        assert_eq!(summary.implicit_tokens, 14);
        let node2 = &snapshot.cuts()[2];
        assert_eq!(node2.held, vec![LockId(3)]);
        assert!(node2
            .keys
            .iter()
            .any(|kc| kc.key == LockId(7) && kc.has_token && !kc.executing));

        drop(guard);
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn snapshot_mid_storm_is_consistent_without_pausing_traffic() {
        let n = 4;
        let config = LockSpaceClusterConfig {
            keys: 8,
            placement: Placement::Modulo,
            workers: 2,
            flush: FlushPolicy::Window(4),
        };
        let (cluster, clients) = LockSpaceCluster::start_with(&Tree::star(n), config);
        let mut workers = Vec::new();
        for (i, mut client) in clients.into_iter().enumerate() {
            workers.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let key = LockId((round.wrapping_mul(7).wrapping_add(i as u32)) % 8);
                    drop(client.lock(key).wait().unwrap());
                }
            }));
        }
        // Cuts race the storm: every one must still be consistent, and
        // the storm keeps running through every capture.
        for _ in 0..10 {
            let snapshot = cluster.snapshot();
            let summary = snapshot.verify().expect("mid-storm cut is consistent");
            assert_eq!(
                summary.tokens_in_tables + summary.implicit_tokens + summary.privileges_in_flight,
                8,
                "exactly one privilege per key"
            );
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 200 * n as u64);
    }

    #[test]
    fn single_lock_backends_have_no_online_snapshot() {
        let (cluster, _clients) = crate::Cluster::start(&Tree::line(2), NodeId(0));
        assert!(LockService::snapshot(&cluster).is_none());
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "Window needs >= 1 tick")]
    fn zero_tick_window_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            flush: FlushPolicy::Window(0),
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            workers: 0,
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "placement profile must name at least one hub")]
    fn empty_profile_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            placement: Placement::Profile(Arc::new(Vec::new())),
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "profile hub n5 out of range for 2 nodes")]
    fn out_of_range_profile_hub_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 4,
            placement: Placement::Profile(Arc::new(vec![NodeId(0), NodeId(5)])),
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_is_rejected_at_cluster_start() {
        let config = LockSpaceClusterConfig {
            keys: 0,
            ..LockSpaceClusterConfig::default()
        };
        let _ = LockSpaceCluster::start_with(&Tree::line(2), config);
    }
}
