//! The multi-lock service over real threads: a [`LockSpaceCluster`]
//! serves the same keyed-lock API the simulated `dmx-lockspace`
//! subsystem exposes — with per-shard thread parallelism, the same
//! coalescing transport the simulator runs, and the same unified
//! [`LockClient`] every other backend hands out (try/timeout/deadline
//! and deadlock-free [`lock_many`](LockClient::lock_many) included).
//!
//! Each node is one **shard thread** per
//! [`LockSpaceClusterConfig::workers`] (one by default). Shard `w`
//! serves the keys with `k % workers == w` and owns everything they
//! need:
//!
//! * a [`KeyedNode`] core — the same keyed core every other driver in
//!   the workspace runs (the simulated lock space, the session executor,
//!   and the parallel engine's shards);
//! * a [`Transport`] and its [`BatchPool`] — `dmx-lockspace`'s
//!   coalescing layer, the identical grouping code the simulated
//!   `LockSpace` flushes through;
//! * the shared [`PendingSet`](crate::service) pending/abandon machine
//!   and the keys its local user holds, so timeouts, abandonment
//!   (release-on-grant; the paper has no cancel message), and request
//!   adoption behave identically on every backend;
//! * its part of an in-progress Chandy–Lamport cut (see
//!   [`crate::snapshot`]).
//!
//! The thread applies each input — a client call or a peer's envelope —
//! inline, stages the sends it produced, and flushes one envelope per
//! destination when the [`FlushPolicy`]'s cap is hit or the inbox goes
//! idle. Shard `w` only ever talks to shard `w` of its peers (its keys
//! live nowhere else), so one protocol message costs one channel hop,
//! as in the paper, and a client call costs one round trip. Envelopes
//! therefore group the traffic of one shard, not across a node's
//! shards.
//!
//! The wire carries [`Envelope::One`]/[`Envelope::Batch`]
//! exactly like the simulator's network: a shard forwarding many keys'
//! traffic to the same peer pays one channel send, not one per key.
//! Locking key `k` from node `i` still runs exactly the per-key
//! algorithm the simulator measures: `REQUEST`s hop toward `k`'s sink,
//! the `PRIVILEGE` parks where demand is.
//!
//! Every driver is an adapter over the one core: the core owns the
//! per-key protocol state and its transitions, the adapter owns the
//! I/O (here: the shard's transport and its wire), the clock (none —
//! the threaded runtime is tickless), and the user-side policy (here:
//! the shard's pending/abandon set).
//!
//! The shard loop is the only node loop in this crate. It is generic
//! over its outbound wire: in-process channels here, loopback sockets
//! under [`TcpCluster`]. A single lock is this cluster with one key
//! placed at the initial holder, `Placement::Hub(holder)`, which
//! materializes exactly the paper's initial configuration.
//!
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

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{
    BatchPool, Effect, Envelope, FlushPolicy, KeyedNode, Placement, Seeds, Transport,
};
use dmx_topology::{NodeId, Tree};

use crate::client::LockClient;
use crate::service::{AbandonAction, AcquireAction, GrantAction, LockService, PendingSet, Reply};
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
    /// Shard threads per node; key `k` is served by shard `k % workers`,
    /// a full node loop for its keys that talks only to the same shard
    /// of its peers. With one (the default), each node is one thread.
    pub workers: usize,
    /// How each shard's transport coalesces outgoing traffic. The
    /// threaded runtime has no ticks, so the policy maps to processed
    /// inputs (*bursts*): [`FlushPolicy::EveryTick`] flushes after
    /// every input, [`FlushPolicy::Window`]`(k)` merges up to `k`
    /// inputs' sends, and [`FlushPolicy::Adaptive`] flushes on its
    /// staged-per-destination target — and every policy flushes the
    /// moment the shard's inbox goes idle, so coalescing never stalls a
    /// waiting lock. Envelopes group one shard's traffic only.
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

/// Inputs a shard thread processes.
pub(crate) enum Input {
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
    /// An envelope of keyed protocol messages from the same shard of a
    /// peer.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload: one or many keyed messages.
        envelope: Envelope,
    },
    /// Capture a consistent cut: reply with this shard's slice once the
    /// Chandy–Lamport round completes (all peers' markers received).
    Snapshot {
        /// Where the shard's [`NodeCut`] slice goes.
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

/// How a shard reaches the same shard of its peers: in-process
/// channels ([`Channels`]) or sockets (`tcp::Sockets`). The shard loop
/// is monomorphized over it.
pub(crate) trait Wire: Send + 'static {
    /// Transmits one envelope from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, envelope: Envelope);

    /// Transmits a Chandy–Lamport marker from `from` to `to`, behind
    /// every envelope already sent on that channel.
    fn marker(&mut self, from: NodeId, to: NodeId);
}

/// The in-process wire: the inbox of the same shard of every node,
/// indexed by node.
struct Channels(Vec<Sender<Input>>);

impl Wire for Channels {
    fn send(&mut self, from: NodeId, to: NodeId, envelope: Envelope) {
        // A send can only fail during shutdown, when the counters no
        // longer matter.
        let _ = self.0[to.index()].send(Input::Net { from, envelope });
    }

    fn marker(&mut self, from: NodeId, to: NodeId) {
        let _ = self.0[to.index()].send(Input::Marker { from });
    }
}

/// One shard's in-progress Chandy–Lamport cut. The shard's state was
/// recorded and its markers sent the moment the cut opened; traffic
/// from each peer is then recorded as that channel's in-flight state
/// until the peer's marker arrives.
struct CutState {
    /// Where the slice goes; `None` until the local snapshot request
    /// arrives (a peer's marker may open the cut first).
    reply: Option<Sender<NodeCut>>,
    /// Per-peer: marker received, channel recording closed.
    marker_seen: Vec<bool>,
    /// Peers whose marker is still outstanding.
    markers_left: usize,
    /// The state at the cut point plus the channel recordings so far.
    slice: NodeCut,
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
    /// summed over its shards.
    pub keys_materialized: usize,
}

impl LockSpaceNodeStats {
    /// Adds one shard's counters into its node's.
    fn add(&mut self, shard: LockSpaceNodeStats) {
        self.requests_sent += shard.requests_sent;
        self.privileges_sent += shard.privileges_sent;
        self.envelopes_sent += shard.envelopes_sent;
        self.entries += shard.entries;
        self.abandoned += shard.abandoned;
        self.keys_materialized += shard.keys_materialized;
    }
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

    /// Mean keyed messages per critical-section entry across the run.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmx_runtime::LockSpaceStats;
    /// assert_eq!(LockSpaceStats::default().messages_per_entry(), 0.0);
    /// ```
    pub fn messages_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.messages_total as f64 / self.entries as f64
        }
    }
}

/// A running multi-lock cluster: per tree node, one shard thread per
/// [`workers`](LockSpaceClusterConfig::workers), each hosting its
/// shard's per-key DAG instances. Obtain per-node [`LockClient`]s from
/// [`LockSpaceCluster::start`] (or
/// [`start_with`](LockSpaceCluster::start_with) for shard/flush
/// control) and call [`shutdown`](LockSpaceCluster::shutdown) when
/// done; dropping the cluster stops its threads too.
#[derive(Debug)]
pub struct LockSpaceCluster {
    keys: u32,
    placement: Placement,
    workers: usize,
    /// Shard inboxes, node-major: shard `w` of node `i` sits at
    /// `i * workers + w`.
    txs: Vec<Sender<Input>>,
    joins: Vec<JoinHandle<LockSpaceNodeStats>>,
}

impl LockSpaceCluster {
    /// Spawns one thread per node of `tree` serving `keys` locks
    /// placed per `placement` (one shard per node, every-input
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

    /// [`LockSpaceCluster::start`] with explicit shard parallelism and
    /// flush policy: `n × workers` threads in all.
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
        let workers = config.workers;
        LockSpaceCluster::spawn(tree, config, |t, txs| {
            let n = txs.len() / workers;
            Channels(
                (0..n)
                    .map(|p| txs[p * workers + t % workers].clone())
                    .collect(),
            )
        })
    }

    /// Validates `config` and spawns its `n × workers` shard threads;
    /// shard `t` (node-major) reaches its peers over `wire(t, inboxes)`.
    pub(crate) fn spawn<W: Wire>(
        tree: &Tree,
        config: LockSpaceClusterConfig,
        mut wire: impl FnMut(usize, &[Sender<Input>]) -> W,
    ) -> (LockSpaceCluster, Vec<LockClient>) {
        assert!(config.keys > 0, "lock space needs at least one key");
        assert!(config.workers > 0, "lock space needs at least one worker");
        config.flush.validate();
        let n = tree.len();
        let workers = config.workers;
        config.placement.validate(n);
        // Each shard's seeds lazily cache the orientations of the hubs
        // it actually touches (computing one up front per node would
        // cost O(n²) before the first lock is served); only the tree
        // itself is shared.
        let tree = Arc::new(tree.clone());

        let (txs, rxs): (Vec<Sender<Input>>, Vec<Receiver<Input>>) =
            (0..n * workers).map(|_| unbounded()).unzip();
        let joins = rxs
            .into_iter()
            .enumerate()
            .map(|(t, rx)| {
                let me = NodeId::from_index(t / workers);
                let shard = Shard {
                    core: KeyedNode::new(me, 16),
                    seeds: Seeds::new(Arc::clone(&tree), config.placement.clone()),
                    effects: Vec::new(),
                    transport: Transport::new(n, config.flush),
                    pool: BatchPool::new(),
                    bursts: 0,
                    pending: PendingSet::new(),
                    held: Vec::new(),
                    n,
                    wire: wire(t, &txs),
                    cut: None,
                    stats: LockSpaceNodeStats::default(),
                };
                std::thread::spawn(move || shard.run(rx))
            })
            .collect();

        let clients = txs
            .chunks(workers)
            .enumerate()
            .map(|(i, shards)| LockClient::new(NodeId::from_index(i), config.keys, shards.to_vec()))
            .collect();
        (
            LockSpaceCluster {
                keys: config.keys,
                placement: config.placement,
                workers,
                txs,
                joins,
            },
            clients,
        )
    }

    /// The shard inboxes, node-major: shard `w` of node `i` sits at
    /// `i * workers + w`.
    pub(crate) fn inboxes(&self) -> &[Sender<Input>] {
        &self.txs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.txs.len() / self.workers
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
    /// Every shard thread is asked at once, so whichever reaches it
    /// first — this request or a peer's marker — triggers its cut, and
    /// the slices still compose into one consistent global state; a
    /// node's shard slices merge into its one [`NodeCut`]. Lock traffic
    /// keeps flowing the whole time.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread has died (panicked) before or during
    /// the cut.
    pub fn snapshot(&self) -> LockSpaceSnapshot {
        let (reply, slices) = unbounded();
        for tx in &self.txs {
            let sent = tx.send(Input::Snapshot {
                reply: reply.clone(),
            });
            assert!(sent.is_ok(), "snapshot of a stopped cluster");
        }
        drop(reply);
        let mut cuts: Vec<Option<NodeCut>> = vec![None; self.len()];
        for _ in 0..self.txs.len() {
            let slice = slices.recv().expect("cut interrupted by shutdown");
            match &mut cuts[slice.node.index()] {
                Some(cut) => cut.merge(slice),
                empty => *empty = Some(slice),
            }
        }
        let cuts = cuts
            .into_iter()
            .flatten()
            .map(|mut cut| {
                cut.keys.sort_by_key(|k| k.key);
                cut
            })
            .collect();
        LockSpaceSnapshot::new(self.keys, self.placement.clone(), cuts)
    }

    /// Stops every shard thread and returns the aggregated counters.
    pub fn shutdown(mut self) -> LockSpaceStats {
        let mut per_node = vec![LockSpaceNodeStats::default(); self.len()];
        for (t, shard) in self.stop().into_iter().enumerate() {
            per_node[t / self.workers].add(shard.expect("lock-space shard thread panicked"));
        }
        LockSpaceStats::from_nodes(per_node)
    }

    /// Sends every shard [`Input::Shutdown`] and joins it: each shard
    /// holds a sender to its own inbox, so none would stop on its own.
    fn stop(&mut self) -> Vec<std::thread::Result<LockSpaceNodeStats>> {
        for tx in &self.txs {
            let _ = tx.send(Input::Shutdown);
        }
        self.joins.drain(..).map(JoinHandle::join).collect()
    }
}

impl Drop for LockSpaceCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

impl LockService for LockSpaceCluster {
    fn len(&self) -> usize {
        LockSpaceCluster::len(self)
    }

    fn keys(&self) -> u32 {
        LockSpaceCluster::keys(self)
    }

    fn snapshot(&self) -> LockSpaceSnapshot {
        LockSpaceCluster::snapshot(self)
    }

    fn shutdown(self) -> LockSpaceStats {
        LockSpaceCluster::shutdown(self)
    }
}

/// One shard thread: a full node loop for the keys hashed to it,
/// sending over the wire `W`.
struct Shard<W> {
    core: KeyedNode,
    seeds: Seeds,
    /// The core's output, reused across inputs.
    effects: Vec<Effect>,
    transport: Transport,
    pool: BatchPool,
    /// Inputs processed since the last flush (the tickless analogue of
    /// the simulator's coalescing window).
    bursts: u64,
    /// The local user's outstanding acquisitions (waiting or abandoned)
    /// for this shard's keys.
    pending: PendingSet,
    /// Keys the local user currently holds (granted, not yet released);
    /// `lock_many` holds several at once.
    held: Vec<LockId>,
    /// Number of nodes.
    n: usize,
    /// The way to the same shard of every node.
    wire: W,
    /// The in-progress Chandy–Lamport cut, if any.
    cut: Option<CutState>,
    stats: LockSpaceNodeStats,
}

impl<W: Wire> Shard<W> {
    fn run(mut self, rx: Receiver<Input>) -> LockSpaceNodeStats {
        loop {
            // Block only while nothing is staged; otherwise flush the
            // moment the inbox goes idle.
            let input = if self.transport.staged() > 0 {
                match rx.try_recv() {
                    Ok(input) => input,
                    Err(TryRecvError::Empty) => {
                        self.flush();
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            } else {
                match rx.recv() {
                    Ok(input) => input,
                    Err(_) => break,
                }
            };
            if !self.apply(input) {
                break;
            }
            // Every input counts toward the cap — including send-less
            // ones — so a busy stretch of absorbing inputs cannot hold
            // an already-staged envelope past the policy's bound.
            self.bursts += 1;
            if self.transport.staged() > 0 && self.transport.burst_cap_reached(self.bursts) {
                self.flush();
            }
        }
        self.stats.keys_materialized = self.core.len();
        self.stats
    }

    /// Applies one input inline; `false` on [`Input::Shutdown`].
    fn apply(&mut self, input: Input) -> bool {
        match input {
            Input::Acquire(key, ack) => match self.pending.acquire(key, ack) {
                // An abandoned request for this key is still in
                // flight; the new acquisition adopts it silently.
                AcquireAction::Adopted => {}
                AcquireAction::Issue => {
                    self.core.request(key, &mut self.seeds, &mut self.effects);
                    self.settle();
                }
            },
            Input::TryAcquire(key, ack) => {
                // Enters only if the token is parked here, idle. An
                // abandoned request in flight means it is not (a
                // requesting node never holds it).
                let granted = !self.pending.is_engaged(key)
                    && self
                        .core
                        .try_request(key, &mut self.seeds, &mut self.effects);
                // A try never sends: its only effect is the entry.
                self.effects.clear();
                let reply = if granted {
                    self.stats.entries += 1;
                    self.held.push(key);
                    Reply::Granted
                } else {
                    Reply::Unavailable
                };
                let _ = ack.send(reply);
            }
            Input::Release(key) => self.release(key),
            Input::Abandon(key) => match self.pending.abandon(key, self.held.contains(&key)) {
                AbandonAction::Marked | AbandonAction::Stale => {}
                // Race: the grant was already delivered but the user
                // timed out anyway — release immediately.
                AbandonAction::ReleaseNow => {
                    self.stats.abandoned += 1;
                    self.release(key);
                }
            },
            Input::Net { from, envelope } => {
                // Post-cut, pre-marker traffic on this channel is
                // exactly the in-flight state the cut must record.
                if let Some(cut) = self.cut.as_mut().filter(|c| !c.marker_seen[from.index()]) {
                    let channel = &mut cut.slice.in_flight[from.index()];
                    match &envelope {
                        Envelope::One(msg) => channel.push(*msg),
                        Envelope::Batch(batch) => channel.extend(batch.iter().copied()),
                    }
                }
                match envelope {
                    Envelope::One(msg) => self.deliver(msg),
                    Envelope::Batch(mut batch) => {
                        for msg in batch.drain(..) {
                            self.deliver(msg);
                        }
                        // The drained payload joins this shard's own
                        // pool: cross-node buffer recycling.
                        self.pool.put(batch);
                    }
                }
            }
            Input::Snapshot { reply } => {
                let mut cut = self.open_cut();
                cut.reply = Some(reply);
                self.settle_cut(cut);
            }
            Input::Marker { from } => {
                // A marker before the local request opens the cut
                // right here, and that channel records nothing.
                let mut cut = self.open_cut();
                if !cut.marker_seen[from.index()] {
                    cut.marker_seen[from.index()] = true;
                    cut.markers_left -= 1;
                }
                self.settle_cut(cut);
            }
            Input::Shutdown => return false,
        }
        true
    }

    fn release(&mut self, key: LockId) {
        self.held.retain(|&k| k != key);
        self.core.release(key, &mut self.effects);
        self.settle();
    }

    fn deliver(&mut self, msg: KeyedDagMessage) {
        self.core.deliver(msg, &mut self.seeds, &mut self.effects);
        self.settle();
    }

    /// Stages the core's sends and resolves its entries through the
    /// pending machine.
    fn settle(&mut self) {
        // Indexed: an auto-release appends its sends while we walk.
        let mut i = 0;
        while let Some(&effect) = self.effects.get(i) {
            i += 1;
            match effect {
                Effect::Send { to, msg } => {
                    match msg.msg {
                        DagMessage::Request { .. } => self.stats.requests_sent += 1,
                        DagMessage::Privilege => self.stats.privileges_sent += 1,
                        DagMessage::Initialize => {}
                    }
                    self.transport.stage(to, msg);
                }
                Effect::Enter(key) => match self.pending.grant(key) {
                    GrantAction::Deliver(ack) => {
                        self.stats.entries += 1;
                        self.held.push(key);
                        let _ = ack.send(Reply::Granted);
                    }
                    // The waiter abandoned: bounce the privilege
                    // straight back out.
                    GrantAction::AutoRelease => {
                        self.stats.abandoned += 1;
                        self.core.release(key, &mut self.effects);
                    }
                },
            }
        }
        self.effects.clear();
    }

    /// Transmits everything staged, one envelope per destination.
    fn flush(&mut self) {
        let (me, wire, stats) = (self.core.id(), &mut self.wire, &mut self.stats);
        self.transport.flush(&mut self.pool, |to, envelope| {
            stats.envelopes_sent += 1;
            wire.send(me, to, envelope);
        });
        self.bursts = 0;
    }

    /// The in-progress cut, or a new one: record this shard's state —
    /// tables, user state, and staged sends all describe the same
    /// moment, since every input is applied inline — then send a
    /// marker to every peer.
    fn open_cut(&mut self) -> CutState {
        if let Some(cut) = self.cut.take() {
            return cut;
        }
        let (me, n) = (self.core.id(), self.n);
        let mut slice = NodeCut {
            node: me,
            keys: self
                .core
                .iter()
                .map(|(key, inst, _)| KeyCut {
                    key,
                    has_token: inst.has_token(),
                    executing: inst.is_executing(),
                    requesting: inst.is_requesting(),
                })
                .collect(),
            held: self.held.clone(),
            pending: Vec::new(),
            staged: Vec::new(),
            in_flight: vec![Vec::new(); n],
        };
        self.pending
            .for_each_engaged(|key, abandoned| slice.pending.push((key, abandoned)));
        self.transport
            .for_each_staged(|to, msg| slice.staged.push((to, *msg)));
        for to in (0..n).map(NodeId::from_index).filter(|&p| p != me) {
            self.wire.marker(me, to);
        }
        CutState {
            reply: None,
            marker_seen: vec![false; n],
            markers_left: n - 1,
            slice,
        }
    }

    /// Ships the slice once the cut is complete — every peer's marker
    /// in and the local reply channel attached — or keeps it open.
    fn settle_cut(&mut self, mut cut: CutState) {
        match cut.reply.take() {
            Some(reply) if cut.markers_left == 0 => {
                let _ = reply.send(cut.slice);
            }
            reply => {
                cut.reply = reply;
                self.cut = Some(cut);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockError;
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
    fn dropping_the_cluster_stops_its_threads() {
        let (cluster, mut clients) = LockSpaceCluster::start(&Tree::line(2), 2, Placement::Modulo);
        drop(cluster);
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
    fn shard_slices_merge_into_one_cut_per_node() {
        let config = LockSpaceClusterConfig {
            keys: 8,
            placement: Placement::Hub(NodeId(0)),
            workers: 2,
            flush: FlushPolicy::EveryTick,
        };
        let (cluster, mut clients) = LockSpaceCluster::start_with(&Tree::line(3), config);
        assert_eq!(cluster.joins.len(), 3 * 2, "one thread per node shard");
        // Keys 3 and 4 live in different shards; node 2 holds both.
        let guard = clients[2]
            .lock_many(&[LockId(3), LockId(4)])
            .wait()
            .unwrap();

        let snapshot = cluster.snapshot();
        let summary = snapshot.verify().expect("sharded cut is consistent");
        assert_eq!(snapshot.nodes(), 3);
        assert_eq!(summary.executing, 2);
        let node2 = &snapshot.cuts()[2];
        assert_eq!(node2.node, NodeId(2));
        let mut held = node2.held.clone();
        held.sort();
        assert_eq!(held, vec![LockId(3), LockId(4)]);
        assert!(node2.keys.windows(2).all(|w| w[0].key < w[1].key));
        assert_eq!(node2.in_flight.len(), 3);

        drop(guard);
        drop(clients);
        cluster.shutdown();
    }

    #[test]
    fn aggregation() {
        let node = |requests_sent, privileges_sent, entries| LockSpaceNodeStats {
            requests_sent,
            privileges_sent,
            entries,
            ..LockSpaceNodeStats::default()
        };
        let stats = LockSpaceStats::from_nodes(vec![node(2, 1, 1), node(0, 1, 2)]);
        assert_eq!(stats.messages_total, 4);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.node(NodeId(1)).privileges_sent, 1);
        assert!((stats.messages_per_entry() - 4.0 / 3.0).abs() < 1e-12);
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

    /// The paper's single lock: one key whose token starts at `holder`.
    mod single_key {
        use super::*;

        fn one_key(tree: &Tree, holder: NodeId) -> (LockSpaceCluster, Vec<LockClient>) {
            LockSpaceCluster::start(tree, 1, Placement::Hub(holder))
        }

        #[test]
        fn lock_round_trip_on_star() {
            let (cluster, mut clients) = one_key(&Tree::star(4), NodeId(0));
            {
                let guard = clients[2].lock(LockId(0)).wait().unwrap();
                assert_eq!(guard.node(), NodeId(2));
                assert_eq!(guard.key(), LockId(0));
            }
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 1);
            // leaf -> center REQUEST, center -> holder? center IS holder here:
            // REQUEST 2->0 then PRIVILEGE 0->2 = 2 messages.
            assert_eq!(stats.messages_total, 2);
        }

        #[test]
        fn token_parks_making_reentry_free() {
            let (cluster, mut clients) = one_key(&Tree::line(3), NodeId(0));
            drop(clients[2].lock(LockId(0)).wait().unwrap());
            {
                // Token is now parked at node 2; further locks cost nothing.
                for _ in 0..10 {
                    drop(clients[2].lock(LockId(0)).wait().unwrap());
                }
            };
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 11);
            // First acquisition: 2 REQUEST hops + 1 PRIVILEGE; then silence.
            assert_eq!(stats.messages_total, 3);
            assert_eq!(stats.node(NodeId(2)).entries, 11);
        }

        #[test]
        fn mutual_exclusion_under_contention() {
            let n = 5;
            let (cluster, clients) = one_key(&Tree::star(n), NodeId(0));
            let in_cs = Arc::new(AtomicBool::new(false));
            let counter = Arc::new(AtomicU64::new(0));
            let mut workers = Vec::new();
            for mut client in clients {
                let in_cs = Arc::clone(&in_cs);
                let counter = Arc::clone(&counter);
                workers.push(std::thread::spawn(move || {
                    for _ in 0..20 {
                        let guard = client.lock(LockId(0)).wait().unwrap();
                        assert!(
                            !in_cs.swap(true, Ordering::SeqCst),
                            "two nodes inside the critical section"
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
            assert_eq!(counter.load(Ordering::Relaxed), 20 * n as u64);
            assert_eq!(stats.entries, 20 * n as u64);
        }

        #[test]
        fn lock_after_shutdown_errors() {
            let (cluster, mut clients) = one_key(&Tree::line(2), NodeId(0));
            cluster.shutdown();
            assert_eq!(
                clients[1].lock(LockId(0)).wait().unwrap_err(),
                LockError::ClusterDown
            );
        }

        #[test]
        fn dropping_the_cluster_stops_its_threads() {
            let (cluster, mut clients) = one_key(&Tree::line(2), NodeId(0));
            drop(cluster);
            assert_eq!(
                clients[1].lock(LockId(0)).wait().unwrap_err(),
                LockError::ClusterDown
            );
        }

        #[test]
        fn explicit_unlock_equals_drop() {
            let (cluster, mut clients) = one_key(&Tree::line(2), NodeId(1));
            let guard = clients[0].lock(LockId(0)).wait().unwrap();
            guard.unlock();
            let _again = clients[0].lock(LockId(0)).wait().unwrap();
            drop(_again);
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 2);
        }

        #[test]
        fn single_node_cluster_is_a_plain_mutex() {
            let (cluster, mut clients) = one_key(&Tree::line(1), NodeId(0));
            for _ in 0..100 {
                drop(clients[0].lock(LockId(0)).wait().unwrap());
            }
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 100);
            assert_eq!(stats.messages_total, 0);
        }

        #[test]
        fn lock_timeout_times_out_while_contended_then_autoreleases() {
            let (cluster, mut clients) = one_key(&Tree::star(3), NodeId(1));
            let (left, right) = clients.split_at_mut(2);
            let c1 = &mut left[1];
            let c2 = &mut right[0];

            let guard = c1.lock(LockId(0)).wait().unwrap();
            // Token is busy at node 1: node 2 gives up after 30ms.
            assert_eq!(
                c2.lock(LockId(0))
                    .timeout(Duration::from_millis(30))
                    .unwrap_err(),
                LockError::Timeout,
                "must time out while the lock is held"
            );
            drop(guard); // token now travels to node 2, which auto-releases

            // Node 1 can reacquire: the abandoned grant did not wedge the token.
            let again = c1.lock(LockId(0)).timeout(Duration::from_secs(5));
            assert!(again.is_ok());
            drop(again);
            drop(clients);
            let stats = cluster.shutdown();
            assert_eq!(stats.node(NodeId(2)).abandoned, 1);
            assert_eq!(stats.entries, 2);
        }

        #[test]
        fn new_lock_adopts_abandoned_request() {
            let (cluster, clients) = one_key(&Tree::line(2), NodeId(0));
            let mut it = clients.into_iter();
            let mut c0 = it.next().unwrap();
            let mut c1 = it.next().unwrap();

            let guard = c0.lock(LockId(0)).wait().unwrap();
            // Node 1's REQUEST goes out, then the user gives up.
            assert_eq!(
                c1.lock(LockId(0))
                    .timeout(Duration::from_millis(20))
                    .unwrap_err(),
                LockError::Timeout
            );

            // Re-acquire from another thread while node 0 still holds: the
            // new acquisition adopts the in-flight request.
            let waiter = std::thread::spawn(move || {
                let g = c1.lock(LockId(0)).wait().unwrap();
                drop(g);
                c1
            });
            // Give the Acquire time to land before the privilege is released.
            std::thread::sleep(Duration::from_millis(60));
            drop(guard);
            let c1 = waiter.join().unwrap();

            drop(c0);
            drop(c1);
            let stats = cluster.shutdown();
            // One REQUEST covered both of node 1's acquisition attempts, and
            // the grant went to the adopting attempt (no abandoned bounce).
            assert_eq!(stats.node(NodeId(1)).requests_sent, 1);
            assert_eq!(stats.node(NodeId(1)).abandoned, 0);
            assert_eq!(stats.entries, 2);
        }

        #[test]
        fn uncontended_lock_timeout_succeeds() {
            let (cluster, mut clients) = one_key(&Tree::star(4), NodeId(0));
            let guard = clients[3].lock(LockId(0)).timeout(Duration::from_secs(5));
            assert!(guard.is_ok());
            drop(guard);
            drop(clients);
            assert_eq!(cluster.shutdown().entries, 1);
        }

        #[test]
        fn try_now_succeeds_only_where_the_token_is() {
            let (cluster, mut clients) = one_key(&Tree::line(3), NodeId(2));
            // The token is at node 2; node 0 cannot take it without waiting,
            // and the refusal costs zero protocol messages.
            assert_eq!(
                clients[0].lock(LockId(0)).try_now().unwrap_err(),
                LockError::WouldBlock
            );
            {
                let guard = clients[2].lock(LockId(0)).try_now().unwrap();
                assert_eq!(guard.node(), NodeId(2));
            }
            drop(clients);
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 1);
            assert_eq!(stats.messages_total, 0, "try never sends messages");
        }

        #[test]
        fn try_now_fails_while_another_node_holds() {
            let (cluster, mut clients) = one_key(&Tree::star(3), NodeId(1));
            let (left, right) = clients.split_at_mut(2);
            let guard = left[1].lock(LockId(0)).wait().unwrap();
            assert_eq!(
                right[0].lock(LockId(0)).try_now().unwrap_err(),
                LockError::WouldBlock
            );
            drop(guard);
            drop(clients);
            assert_eq!(cluster.shutdown().entries, 1);
        }

        #[test]
        fn elapsed_deadline_fails_without_acquiring() {
            let (cluster, mut clients) = one_key(&Tree::line(2), NodeId(0));
            assert_eq!(
                clients[1]
                    .lock(LockId(0))
                    .deadline(std::time::Instant::now())
                    .unwrap_err(),
                LockError::Deadline
            );
            // A generous deadline behaves like wait.
            let guard = clients[1]
                .lock(LockId(0))
                .deadline(std::time::Instant::now() + Duration::from_secs(10));
            assert!(guard.is_ok());
            drop(guard);
            drop(clients);
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 1);
            // The elapsed-deadline attempt sent nothing: only the second
            // acquisition's REQUEST + PRIVILEGE crossed the wire.
            assert_eq!(stats.messages_total, 2);
        }

        #[test]
        fn out_of_range_key_is_rejected_by_the_client() {
            let (cluster, mut clients) = one_key(&Tree::line(2), NodeId(0));
            let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = clients[0].lock(LockId(1));
            }));
            assert!(poisoned.is_err(), "single-lock clusters only serve key 0");
            drop(clients);
            cluster.shutdown();
        }

        #[test]
        fn deep_line_still_serves_everyone() {
            let n = 8;
            let (cluster, clients) = one_key(&Tree::line(n), NodeId(0));
            let mut workers = Vec::new();
            for mut client in clients {
                workers.push(std::thread::spawn(move || {
                    for _ in 0..5 {
                        drop(client.lock(LockId(0)).wait().unwrap());
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
            let stats = cluster.shutdown();
            assert_eq!(stats.entries, 5 * n as u64);
        }
    }
}
