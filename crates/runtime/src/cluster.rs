use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{Effect, KeyedNode, Placement, Seeds};
use dmx_topology::{NodeId, Tree};

use crate::client::{Endpoint, LockClient};
use crate::service::{
    AbandonAction, AcquireAction, GrantAction, LockError, LockService, PendingSet, Reply,
};
use crate::stats::{ClusterStats, NodeStats};

/// Inputs a node thread processes.
pub(crate) enum Input {
    /// Local user wants the critical section; reply on the channel when
    /// the privilege is local.
    Acquire(Sender<Reply>),
    /// Local user wants the critical section only if the token is here
    /// right now; reply [`Reply::Granted`] or [`Reply::Unavailable`]
    /// without ever sending a protocol message.
    TryAcquire(Sender<Reply>),
    /// Local user left the critical section.
    Release,
    /// The user gave up waiting ([`LockRequest::timeout`]). The
    /// in-flight REQUEST cannot be recalled (the paper has no cancel
    /// message), so the node releases the privilege the moment it
    /// arrives — unless a new acquisition adopts the request first.
    ///
    /// [`LockRequest::timeout`]: crate::LockRequest::timeout
    AbandonAcquire,
    /// A protocol message from a peer.
    Net {
        /// Wire sender.
        from: NodeId,
        /// Payload.
        msg: DagMessage,
    },
    /// Stop and report stats.
    Shutdown,
}

/// The single-lock backends' [`Endpoint`]: every client operation maps
/// onto one [`Input`] for the node thread (shared by the channel and
/// TCP clusters, whose node loops are the same [`node_main`]).
pub(crate) struct ClusterEndpoint {
    pub(crate) tx: Sender<Input>,
}

impl Endpoint for ClusterEndpoint {
    fn acquire(&self, _key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        self.tx
            .send(Input::Acquire(ack))
            .map_err(|_| LockError::ClusterDown)
    }

    fn try_acquire(&self, _key: LockId, ack: Sender<Reply>) -> Result<(), LockError> {
        self.tx
            .send(Input::TryAcquire(ack))
            .map_err(|_| LockError::ClusterDown)
    }

    fn abandon(&self, _key: LockId) -> Result<(), LockError> {
        self.tx
            .send(Input::AbandonAcquire)
            .map_err(|_| LockError::ClusterDown)
    }

    fn release(&self, _key: LockId) {
        // If the cluster is already gone there is nobody to notify.
        let _ = self.tx.send(Input::Release);
    }
}

/// A running cluster: one thread per tree node executing the DAG
/// algorithm. Obtain per-node [`LockClient`]s from [`Cluster::start`]
/// and call [`Cluster::shutdown`] when done; dropping the cluster stops
/// its threads too.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct Cluster {
    txs: Vec<Sender<Input>>,
    joins: Vec<JoinHandle<NodeStats>>,
}

impl Cluster {
    /// Spawns one thread per node of `tree`, with the token initially at
    /// `holder`, and returns the cluster plus one [`LockClient`] per
    /// node (index = node id). The single lock is `LockId(0)`.
    ///
    /// # Panics
    ///
    /// Panics if `holder` is out of range.
    pub fn start(tree: &Tree, holder: NodeId) -> (Cluster, Vec<LockClient>) {
        let n = tree.len();
        assert!(holder.index() < n, "holder out of range");
        let seeds = single_key_seeds(tree, holder);

        let channels: Vec<(Sender<Input>, Receiver<Input>)> = (0..n).map(|_| unbounded()).collect();
        let txs: Vec<Sender<Input>> = channels.iter().map(|(tx, _)| tx.clone()).collect();

        let mut joins = Vec::with_capacity(n);
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            let me = NodeId::from_index(i);
            let seeds = seeds.clone();
            let peers = txs.clone();
            let transmit = move |to: NodeId, from: NodeId, msg: DagMessage| {
                // A send can only fail during shutdown, when the
                // counters no longer matter.
                let _ = peers[to.index()].send(Input::Net { from, msg });
            };
            joins.push(std::thread::spawn(move || {
                node_main(me, seeds, rx, transmit)
            }));
        }

        let clients = txs
            .iter()
            .enumerate()
            .map(|(i, tx)| make_client(NodeId::from_index(i), tx.clone()))
            .collect();
        (Cluster { txs, joins }, clients)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`Cluster::len`].
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Stops every node thread and returns the aggregated counters.
    ///
    /// Outstanding [`LockGuard`](crate::LockGuard)s should be dropped
    /// first; a lock request issued after shutdown fails with
    /// [`LockError::ClusterDown`].
    pub fn shutdown(mut self) -> ClusterStats {
        let per_node: Vec<NodeStats> = self
            .stop()
            .into_iter()
            .map(|j| j.expect("node thread panicked"))
            .collect();
        ClusterStats::from_nodes(per_node)
    }

    /// Sends every node [`Input::Shutdown`] and joins it: each node holds
    /// a sender to its own inbox, so none would stop on its own.
    fn stop(&mut self) -> Vec<std::thread::Result<NodeStats>> {
        for tx in &self.txs {
            let _ = tx.send(Input::Shutdown);
        }
        self.joins.drain(..).map(JoinHandle::join).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

impl LockService for Cluster {
    type Stats = ClusterStats;

    fn len(&self) -> usize {
        Cluster::len(self)
    }

    fn keys(&self) -> u32 {
        1
    }

    fn shutdown(self) -> ClusterStats {
        Cluster::shutdown(self)
    }
}

/// One single-lock client over a node thread's input channel (shared by
/// the channel and TCP clusters).
pub(crate) fn make_client(node: NodeId, tx: Sender<Input>) -> LockClient {
    LockClient::new(node, 1, Box::new(ClusterEndpoint { tx }))
}

/// Instance seeds for a single-lock cluster: one key whose token starts
/// at `holder` — the paper's initial configuration.
pub(crate) fn single_key_seeds(tree: &Tree, holder: NodeId) -> Seeds {
    Seeds::new(Arc::new(tree.clone()), Placement::Hub(holder))
}

/// The per-node event loop: drives a one-key [`KeyedNode`] core, handing
/// its sends to `transmit` (channels here, sockets in [`crate::tcp`]),
/// and the local user's acquisitions through the shared [`PendingSet`]
/// pending/abandon machine.
pub(crate) fn node_main<F>(
    me: NodeId,
    mut seeds: Seeds,
    rx: Receiver<Input>,
    transmit: F,
) -> NodeStats
where
    F: Fn(NodeId, NodeId, DagMessage),
{
    /// The single lock every slot of the pending machine refers to.
    const KEY: LockId = LockId(0);

    let mut core: KeyedNode = KeyedNode::new(me, 1);
    let mut stats = NodeStats::default();
    let mut pending = PendingSet::new();
    // Reused across the whole loop, so steady-state message handling
    // allocates nothing.
    let mut effects: Vec<Effect> = Vec::new();

    // Transmits the core's sends; reports whether it entered.
    fn send_all<F: Fn(NodeId, NodeId, DagMessage)>(
        effects: &mut Vec<Effect>,
        me: NodeId,
        stats: &mut NodeStats,
        transmit: &F,
    ) -> bool {
        let mut entered = false;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    match msg.msg {
                        DagMessage::Request { .. } => stats.requests_sent += 1,
                        DagMessage::Privilege => stats.privileges_sent += 1,
                        DagMessage::Initialize => {}
                    }
                    transmit(to, me, msg.msg);
                }
                Effect::Enter(_) => entered = true,
            }
        }
        entered
    }

    // Resolves an entry: hand the critical section to the waiting user,
    // or — if the user abandoned — bounce straight out again.
    fn on_enter<F: Fn(NodeId, NodeId, DagMessage)>(
        core: &mut KeyedNode,
        pending: &mut PendingSet,
        stats: &mut NodeStats,
        transmit: &F,
        effects: &mut Vec<Effect>,
    ) {
        match pending.grant(KEY) {
            GrantAction::Deliver(ack) => {
                stats.entries += 1;
                let _ = ack.send(Reply::Granted);
            }
            GrantAction::AutoRelease => {
                stats.abandoned += 1;
                core.release(KEY, effects);
                let entered = send_all(effects, core.id(), stats, transmit);
                debug_assert!(!entered, "exit never re-enters");
            }
        }
    }

    while let Ok(input) = rx.recv() {
        match input {
            Input::Acquire(ack) => match pending.acquire(KEY, ack) {
                // Adopt the still-in-flight request of a timed-out
                // acquisition: no new messages needed.
                AcquireAction::Adopted => {}
                AcquireAction::Issue => {
                    core.request(KEY, &mut seeds, &mut effects);
                    if send_all(&mut effects, me, &mut stats, &transmit) {
                        on_enter(&mut core, &mut pending, &mut stats, &transmit, &mut effects);
                    }
                }
            },
            Input::TryAcquire(ack) => {
                // Grant iff no other acquisition is engaged and the
                // token is parked here, idle. (An abandoned request in
                // flight implies the token is elsewhere, but check the
                // slot anyway — it is the machine's source of truth.)
                if !pending.is_engaged(KEY) && core.try_request(KEY, &mut seeds, &mut effects) {
                    let entered = send_all(&mut effects, me, &mut stats, &transmit);
                    debug_assert!(entered, "a holding idle node enters locally");
                    stats.entries += 1;
                    let _ = ack.send(Reply::Granted);
                } else {
                    let _ = ack.send(Reply::Unavailable);
                }
            }
            Input::Release => {
                core.release(KEY, &mut effects);
                let entered = send_all(&mut effects, me, &mut stats, &transmit);
                debug_assert!(!entered);
            }
            Input::AbandonAcquire => {
                let executing = core.instance(KEY).is_some_and(|node| node.is_executing());
                match pending.abandon(KEY, executing) {
                    // Normal case: still waiting; the grant will
                    // auto-release on arrival.
                    AbandonAction::Marked | AbandonAction::Stale => {}
                    // Race: the grant was already delivered but the
                    // user timed out anyway — leave immediately.
                    AbandonAction::ReleaseNow => {
                        stats.abandoned += 1;
                        core.release(KEY, &mut effects);
                        send_all(&mut effects, me, &mut stats, &transmit);
                    }
                }
            }
            Input::Net { from, msg } => {
                debug_assert!(
                    !matches!(msg, DagMessage::Request { from: link, .. } if link != from),
                    "REQUEST's X field must match the wire sender"
                );
                core.deliver(KeyedDagMessage { lock: KEY, msg }, &mut seeds, &mut effects);
                if send_all(&mut effects, me, &mut stats, &transmit) {
                    on_enter(&mut core, &mut pending, &mut stats, &transmit, &mut effects);
                }
            }
            Input::Shutdown => break,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_round_trip_on_star() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(4), NodeId(0));
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
        let (cluster, mut clients) = Cluster::start(&Tree::line(3), NodeId(0));
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
        let (cluster, clients) = Cluster::start(&Tree::star(n), NodeId(0));
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
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
        cluster.shutdown();
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }

    #[test]
    fn dropping_the_cluster_stops_its_threads() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
        drop(cluster);
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }

    #[test]
    fn explicit_unlock_equals_drop() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(1));
        let guard = clients[0].lock(LockId(0)).wait().unwrap();
        guard.unlock();
        let _again = clients[0].lock(LockId(0)).wait().unwrap();
        drop(_again);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn single_node_cluster_is_a_plain_mutex() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(1), NodeId(0));
        for _ in 0..100 {
            drop(clients[0].lock(LockId(0)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.messages_total, 0);
    }

    #[test]
    fn lock_timeout_times_out_while_contended_then_autoreleases() {
        let (cluster, mut clients) = Cluster::start(&Tree::star(3), NodeId(1));
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
        let (cluster, clients) = Cluster::start(&Tree::line(2), NodeId(0));
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
        let (cluster, mut clients) = Cluster::start(&Tree::star(4), NodeId(0));
        let guard = clients[3].lock(LockId(0)).timeout(Duration::from_secs(5));
        assert!(guard.is_ok());
        drop(guard);
        drop(clients);
        assert_eq!(cluster.shutdown().entries, 1);
    }

    #[test]
    fn try_now_succeeds_only_where_the_token_is() {
        let (cluster, mut clients) = Cluster::start(&Tree::line(3), NodeId(2));
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
        let (cluster, mut clients) = Cluster::start(&Tree::star(3), NodeId(1));
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
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
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
        let (cluster, mut clients) = Cluster::start(&Tree::line(2), NodeId(0));
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
        let (cluster, clients) = Cluster::start(&Tree::line(n), NodeId(0));
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
