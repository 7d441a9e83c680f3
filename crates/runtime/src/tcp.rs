//! TCP transport: the same distributed lock over real sockets.
//!
//! Each node binds a loopback listener; protocol messages travel as
//! fixed 9-byte frames over lazily established, cached connections. TCP
//! gives exactly the guarantees the paper's network model demands —
//! reliable delivery and per-connection FIFO — so the unchanged
//! [`DagNode`](dmx_core::DagNode) state machine runs correctly on top.
//!
//! This is the deployment-shaped embodiment; for measurements use the
//! deterministic simulator (`dmx-simnet`), and for cheap in-process
//! locking use the channel-based [`Cluster`](crate::Cluster).
//!
//! # Wire format
//!
//! ```text
//! byte 0      tag: 0 = REQUEST, 1 = PRIVILEGE
//! bytes 1..5  sender node id   (u32, little endian)
//! bytes 5..9  request origin Y (u32, little endian; 0 for PRIVILEGE)
//! ```
//!
//! The REQUEST frame carries exactly the paper's two integers; the
//! PRIVILEGE frame carries none (the id/origin fields are transport
//! addressing, present in every frame).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use dmx_core::DagMessage;
use dmx_topology::{NodeId, Tree};
use parking_lot::Mutex;

use crate::client::LockClient;
use crate::cluster::{make_client, node_main, single_key_seeds, Input};
use crate::service::LockService;
use crate::stats::{ClusterStats, NodeStats};

const TAG_REQUEST: u8 = 0;
const TAG_PRIVILEGE: u8 = 1;
const FRAME_LEN: usize = 9;

fn encode(from: NodeId, msg: &DagMessage) -> [u8; FRAME_LEN] {
    let mut frame = [0u8; FRAME_LEN];
    match msg {
        DagMessage::Request { from: link, origin } => {
            debug_assert_eq!(*link, from);
            frame[0] = TAG_REQUEST;
            frame[1..5].copy_from_slice(&from.0.to_le_bytes());
            frame[5..9].copy_from_slice(&origin.0.to_le_bytes());
        }
        DagMessage::Privilege => {
            frame[0] = TAG_PRIVILEGE;
            frame[1..5].copy_from_slice(&from.0.to_le_bytes());
        }
        DagMessage::Initialize => unreachable!("TCP clusters start pre-oriented"),
    }
    frame
}

fn decode(frame: &[u8; FRAME_LEN]) -> io::Result<(NodeId, DagMessage)> {
    let from = NodeId(u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes")));
    let origin = NodeId(u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes")));
    match frame[0] {
        TAG_REQUEST => Ok((from, DagMessage::Request { from, origin })),
        TAG_PRIVILEGE => Ok((from, DagMessage::Privilege)),
        tag => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame tag {tag}"),
        )),
    }
}

/// A running cluster whose nodes exchange the paper's messages over
/// loopback TCP. API mirrors [`Cluster`](crate::Cluster): the same
/// [`LockClient`] with the same try/timeout/deadline machinery, since
/// both runtimes share one node loop (and therefore one pending/abandon
/// state machine).
///
/// # Examples
///
/// ```
/// use dmx_core::LockId;
/// use dmx_runtime::tcp::TcpCluster;
/// use dmx_topology::{NodeId, Tree};
///
/// let (cluster, mut clients) = TcpCluster::start(&Tree::star(3), NodeId(0))?;
/// {
///     let _guard = clients[2].lock(LockId(0)).wait().expect("cluster running");
/// }
/// let stats = cluster.shutdown();
/// assert_eq!(stats.entries, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpCluster {
    txs: Vec<Sender<Input>>,
    node_joins: Vec<JoinHandle<NodeStats>>,
    accept_joins: Vec<JoinHandle<()>>,
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
}

impl TcpCluster {
    /// Binds one loopback listener per node, spawns the node threads,
    /// and returns the cluster plus one [`LockClient`] per node. The
    /// single lock is `LockId(0)`.
    ///
    /// # Errors
    ///
    /// Any socket error while binding the listeners.
    ///
    /// # Panics
    ///
    /// Panics if `holder` is out of range.
    pub fn start(tree: &Tree, holder: NodeId) -> io::Result<(TcpCluster, Vec<LockClient>)> {
        let n = tree.len();
        assert!(holder.index() < n, "holder out of range");
        let seeds = single_key_seeds(tree, holder);
        let stop = Arc::new(AtomicBool::new(false));

        // Bind all listeners first so every address is known before any
        // node starts sending.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        let channels: Vec<_> = (0..n).map(|_| unbounded::<Input>()).collect();
        let txs: Vec<Sender<Input>> = channels.iter().map(|(tx, _)| tx.clone()).collect();

        // Accept loops: every inbound connection gets a reader thread
        // that decodes frames into the node's input channel.
        let mut accept_joins = Vec::with_capacity(n);
        for (i, listener) in listeners.into_iter().enumerate() {
            let tx = txs[i].clone();
            let stop = Arc::clone(&stop);
            accept_joins.push(std::thread::spawn(move || accept_loop(listener, tx, stop)));
        }

        // Node threads: sends go over cached outgoing connections.
        let mut node_joins = Vec::with_capacity(n);
        for (i, (_, rx)) in channels.into_iter().enumerate() {
            let me = NodeId::from_index(i);
            let seeds = seeds.clone();
            let peers = addrs.clone();
            let outgoing: Arc<Mutex<Vec<Option<TcpStream>>>> =
                Arc::new(Mutex::new((0..n).map(|_| None).collect()));
            let transmit = move |to: NodeId, from: NodeId, msg: DagMessage| {
                let frame = encode(from, &msg);
                let mut slots = outgoing.lock();
                // Lazily connect, retrying once on a stale cached stream.
                for attempt in 0..2 {
                    if slots[to.index()].is_none() {
                        match TcpStream::connect(peers[to.index()]) {
                            Ok(stream) => {
                                let _ = stream.set_nodelay(true);
                                slots[to.index()] = Some(stream);
                            }
                            Err(_) => return, // peer gone: shutdown in progress
                        }
                    }
                    let ok = slots[to.index()]
                        .as_mut()
                        .map(|s| s.write_all(&frame).is_ok())
                        .unwrap_or(false);
                    if ok {
                        return;
                    }
                    slots[to.index()] = None;
                    let _ = attempt;
                }
            };
            node_joins.push(std::thread::spawn(move || {
                node_main(me, seeds, rx, transmit)
            }));
        }

        let clients = (0..n)
            .map(|i| make_client(NodeId::from_index(i), txs[i].clone()))
            .collect();
        Ok((
            TcpCluster {
                txs,
                node_joins,
                accept_joins,
                addrs,
                stop,
            },
            clients,
        ))
    }

    /// The loopback address node `node` listens on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.addrs[node.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`TcpCluster::len`].
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Stops node threads and listeners, returning aggregated counters.
    pub fn shutdown(self) -> ClusterStats {
        for tx in &self.txs {
            let _ = tx.send(Input::Shutdown);
        }
        let per_node: Vec<NodeStats> = self
            .node_joins
            .into_iter()
            .map(|j| j.join().expect("node thread panicked"))
            .collect();
        // Unblock the accept loops with one dummy connection each.
        self.stop.store(true, Ordering::SeqCst);
        for addr in &self.addrs {
            let _ = TcpStream::connect(addr);
        }
        for j in self.accept_joins {
            let _ = j.join();
        }
        ClusterStats::from_nodes(per_node)
    }
}

impl LockService for TcpCluster {
    type Stats = ClusterStats;

    fn len(&self) -> usize {
        TcpCluster::len(self)
    }

    fn keys(&self) -> u32 {
        1
    }

    fn shutdown(self) -> ClusterStats {
        TcpCluster::shutdown(self)
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<Input>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let tx = tx.clone();
        std::thread::spawn(move || reader_loop(stream, tx));
    }
}

fn reader_loop(mut stream: TcpStream, tx: Sender<Input>) {
    let mut frame = [0u8; FRAME_LEN];
    loop {
        if stream.read_exact(&mut frame).is_err() {
            return; // peer closed: normal during shutdown
        }
        let Ok((from, msg)) = decode(&frame) else {
            return;
        };
        if tx.send(Input::Net { from, msg }).is_err() {
            return; // node thread gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_core::LockId;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn frame_round_trip() {
        let req = DagMessage::Request {
            from: NodeId(3),
            origin: NodeId(250),
        };
        let frame = encode(NodeId(3), &req);
        assert_eq!(decode(&frame).unwrap(), (NodeId(3), req));
        let frame = encode(NodeId(7), &DagMessage::Privilege);
        assert_eq!(decode(&frame).unwrap(), (NodeId(7), DagMessage::Privilege));
        let mut bad = [0u8; FRAME_LEN];
        bad[0] = 9;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn lock_round_trip_over_tcp() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::star(4), NodeId(1)).unwrap();
        {
            let guard = clients[2].lock(LockId(0)).wait().unwrap();
            assert_eq!(guard.node(), NodeId(2));
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        // Same 3 messages as the channel runtime and the simulator:
        // REQUEST 2->0, REQUEST 0->1, PRIVILEGE 1->2.
        assert_eq!(stats.messages_total, 3);
    }

    #[test]
    fn token_parks_over_tcp() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::line(3), NodeId(0)).unwrap();
        for _ in 0..5 {
            drop(clients[2].lock(LockId(0)).wait().unwrap());
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.messages_total, 3, "only the first acquisition pays");
    }

    #[test]
    fn mutual_exclusion_under_tcp_contention() {
        let n = 4;
        let (cluster, clients) = TcpCluster::start(&Tree::star(n), NodeId(0)).unwrap();
        let inside = std::sync::Arc::new(AtomicBool::new(false));
        let tally = std::sync::Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let inside = std::sync::Arc::clone(&inside);
                let tally = std::sync::Arc::clone(&tally);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let guard = c.lock(LockId(0)).wait().unwrap();
                        assert!(!inside.swap(true, Ordering::SeqCst));
                        tally.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        drop(guard);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(tally.load(Ordering::Relaxed), 40);
        assert_eq!(stats.entries, 40);
    }

    #[test]
    fn tcp_and_channel_runtimes_agree_on_serialized_counts() {
        let tree = Tree::kary(6, 2);
        let sequence = [NodeId(5), NodeId(1), NodeId(4), NodeId(0), NodeId(5)];

        let (tcp, mut th) = TcpCluster::start(&tree, NodeId(2)).unwrap();
        for &node in &sequence {
            drop(th[node.index()].lock(LockId(0)).wait().unwrap());
        }
        let tcp_stats = tcp.shutdown();

        let (chan, mut ch) = crate::Cluster::start(&tree, NodeId(2));
        for &node in &sequence {
            drop(ch[node.index()].lock(LockId(0)).wait().unwrap());
        }
        let chan_stats = chan.shutdown();

        assert_eq!(tcp_stats.messages_total, chan_stats.messages_total);
        assert_eq!(tcp_stats.entries, chan_stats.entries);
    }

    #[test]
    fn addresses_are_distinct_loopback_ports() {
        let (cluster, clients) = TcpCluster::start(&Tree::line(3), NodeId(0)).unwrap();
        let mut ports: Vec<u16> = (0..3).map(|i| cluster.addr(NodeId(i)).port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        drop(clients);
        cluster.shutdown();
    }
}
