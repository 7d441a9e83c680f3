//! TCP transport: the same distributed lock over real sockets.
//!
//! Each node binds a loopback listener and runs the crate's one shard
//! node loop for a single key, with a socket wire in place of the
//! channels: keyed messages and Chandy–Lamport markers travel as fixed
//! 13-byte frames over lazily established connections that each shard
//! thread owns. TCP gives exactly the guarantees the paper's network
//! model demands — reliable delivery and per-connection FIFO — so the
//! unchanged [`DagNode`](dmx_core::DagNode) state machine runs
//! correctly on top, and a marker sent behind a peer's data on the same
//! connection keeps every cut consistent.
//!
//! This is the deployment-shaped embodiment; for measurements use the
//! deterministic simulator (`dmx-simnet`), and for cheap in-process
//! locking use the channel-based [`LockSpaceCluster`].
//!
//! # Wire format
//!
//! ```text
//! byte 0        tag: 0 = REQUEST, 1 = PRIVILEGE, 2 = MARKER
//! bytes 1..5    sender node id    (u32, little endian)
//! bytes 5..9    request origin Y  (u32, little endian; 0 unless REQUEST)
//! bytes 9..13   key               (u32, little endian; 0 for MARKER)
//! ```
//!
//! The REQUEST frame carries exactly the paper's two integers; the
//! PRIVILEGE frame carries none (the id/origin fields are transport
//! addressing, present in every frame). An envelope is its messages'
//! frames written back to back in one write. A frame naming a node or
//! key outside the cluster, or sent by the receiving node to itself, is
//! rejected and its connection dropped.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::Sender;
use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::{Envelope, Placement};
use dmx_topology::{NodeId, Tree};

use crate::client::LockClient;
use crate::lockspace::{Input, LockSpaceCluster, LockSpaceClusterConfig, LockSpaceStats, Wire};
use crate::service::LockService;
use crate::snapshot::LockSpaceSnapshot;

const TAG_REQUEST: u8 = 0;
const TAG_PRIVILEGE: u8 = 1;
const TAG_MARKER: u8 = 2;
const FRAME_LEN: usize = 13;
/// Keys a TCP cluster serves: the one lock, `LockId(0)`.
const KEYS: u32 = 1;

/// What one frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// A keyed protocol message from `from`.
    Net { from: NodeId, msg: KeyedDagMessage },
    /// A Chandy–Lamport marker from `from`.
    Marker { from: NodeId },
}

impl Frame {
    /// Appends the frame's 13 bytes to `buf`.
    fn encode(self, buf: &mut Vec<u8>) {
        let (tag, from, origin, key) = match self {
            Frame::Net { from, msg } => match msg.msg {
                DagMessage::Request { from: link, origin } => {
                    debug_assert_eq!(link, from, "REQUEST's X field is the wire sender");
                    (TAG_REQUEST, from, origin, msg.lock)
                }
                DagMessage::Privilege => (TAG_PRIVILEGE, from, NodeId(0), msg.lock),
                DagMessage::Initialize => unreachable!("TCP clusters start pre-oriented"),
            },
            Frame::Marker { from } => (TAG_MARKER, from, NodeId(0), LockId(0)),
        };
        buf.push(tag);
        buf.extend_from_slice(&from.0.to_le_bytes());
        buf.extend_from_slice(&origin.0.to_le_bytes());
        buf.extend_from_slice(&key.0.to_le_bytes());
    }

    /// Decodes a frame arriving at node `me` of an `n`-node cluster
    /// serving `keys` keys.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for an unknown tag, a sender or
    /// origin outside `0..n`, a sender equal to `me`, or a key outside
    /// `0..keys`.
    fn decode(frame: &[u8; FRAME_LEN], me: NodeId, n: usize, keys: u32) -> io::Result<Frame> {
        let field = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().expect("4 bytes"));
        let (from, origin, key) = (NodeId(field(1)), NodeId(field(5)), LockId(field(9)));
        let invalid = |what: String| Err(io::Error::new(io::ErrorKind::InvalidData, what));
        if from.index() >= n || origin.index() >= n {
            return invalid(format!("frame names {from}/{origin} in a {n}-node cluster"));
        }
        if from == me {
            return invalid(format!("frame from {from} to itself"));
        }
        if key.0 >= keys {
            return invalid(format!("frame names {key} of {keys} keys"));
        }
        let msg = match frame[0] {
            TAG_REQUEST => DagMessage::Request { from, origin },
            TAG_PRIVILEGE => DagMessage::Privilege,
            TAG_MARKER => return Ok(Frame::Marker { from }),
            tag => return invalid(format!("bad frame tag {tag}")),
        };
        Ok(Frame::Net {
            from,
            msg: KeyedDagMessage { lock: key, msg },
        })
    }

    /// The shard input the frame delivers.
    fn into_input(self) -> Input {
        match self {
            Frame::Net { from, msg } => Input::Net {
                from,
                envelope: Envelope::One(msg),
            },
            Frame::Marker { from } => Input::Marker { from },
        }
    }
}

/// A shard's socket wire: one lazily connected stream to every peer's
/// listener, owned by the shard thread alone.
struct Sockets {
    addrs: Arc<[SocketAddr]>,
    streams: Vec<Option<TcpStream>>,
    /// Encoding buffer, reused across sends.
    buf: Vec<u8>,
}

impl Sockets {
    /// Writes the encoded buffer to `to` in one write, connecting
    /// lazily and retrying once on a stale cached stream; `false` if
    /// the connect or the retried write failed (the peer is gone).
    fn write(&mut self, to: NodeId) -> bool {
        let slot = &mut self.streams[to.index()];
        for _ in 0..2 {
            if slot.is_none() {
                let Ok(stream) = TcpStream::connect(self.addrs[to.index()]) else {
                    return false;
                };
                let _ = stream.set_nodelay(true);
                *slot = Some(stream);
            }
            if slot
                .as_mut()
                .is_some_and(|s| s.write_all(&self.buf).is_ok())
            {
                return true;
            }
            *slot = None;
        }
        false
    }
}

impl Wire for Sockets {
    fn send(&mut self, from: NodeId, to: NodeId, envelope: Envelope) -> bool {
        self.buf.clear();
        match envelope {
            Envelope::One(msg) => Frame::Net { from, msg }.encode(&mut self.buf),
            // One key flushed every input never forms a batch, so its
            // buffer is dropped rather than pooled.
            Envelope::Batch(batch) => {
                for msg in batch {
                    Frame::Net { from, msg }.encode(&mut self.buf);
                }
            }
        }
        self.write(to)
    }

    fn marker(&mut self, from: NodeId, to: NodeId) {
        self.buf.clear();
        Frame::Marker { from }.encode(&mut self.buf);
        self.write(to);
    }
}

/// A running cluster whose nodes exchange the paper's messages over
/// loopback TCP. It runs the [`LockSpaceCluster`] node loop with one
/// key — one shard thread per node, flushing after every input — so it
/// hands out the same [`LockClient`] with the same try/timeout/deadline
/// machinery, returns the same [`LockSpaceStats`], and takes the same
/// consistent [`snapshot`](TcpCluster::snapshot)s. Dropping the cluster
/// stops its threads and listeners.
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
/// assert!(cluster.snapshot().verify().is_ok());
/// let stats = cluster.shutdown();
/// assert_eq!(stats.entries, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpCluster {
    /// The node threads. Declared first, so a drop stops them before
    /// the listeners.
    space: LockSpaceCluster,
    listeners: Listeners,
}

/// The accept loops, stopped on drop.
#[derive(Debug)]
struct Listeners {
    addrs: Arc<[SocketAddr]>,
    stop: Arc<AtomicBool>,
    joins: Vec<JoinHandle<()>>,
}

impl Drop for Listeners {
    fn drop(&mut self) {
        // Unblock the accept loops with one dummy connection each.
        self.stop.store(true, Ordering::SeqCst);
        for addr in self.addrs.iter() {
            let _ = TcpStream::connect(addr);
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl TcpCluster {
    /// Binds one loopback listener per node, spawns the node threads,
    /// and returns the cluster plus one [`LockClient`] per node. The
    /// single lock is `LockId(0)`, its token initially at `holder`.
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
        // Bind all listeners first so every address is known before any
        // node starts sending.
        let listeners = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Arc<[SocketAddr]>>>()?;

        let config = LockSpaceClusterConfig {
            keys: KEYS,
            placement: Placement::Hub(holder),
            workers: 1,
            ..LockSpaceClusterConfig::default()
        };
        let (space, clients) = LockSpaceCluster::spawn(tree, config, |_, _| Sockets {
            addrs: Arc::clone(&addrs),
            streams: (0..n).map(|_| None).collect(),
            buf: Vec::with_capacity(FRAME_LEN),
        });

        // Accept loops: every inbound connection gets a reader thread
        // that decodes frames into the node's inbox.
        let stop = Arc::new(AtomicBool::new(false));
        let joins = listeners
            .into_iter()
            .zip(space.inboxes())
            .enumerate()
            .map(|(i, (listener, inbox))| {
                let (inbox, stop) = (inbox.clone(), Arc::clone(&stop));
                let me = NodeId::from_index(i);
                std::thread::spawn(move || accept_loop(listener, me, n, inbox, stop))
            })
            .collect();
        let listeners = Listeners { addrs, stop, joins };
        Ok((TcpCluster { space, listeners }, clients))
    }

    /// The loopback address node `node` listens on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.listeners.addrs[node.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// `true` for a cluster with no nodes — consistent with
    /// [`TcpCluster::len`].
    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }

    /// Captures a consistent cut of the running cluster without pausing
    /// it; markers travel on the sockets behind each peer's data (see
    /// [`LockSpaceCluster::snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if a node thread has died (panicked) before or during the
    /// cut.
    pub fn snapshot(&self) -> LockSpaceSnapshot {
        self.space.snapshot()
    }

    /// Stops node threads and listeners, returning aggregated counters.
    pub fn shutdown(self) -> LockSpaceStats {
        self.space.shutdown()
    }
}

impl LockService for TcpCluster {
    fn len(&self) -> usize {
        TcpCluster::len(self)
    }

    fn keys(&self) -> u32 {
        KEYS
    }

    fn snapshot(&self) -> LockSpaceSnapshot {
        TcpCluster::snapshot(self)
    }

    fn shutdown(self) -> LockSpaceStats {
        TcpCluster::shutdown(self)
    }
}

fn accept_loop(
    listener: TcpListener,
    me: NodeId,
    n: usize,
    inbox: Sender<Input>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let inbox = inbox.clone();
        std::thread::spawn(move || reader_loop(stream, me, n, inbox));
    }
}

fn reader_loop(mut stream: TcpStream, me: NodeId, n: usize, inbox: Sender<Input>) {
    let mut frame = [0u8; FRAME_LEN];
    loop {
        if stream.read_exact(&mut frame).is_err() {
            return; // peer closed: normal during shutdown
        }
        // A malformed frame drops the connection.
        let Ok(frame) = Frame::decode(&frame, me, n, KEYS) else {
            return;
        };
        if inbox.send(frame.into_input()).is_err() {
            return; // node thread gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockError;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    fn frame(from: NodeId, lock: u32, msg: DagMessage) -> Frame {
        Frame::Net {
            from,
            msg: KeyedDagMessage {
                lock: LockId(lock),
                msg,
            },
        }
    }

    fn bytes(frame: Frame) -> [u8; FRAME_LEN] {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        buf.try_into().expect("one frame")
    }

    #[test]
    fn frame_round_trip() {
        let req = frame(
            NodeId(3),
            5,
            DagMessage::Request {
                from: NodeId(3),
                origin: NodeId(250),
            },
        );
        let privilege = frame(NodeId(7), 9, DagMessage::Privilege);
        let marker = Frame::Marker { from: NodeId(2) };
        for f in [req, privilege, marker] {
            assert_eq!(Frame::decode(&bytes(f), NodeId(0), 256, 10).unwrap(), f);
        }
        let mut bad = bytes(marker);
        bad[0] = 9;
        assert!(Frame::decode(&bad, NodeId(0), 256, 10).is_err());
    }

    #[test]
    fn a_refused_connection_reports_the_envelope_undelivered() {
        // A port nobody listens on any more: the connect fails, and the
        // send says so instead of returning as if it had delivered.
        let closed = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let mut wire = Sockets {
            addrs: Arc::from([closed, closed]),
            streams: vec![None, None],
            buf: Vec::new(),
        };
        let msg = KeyedDagMessage {
            lock: LockId(0),
            msg: DagMessage::Privilege,
        };
        assert!(!wire.send(NodeId(0), NodeId(1), Envelope::One(msg)));
    }

    #[test]
    fn malformed_frames_drop_their_connection_not_the_node() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::line(3), NodeId(0)).unwrap();
        let req = |from: u32, origin: u32, lock: u32| {
            let from = NodeId(from);
            let msg = DagMessage::Request {
                from,
                origin: NodeId(origin),
            };
            bytes(frame(from, lock, msg))
        };
        let mut bad_tag = req(0, 0, 0);
        bad_tag[0] = 7;
        // One bad field per frame: tag, sender, origin, key, and a
        // sender posing as the receiving node itself.
        let bad = [
            bad_tag,
            req(9, 0, 0),
            req(0, 9, 0),
            req(0, 0, 4),
            req(1, 0, 0),
        ];
        for frame in bad {
            let mut stream = TcpStream::connect(cluster.addr(NodeId(1))).unwrap();
            stream.write_all(&frame).unwrap();
            // The node drops the connection: the read sees EOF (or a
            // reset) rather than timing out.
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            match stream.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("malformed frame kept its connection: {other:?}"),
            }
        }
        // Node 1 relays node 2's request: the cluster still grants.
        drop(
            clients[2]
                .lock(LockId(0))
                .timeout(Duration::from_secs(5))
                .unwrap(),
        );
        drop(clients);
        let stats = cluster.shutdown();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.messages_total, 3);
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
        assert_eq!(stats.envelopes_dropped, 0);
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
        assert_eq!(stats.envelopes_dropped, 0);
    }

    #[test]
    fn mutual_exclusion_under_tcp_contention() {
        let n = 4;
        let (cluster, clients) = TcpCluster::start(&Tree::star(n), NodeId(0)).unwrap();
        let inside = Arc::new(AtomicBool::new(false));
        let tally = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let inside = Arc::clone(&inside);
                let tally = Arc::clone(&tally);
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
        assert_eq!(stats.envelopes_dropped, 0);
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

        let (chan, mut ch) = LockSpaceCluster::start(&tree, 1, Placement::Hub(NodeId(2)));
        for &node in &sequence {
            drop(ch[node.index()].lock(LockId(0)).wait().unwrap());
        }
        let chan_stats = chan.shutdown();

        assert_eq!(tcp_stats.messages_total, chan_stats.messages_total);
        assert_eq!(tcp_stats.entries, chan_stats.entries);
        assert_eq!(tcp_stats.envelopes_dropped, 0);
        assert_eq!(chan_stats.envelopes_dropped, 0);
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

    #[test]
    fn dropping_the_tcp_cluster_stops_its_threads() {
        let (cluster, mut clients) = TcpCluster::start(&Tree::line(2), NodeId(0)).unwrap();
        drop(cluster);
        assert_eq!(
            clients[1].lock(LockId(0)).wait().unwrap_err(),
            LockError::ClusterDown
        );
    }
}
