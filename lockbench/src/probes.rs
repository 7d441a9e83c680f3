//! Bare replays of one layer each, fed the workload's own inputs: the
//! `DagNode` state machine, the event queue, the lock table, the
//! coalescing transport, and the runtime's channel.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dmx_core::{Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_lockspace::{
    BatchPool, Envelope, FlushPolicy, LockTable, OrientationCache, Placement, Transport,
};
use dmx_simnet::sched::{EventQueue, HeapQueue, WheelQueue};
use dmx_simnet::{LatencyModel, SchedBackend, Scheduler, Time};
use dmx_topology::{NodeId, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, Outcome};
use crate::trace::Recorder;
use crate::workloads::Shape;

/// Repeats `f` (which returns nanoseconds per operation) until
/// `budget` is spent, at least three times, and returns the median.
fn repeat(budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        samples.push(f());
    }
    median(&samples)
}

/// One keyed send the core replay produced, tagged with the request
/// whose hand-off caused it.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    pub burst: u32,
    pub src: NodeId,
    pub dst: NodeId,
    pub msg: KeyedDagMessage,
}

/// Counts from replaying a request stream through bare `DagNode`s.
#[derive(Debug, Default)]
pub struct CoreReplay {
    pub transitions: u64,
    pub grants: u64,
    pub request_hops: u64,
    pub sends: Vec<Send>,
}

/// Per-key `DagNode` instances, initially oriented toward each key's
/// `Placement::Modulo` hub, for every key the stream touches.
struct Instances {
    /// Dense index of each key (`u32::MAX` = untouched).
    slot: Vec<u32>,
    nodes: Vec<Vec<DagNode>>,
}

impl Instances {
    fn new(shape: Shape, requests: &[(NodeId, LockId)]) -> Self {
        let tree = Tree::kary(shape.n, 2);
        let mut cache = OrientationCache::new(shape.n);
        let mut slot = vec![u32::MAX; shape.keys as usize];
        let mut nodes = Vec::new();
        for &(_, key) in requests {
            if slot[key.index()] == u32::MAX {
                slot[key.index()] = nodes.len() as u32;
                nodes.push(
                    tree.nodes()
                        .map(|me| Placement::Modulo.initial_instance(key, me, &tree, &mut cache))
                        .collect(),
                );
            }
        }
        Instances { slot, nodes }
    }
}

/// Replays `requests` one at a time through the per-key state
/// machines: the request, every message it causes delivered in FIFO
/// order, and the release right after the grant. Returns the number of
/// transitions; fills `log` when given.
fn replay_core(
    inst: &mut Instances,
    requests: &[(NodeId, LockId)],
    mut log: Option<&mut CoreReplay>,
) -> u64 {
    let mut fifo: VecDeque<(NodeId, Action)> = VecDeque::new();
    let mut actions = Vec::with_capacity(4);
    let mut transitions = 0u64;
    for (burst, &(node, key)) in requests.iter().enumerate() {
        let nodes = &mut inst.nodes[inst.slot[key.index()] as usize];
        actions.clear();
        nodes[node.index()].request_into(&mut actions);
        transitions += 1;
        fifo.extend(actions.iter().map(|&a| (node, a)));
        while let Some((at, action)) = fifo.pop_front() {
            actions.clear();
            match action {
                Action::Send { to, message } => {
                    if let Some(l) = log.as_deref_mut() {
                        l.sends.push(Send {
                            burst: burst as u32,
                            src: at,
                            dst: to,
                            msg: KeyedDagMessage {
                                lock: key,
                                msg: message,
                            },
                        });
                    }
                    let target = &mut nodes[to.index()];
                    match message {
                        DagMessage::Request { from, origin } => {
                            if let Some(l) = log.as_deref_mut() {
                                l.request_hops += 1;
                            }
                            target.receive_request_into(from, origin, &mut actions);
                        }
                        DagMessage::Privilege => target.receive_privilege_into(&mut actions),
                        DagMessage::Initialize => unreachable!("instances start oriented"),
                    }
                    fifo.extend(actions.iter().map(|&a| (to, a)));
                }
                Action::Enter => {
                    if let Some(l) = log.as_deref_mut() {
                        l.grants += 1;
                    }
                    nodes[at.index()].exit_into(&mut actions);
                    fifo.extend(actions.iter().map(|&a| (at, a)));
                }
            }
            transitions += 1;
        }
    }
    transitions
}

/// `core.*`: ns per `DagNode` transition and transitions per grant,
/// plus the sends the transport replay stages.
pub fn core(
    shape: Shape,
    requests: &[(NodeId, LockId)],
    budget: Duration,
    out: &mut Outcome,
) -> CoreReplay {
    let initial = Instances::new(shape, requests);
    let mut log = CoreReplay::default();
    let mut first = Instances {
        slot: initial.slot.clone(),
        nodes: initial.nodes.clone(),
    };
    log.transitions = replay_core(&mut first, requests, Some(&mut log));
    let ns = repeat(budget, || {
        let mut inst = Instances {
            slot: initial.slot.clone(),
            nodes: initial.nodes.clone(),
        };
        let t0 = Instant::now();
        let transitions = replay_core(&mut inst, black_box(requests), None);
        t0.elapsed().as_nanos() as f64 / transitions as f64
    });
    out.set("core.transition_ns", "ns", ns);
    out.set(
        "core.transitions_per_grant",
        "count",
        log.transitions as f64 / log.grants.max(1) as f64,
    );
    out.check(log.grants == requests.len() as u64, || {
        format!(
            "core replay granted {} of {} requests",
            log.grants,
            requests.len()
        )
    });
    out.note(format!(
        "core replay: {} requests, {:.3} REQUEST hops per isolated request",
        requests.len(),
        log.request_hops as f64 / requests.len().max(1) as f64
    ));
    log
}

/// `lockspace.table_lookup_ns`: a fresh per-node `LockTable` per
/// repetition, one `get_or_insert_with` for every request and every
/// delivered message of the stream, then `get_mut` on the same key.
pub fn table(
    shape: Shape,
    requests: &[(NodeId, LockId)],
    sends: &[Send],
    budget: Duration,
    out: &mut Outcome,
) {
    let touches: Vec<(NodeId, LockId)> = requests
        .iter()
        .copied()
        .chain(sends.iter().map(|s| (s.dst, s.msg.lock)))
        .collect();
    let ns = repeat(budget, || {
        let mut tables: Vec<LockTable<DagNode>> =
            (0..shape.n).map(|_| LockTable::new(16)).collect();
        let t0 = Instant::now();
        for &(node, key) in black_box(&touches) {
            let t = &mut tables[node.index()];
            black_box(t.get_or_insert_with(key, || DagNode::new(node, None)));
            black_box(t.get_mut(key));
        }
        t0.elapsed().as_nanos() as f64 / (2 * touches.len()) as f64
    });
    out.set("lockspace.table_lookup_ns", "ns", ns);
}

/// `lockspace.transport_stage_ns`: every send staged on its source
/// node's `Transport`, with one flush per touched node at the end of
/// each request's hand-off (`EveryTick` grouping).
pub fn transport(shape: Shape, sends: &[Send], budget: Duration, out: &mut Outcome) {
    let mut transports: Vec<Transport> = (0..shape.n)
        .map(|_| Transport::new(shape.n, FlushPolicy::EveryTick))
        .collect();
    let mut pool = BatchPool::new();
    let mut dirty: Vec<usize> = Vec::new();
    let mut spent = Vec::new();
    let ns = repeat(budget, || {
        let mut envelopes = 0u64;
        let t0 = Instant::now();
        let mut burst = sends.first().map_or(0, |s| s.burst);
        for s in black_box(sends) {
            if s.burst != burst {
                envelopes += flush(&mut transports, &mut dirty, &mut pool, &mut spent);
                burst = s.burst;
            }
            let t = &mut transports[s.src.index()];
            if t.staged() == 0 {
                dirty.push(s.src.index());
            }
            t.stage(s.dst, s.msg);
        }
        envelopes += flush(&mut transports, &mut dirty, &mut pool, &mut spent);
        black_box(envelopes);
        t0.elapsed().as_nanos() as f64 / sends.len() as f64
    });
    out.set("lockspace.transport_stage_ns", "ns", ns);
}

/// Flushes every transport in `dirty`, returning the batch buffers to
/// the pool; returns the number of envelopes sent.
fn flush(
    transports: &mut [Transport],
    dirty: &mut Vec<usize>,
    pool: &mut BatchPool,
    spent: &mut Vec<Vec<KeyedDagMessage>>,
) -> u64 {
    let mut envelopes = 0;
    for d in dirty.drain(..) {
        transports[d].flush(pool, |_, env| {
            envelopes += 1;
            if let Envelope::Batch(b) = env {
                spent.push(b);
            }
        });
        for b in spent.drain(..) {
            pool.put(b);
        }
    }
    envelopes
}

/// Pops the earliest event and pushes its successor `ops` times at a
/// steady queue depth; returns ns per pop+push pair.
fn churn<Q: EventQueue<u32>>(
    mut q: Q,
    latency: LatencyModel,
    depth: usize,
    ops: u64,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = 0u64;
    for i in 0..depth {
        q.push(latency.sample(&mut rng), seq, i as u32);
        seq += 1;
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (at, item) = q.pop_earliest().expect("queue holds `depth` events");
        q.push(at + latency.sample(&mut rng), seq, black_box(item));
        seq += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    black_box(q.drain_stats());
    ns
}

/// `simnet.queue_op_ns`: push+pop on the backend `Scheduler::Auto`
/// picks for the workload's link delay, at two events per node.
pub fn queue(shape: Shape, seed: u64, budget: Duration, out: &mut Outcome) {
    let backend = Scheduler::Auto.resolve(shape.latency, LatencyModel::Fixed(Time(1)));
    let depth = 2 * shape.n;
    let ops = 200_000;
    let ns = repeat(budget, || match backend {
        SchedBackend::Heap => churn(HeapQueue::new(), shape.latency, depth, ops, seed),
        _ => churn(WheelQueue::<u32>::new(), shape.latency, depth, ops, seed),
    });
    out.set("simnet.queue_op_ns", "ns", ns);
    out.note(format!(
        "queue probe: backend={} depth={depth}",
        backend.name()
    ));
}

/// `runtime.channel_rtt_us`: a bare two-thread ping-pong on the
/// channels the threaded runtime is built on.
pub fn channel(budget: Duration, out: &mut Outcome) {
    const TRIPS: u64 = 20_000;
    let us = repeat(budget, || {
        let (to_b, b_rx) = crossbeam::channel::unbounded::<u64>();
        let (to_a, a_rx) = crossbeam::channel::unbounded::<u64>();
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(v) = b_rx.recv() {
                    if to_a.send(v).is_err() {
                        break;
                    }
                }
            });
            let t0 = Instant::now();
            for i in 0..TRIPS {
                to_b.send(i).expect("echo thread alive");
                black_box(a_rx.recv().expect("echo thread alive"));
            }
            let us = t0.elapsed().as_nanos() as f64 / 1e3 / TRIPS as f64;
            drop(to_b);
            us
        })
    });
    out.set("runtime.channel_rtt_us", "us", us);
}

/// Every bare layer replay for one workload, each inside one span.
pub fn all(shape: Shape, seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let requests = shape.requests(seed, 20_000);
    let share = budget / 5;
    let log = rec.time("probe.core", 0, 0, || core(shape, &requests, share, out));
    rec.time("probe.table", 0, 0, || {
        table(shape, &requests, &log.sends, share, out)
    });
    rec.time("probe.transport", 0, 0, || {
        transport(shape, &log.sends, share, out)
    });
    rec.time("probe.queue", 0, 0, || queue(shape, seed, share, out));
    rec.time("probe.channel", 0, 0, || channel(share, out));
    let log2n = (shape.n as f64).log2().ceil();
    out.set("core.path_hops_log2n", "hops", log2n);
}
