//! The threaded drivers: `LockSpaceCluster` (channels, many keys) and
//! `TcpCluster` (loopback sockets, one key), loaded by closed-loop
//! client threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dmx_core::LockId;
use dmx_lockspace::{FlushPolicy, Placement};
use dmx_runtime::tcp::TcpCluster;
use dmx_runtime::{LockClient, LockError, LockSpaceCluster, LockSpaceClusterConfig};
use dmx_topology::{NodeId, Tree};
use dmx_workload::KeySampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Latencies, Outcome};
use crate::trace::Recorder;
use crate::workloads::Shape;

/// Load threads: the benchmark's whole load comes from this many
/// closed-loop clients in one process.
pub const CLIENTS: usize = 2;
/// How long a blocking acquire may wait before it counts as failed.
const ACQUIRE_TIMEOUT: Duration = Duration::from_secs(1);
/// `try_now` probes each client thread makes after a traced TCP load.
const TCP_TRY_PROBES: u64 = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `LockSpaceCluster`: 1 worker per node, `EveryTick` flushing;
    /// 3 in 4 ops block with a timeout, 1 in 4 is a `try_now` probe.
    Threads,
    /// `TcpCluster`: every op blocks with a timeout on the one key.
    Tcp,
}

/// Span names of one backend's client calls.
struct Names {
    acquire: &'static str,
    try_now: &'static str,
    release: &'static str,
}

impl Backend {
    fn names(self) -> Names {
        match self {
            Backend::Threads => Names {
                acquire: "runtime.acquire",
                try_now: "runtime.try_now",
                release: "runtime.release",
            },
            Backend::Tcp => Names {
                acquire: "tcp.acquire",
                try_now: "tcp.try_now",
                release: "tcp.release",
            },
        }
    }

    /// One in how many load ops is a `try_now` probe (`None`: never).
    fn try_every(self) -> Option<u32> {
        match self {
            Backend::Threads => Some(4),
            Backend::Tcp => None,
        }
    }
}

enum Running {
    Space(LockSpaceCluster),
    Tcp(TcpCluster),
}

/// The cluster counters the benchmark checks and reports.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    entries: u64,
    messages: u64,
    /// Wire sends: coalesced envelopes on the lock space; one frame per
    /// message on TCP, which does not coalesce.
    envelopes: u64,
    abandoned: u64,
    keys_materialized: usize,
}

impl Running {
    fn shutdown(self) -> Counts {
        match self {
            Running::Space(c) => {
                let s = c.shutdown();
                Counts {
                    entries: s.entries,
                    messages: s.messages_total,
                    envelopes: s.envelopes_total,
                    abandoned: s.per_node.iter().map(|n| n.abandoned).sum(),
                    keys_materialized: s.per_node.iter().map(|n| n.keys_materialized).sum(),
                }
            }
            Running::Tcp(c) => {
                let s = c.shutdown();
                Counts {
                    entries: s.entries,
                    messages: s.messages_total,
                    envelopes: s.messages_total,
                    abandoned: s.per_node.iter().map(|n| n.abandoned).sum(),
                    keys_materialized: s.per_node.len().min(1),
                }
            }
        }
    }
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct Tally {
    ops: u64,
    grants: u64,
    refused: u64,
    timeouts: u64,
    errors: u64,
    /// Grants of a key another client already held.
    double_holds: u64,
    acquire: Latencies,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.ops += o.ops;
        self.grants += o.grants;
        self.refused += o.refused;
        self.timeouts += o.timeouts;
        self.errors += o.errors;
        self.double_holds += o.double_holds;
        self.acquire.merge(&o.acquire);
    }

    fn failed(&self) -> u64 {
        self.timeouts + self.errors + self.double_holds
    }
}

/// The per-key occupancy oracle: a grant of a key someone else holds
/// is a safety violation.
struct Occupancy(Vec<AtomicBool>);

impl Occupancy {
    fn new(keys: u32) -> Self {
        Occupancy((0..keys).map(|_| AtomicBool::new(false)).collect())
    }

    /// Marks `key` held; `false` if it already was.
    fn enter(&self, key: LockId) -> bool {
        !self.0[key.index()].swap(true, Ordering::SeqCst)
    }

    /// Marks `key` free; called before the guard releases it.
    fn exit(&self, key: LockId) {
        self.0[key.index()].store(false, Ordering::SeqCst);
    }
}

/// One closed-loop client thread over its share of the node clients.
struct Client<'a> {
    backend: Backend,
    clients: &'a mut [LockClient],
    sampler: &'a KeySampler,
    occupancy: &'a Occupancy,
    rng: StdRng,
    rec: Option<&'a mut Recorder>,
    tally: Tally,
    op: u64,
}

impl Client<'_> {
    fn now(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.now())
    }

    /// One lock operation: a blocking acquire with timeout, or a
    /// `try_now` probe; a granted key is released at once.
    fn op(&mut self, try_now: bool) {
        let names = self.backend.names();
        self.op += 1;
        self.tally.ops += 1;
        let op = self.op;
        let root = self.rec.as_deref_mut().map_or(0, Recorder::alloc_id);
        let op_start = self.now();
        let i = self.rng.gen_range(0..self.clients.len());
        let key = self.sampler.sample(&mut self.rng);
        let client = &mut self.clients[i];
        let t0 = Instant::now();
        let s0 = self.rec.as_ref().map_or(0, |r| r.now());
        let result = if try_now {
            client.lock(key).try_now()
        } else {
            client.lock(key).timeout(ACQUIRE_TIMEOUT)
        };
        let waited = t0.elapsed();
        if let Some(r) = self.rec.as_deref_mut() {
            let name = if try_now {
                names.try_now
            } else {
                names.acquire
            };
            let end = r.now();
            r.record(name, root, op, s0, end);
        }
        match result {
            Ok(guard) => {
                if !try_now {
                    self.tally.acquire.push(waited.as_nanos() as u64);
                }
                self.tally.grants += 1;
                if !self.occupancy.enter(key) {
                    self.tally.double_holds += 1;
                }
                self.occupancy.exit(key);
                match self.rec.as_deref_mut() {
                    Some(r) => r.time(names.release, root, op, || drop(guard)),
                    None => drop(guard),
                }
            }
            Err(LockError::WouldBlock) if try_now => self.tally.refused += 1,
            Err(LockError::Timeout) => self.tally.timeouts += 1,
            Err(_) => self.tally.errors += 1,
        }
        if let Some(r) = self.rec.as_deref_mut() {
            let end = r.now();
            r.record_as(root, "client.op", 0, op, op_start, end);
        }
    }

    fn run_until(&mut self, deadline: Instant) {
        let try_every = self.backend.try_every();
        while Instant::now() < deadline {
            let try_now = try_every.is_some_and(|k| self.rng.gen_range(0..k) == 0);
            self.op(try_now);
        }
    }
}

/// One segment's measurements.
struct Segment {
    setup_s: f64,
    load_s: f64,
    /// Grants made while the load ran (not set-up or probes).
    load_grants: u64,
    tally: Tally,
    counts: Counts,
}

/// Starts a cluster of the shape; TCP set-up includes one sequential
/// acquire/release per node, which connects the sockets the lock uses.
fn start(
    backend: Backend,
    shape: Shape,
    out: &mut Outcome,
) -> Option<(Running, Vec<LockClient>, u64)> {
    let tree = Tree::kary(shape.n, 2);
    match backend {
        Backend::Threads => {
            let (cluster, clients) = LockSpaceCluster::start_with(
                &tree,
                LockSpaceClusterConfig {
                    keys: shape.keys,
                    placement: Placement::Modulo,
                    workers: 1,
                    flush: FlushPolicy::EveryTick,
                },
            );
            Some((Running::Space(cluster), clients, 0))
        }
        Backend::Tcp => match TcpCluster::start(&tree, NodeId(0)) {
            Ok((cluster, mut clients)) => {
                let mut warm = 0;
                for c in &mut clients {
                    out.attempted += 1;
                    match c.lock(LockId(0)).timeout(ACQUIRE_TIMEOUT) {
                        Ok(g) => {
                            warm += 1;
                            drop(g);
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.violation(format!("TCP warm-up acquire failed: {e}"));
                        }
                    }
                }
                Some((Running::Tcp(cluster), clients, warm))
            }
            Err(e) => {
                out.failed += 1;
                out.violation(format!("TCP cluster failed to start: {e}"));
                None
            }
        },
    }
}

/// Runs one segment: start a cluster, load it for `load`, check it,
/// shut it down. A mid-load snapshot is cut and verified when
/// `snapshot` is set (lock space only).
fn segment(
    backend: Backend,
    shape: Shape,
    seed: u64,
    load: Duration,
    snapshot: bool,
    recs: Option<&mut Vec<Recorder>>,
    out: &mut Outcome,
) -> Option<Segment> {
    let t0 = Instant::now();
    let (running, mut clients, warm) = start(backend, shape, out)?;
    let setup_s = t0.elapsed().as_secs_f64();
    // `TcpCluster` serves one key whatever the shape's key space.
    let keys = match backend {
        Backend::Threads => shape.keys,
        Backend::Tcp => 1,
    };
    let sampler = KeySampler::new(keys, shape.dist());
    let occupancy = Occupancy::new(keys);
    let mut shares: Vec<Vec<LockClient>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for c in clients.drain(..) {
        shares[c.node().index() % CLIENTS].push(c);
    }
    let mut tally = Tally::default();
    let started = Instant::now();
    let deadline = started + load;
    let mut load_s = 0.0;
    let mut load_grants = 0;
    std::thread::scope(|s| {
        let mut rec_iter = recs.map(|v| v.iter_mut());
        let handles: Vec<_> = shares
            .iter_mut()
            .enumerate()
            .map(|(t, share)| {
                let rec = rec_iter.as_mut().and_then(|it| it.next());
                let sampler = &sampler;
                let occupancy = &occupancy;
                s.spawn(move || {
                    let mut client = Client {
                        backend,
                        clients: share,
                        sampler,
                        occupancy,
                        rng: StdRng::seed_from_u64(seed ^ ((t as u64 + 1) << 40)),
                        rec,
                        tally: Tally::default(),
                        op: (t as u64) << 40,
                    };
                    client.run_until(deadline);
                    let done = started.elapsed().as_secs_f64();
                    let load_grants = client.tally.grants;
                    if backend == Backend::Tcp && client.rec.is_some() {
                        for _ in 0..TCP_TRY_PROBES {
                            client.op(true);
                        }
                    }
                    (client.tally, done, load_grants)
                })
            })
            .collect();
        if snapshot {
            if let Running::Space(cluster) = &running {
                std::thread::sleep(load / 2);
                if let Err(v) = cluster.snapshot().verify() {
                    out.failed += 1;
                    out.violation(format!("mid-run snapshot failed verification: {v:?}"));
                }
            }
        }
        for h in handles {
            let (t, done, grants) = h.join().expect("client thread panicked");
            load_s = f64::max(load_s, done);
            load_grants += grants;
            tally.add(t);
        }
    });
    let counts = running.shutdown();
    let grants = tally.grants + warm;
    out.check(grants == counts.entries, || {
        format!(
            "clients saw {grants} grants but the cluster counted {} entries",
            counts.entries
        )
    });
    if tally.double_holds > 0 {
        out.violation(format!(
            "{} grants of a key another client held",
            tally.double_holds
        ));
    }
    out.attempted += tally.ops;
    out.failed += tally.failed();
    Some(Segment {
        setup_s,
        load_s,
        load_grants,
        tally,
        counts,
    })
}

fn sample_segment(out: &mut Outcome, seg: &Segment) {
    let entries = seg.counts.entries.max(1) as f64;
    out.sample("setup_s", "s", seg.setup_s);
    out.sample("grants_per_s", "1/s", seg.load_grants as f64 / seg.load_s);
    out.sample(
        "msgs_per_grant",
        "msgs",
        seg.counts.messages as f64 / entries,
    );
    out.sample(
        "envelopes_per_grant",
        "envelopes",
        seg.counts.envelopes as f64 / entries,
    );
}

fn report_latency(out: &mut Outcome, tally: &Tally) {
    let lat = &tally.acquire;
    out.set("acquire_p50_us", "us", lat.quantile_us(0.5));
    out.set("acquire_p99_us", "us", lat.quantile_us(0.99));
    let (label, q) = lat.tail();
    out.note(format!(
        "acquire latency: p50 {:.1} us, p99 {:.1} us, {label} {:.1} us over {} blocking acquires; \
         {} try_now refusals of {} ops",
        lat.quantile_us(0.5),
        lat.quantile_us(0.99),
        lat.quantile_us(q),
        lat.count(),
        tally.refused,
        tally.ops
    ));
}

/// Untraced: `segments` fresh clusters, each loaded for an equal share
/// of `budget`. Throughput and set-up are per-segment samples; latency
/// percentiles pool every segment's acquires.
pub fn run(backend: Backend, shape: Shape, seed: u64, budget: Duration, segments: u32) -> Outcome {
    let mut out = Outcome::default();
    let load = budget / segments;
    let mut all = Tally::default();
    for i in 0..segments {
        let seed = seed.wrapping_add(u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let snapshot = backend == Backend::Threads && i == 0;
        if let Some(seg) = segment(backend, shape, seed, load, snapshot, None, &mut out) {
            sample_segment(&mut out, &seg);
            all.add(seg.tally);
        }
    }
    report_latency(&mut out, &all);
    out
}

/// Traced: one segment with spans around every client call.
pub fn traced(
    backend: Backend,
    shape: Shape,
    seed: u64,
    load: Duration,
    epoch: Instant,
    rec: &mut Recorder,
) -> Outcome {
    let mut out = Outcome::default();
    let mut recs: Vec<Recorder> = (0..CLIENTS)
        .map(|t| Recorder::new(epoch, (t as u64 + 1) << 48))
        .collect();
    let seg = segment(backend, shape, seed, load, false, Some(&mut recs), &mut out);
    for r in recs {
        rec.merge(r);
    }
    let Some(seg) = seg else {
        return out;
    };
    let names = backend.names();
    out.set("grants_per_s", "1/s", seg.load_grants as f64 / seg.load_s);
    let us = |name: &str| rec.totals(name).mean_ns() / 1e3;
    let (try_now, release) = match backend {
        Backend::Threads => ("runtime.try_now_us", "runtime.release_us"),
        Backend::Tcp => ("tcp.try_now_us", "tcp.release_us"),
    };
    out.set(try_now, "us", us(names.try_now));
    out.set(release, "us", us(names.release));
    if backend == Backend::Threads {
        out.set("runtime.abandoned", "count", seg.counts.abandoned as f64);
        out.set(
            "lockspace.keys_materialized",
            "count",
            seg.counts.keys_materialized as f64,
        );
        out.set(
            "lockspace.msgs_per_envelope",
            "msgs",
            seg.counts.messages as f64 / seg.counts.envelopes.max(1) as f64,
        );
    }
    report_latency(&mut out, &seg.tally);
    out
}
