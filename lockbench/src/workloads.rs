//! The four workloads, the metrics they report, and the inputs each
//! one derives from the seed.

use dmx_core::LockId;
use dmx_simnet::{LatencyModel, Time};
use dmx_topology::NodeId;
use dmx_workload::{KeyDist, KeySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which driver a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Engine` + `LockSpace::cluster`.
    Sim,
    /// `ParallelEngine`.
    Parallel,
    /// `LockSpaceCluster`.
    Threads,
    /// `TcpCluster`.
    Tcp,
}

pub const DRIVERS: [Driver; 4] = [Driver::Sim, Driver::Parallel, Driver::Threads, Driver::Tcp];

impl Driver {
    pub fn name(self) -> &'static str {
        match self {
            Driver::Sim => "sim",
            Driver::Parallel => "parallel",
            Driver::Threads => "threads",
            Driver::Tcp => "tcp",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimUniform4096,
    ParZipf64,
    ThreadsZipf64,
    Tcp1Key,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SimUniform4096,
    Workload::ParZipf64,
    Workload::ThreadsZipf64,
    Workload::Tcp1Key,
];

/// The input shape a workload drives: tree size, key space, key skew,
/// and the simulated link delay. Per-layer probes replay a workload's
/// inputs at this shape through every layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub n: usize,
    pub keys: u32,
    /// Zipf exponent 1.1 over the keys when set; uniform otherwise.
    pub zipf: bool,
    pub latency: LatencyModel,
}

impl Shape {
    pub fn dist(&self) -> KeyDist {
        if self.zipf {
            KeyDist::Zipf { exponent: 1.1 }
        } else {
            KeyDist::Uniform
        }
    }

    /// `len` lock requests `(node, key)` drawn from the shape's node
    /// and key distributions: the stream the per-layer replays run.
    pub fn requests(&self, seed: u64, len: usize) -> Vec<(NodeId, LockId)> {
        let sampler = KeySampler::new(self.keys, self.dist());
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let node = NodeId::from_index(rng.gen_range(0..self.n));
                (node, sampler.sample(&mut rng))
            })
            .collect()
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimUniform4096 => "sim-uniform-4096",
            Workload::ParZipf64 => "par-zipf-64",
            Workload::ThreadsZipf64 => "threads-zipf-64",
            Workload::Tcp1Key => "tcp-1key",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn driver(self) -> Driver {
        match self {
            Workload::SimUniform4096 => Driver::Sim,
            Workload::ParZipf64 => Driver::Parallel,
            Workload::ThreadsZipf64 => Driver::Threads,
            Workload::Tcp1Key => Driver::Tcp,
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::SimUniform4096 => Shape {
                n: 127,
                keys: 4096,
                zipf: false,
                // A heavy-tailed delay: `Scheduler::Auto` resolves the
                // event queue to the binary heap.
                latency: LatencyModel::Exponential { mean: Time(4) },
            },
            Workload::ParZipf64 => Shape {
                n: 127,
                keys: 64,
                zipf: true,
                latency: LatencyModel::Fixed(Time(1)),
            },
            Workload::ThreadsZipf64 => Shape {
                n: 31,
                keys: 64,
                zipf: true,
                latency: LatencyModel::Fixed(Time(1)),
            },
            Workload::Tcp1Key => Shape {
                n: 15,
                keys: 1,
                zipf: false,
                latency: LatencyModel::Fixed(Time(1)),
            },
        }
    }
}

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("grants_per_s", "1/s"),
    ("msgs_per_grant", "msgs"),
    ("envelopes_per_grant", "envelopes"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.transition_ns", "ns"),
    ("core.transitions_per_grant", "count"),
    ("core.path_hops_mean", "hops"),
    ("core.path_hops_log2n", "hops"),
    ("simnet.step_ns", "ns"),
    ("simnet.queue_op_ns", "ns"),
    ("simnet.rotations_per_event", "count"),
    ("simnet.wakes_per_grant", "count"),
    ("lockspace.table_lookup_ns", "ns"),
    ("lockspace.keys_materialized", "count"),
    ("lockspace.transport_stage_ns", "ns"),
    ("lockspace.msgs_per_envelope", "msgs"),
    ("parallel.round_us", "us"),
    ("parallel.barrier_wait_share", "ratio"),
    ("parallel.imbalance", "ratio"),
    ("parallel.windows", "count"),
    ("runtime.try_now_us", "us"),
    ("runtime.channel_rtt_us", "us"),
    ("runtime.release_us", "us"),
    ("runtime.abandoned", "count"),
    ("tcp.try_now_us", "us"),
    ("tcp.release_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];
