//! `dmx-lockspace` — a sharded multi-lock service multiplexing many
//! DAG-protocol instances over one network.
//!
//! Everything else in this workspace arbitrates exactly *one* critical
//! section. A production lock service arbitrates **many independent
//! named locks** — and the paper's algorithm is the ideal per-key
//! primitive for that: per-key state is just `HOLDING`/`NEXT`/`FOLLOW`
//! (three words), messages are O(log n) per entry on good topologies,
//! and there is no central queue to shard. This crate hosts `K`
//! independent lock instances behind a single [`Protocol`] impl per
//! node, so one deterministic engine run carries traffic for thousands
//! of keys over shared FIFO links:
//!
//! * [`KeyedNode`] (the [`keyed`] module) — the one keyed node core
//!   every driver runs: a node's per-key [`DagNode`](dmx_core::DagNode)s
//!   behind four sans-IO calls (`request`, `try_request`, `release`,
//!   `deliver`) that append keyed sends and entries to a caller-owned
//!   buffer. The four drivers — [`LockSpaceNode`], [`ScriptedClient`],
//!   the [`parallel`] engine's shards, and `dmx-runtime`'s threaded
//!   shard loop (over channels or sockets) — are thin adapters over it
//!   that keep only their I/O, their clock, and their user-side policy;
//! * [`LockTable`] — the core's sharded `LockId -> instance` map, lazily
//!   materialized so untouched keys cost nothing;
//! * [`Envelope`] — the wire format: one delivery carries one keyed
//!   message, or (batching on) *many keys'* messages for the same
//!   destination, with pooled payload buffers so the steady-state hot
//!   path stays allocation-free;
//! * [`Transport`] — the grouping layer every lock-space driver
//!   (this crate's simulated and parallel ones and `dmx-runtime`'s
//!   threaded cluster) shares: staged sends, grouped by destination
//!   per tick (or, tickless, per input) into pooled envelopes;
//! * [`LockSpace`]/[`LockSpaceNode`] — the per-node protocol driving
//!   request arrivals and hold durations off the engine's timer facility
//!   (the engine's single-lock safety machinery cannot describe K
//!   concurrently-held keys);
//! * [`LockSpaceMonitor`] — per-key safety/liveness verdicts and per-key
//!   metric rollups, backed by the keyed oracles in `dmx-simnet`;
//! * [`ScriptedClient`]/[`SessionMonitor`] (the [`session`] module) —
//!   sim-parity client sessions: the same lock/try/timeout/deadline/
//!   multi-key [`Script`](dmx_workload::Script) that runs against the
//!   threaded clusters runs here under the deterministic engine, with
//!   identical per-step outcomes.
//!
//! [`Protocol`]: dmx_simnet::Protocol
//!
//! # Examples
//!
//! Sixty-four keys over a 15-node tree under Zipf-skewed demand:
//!
//! ```
//! use dmx_lockspace::{LockSpace, LockSpaceConfig};
//! use dmx_simnet::{Engine, EngineConfig, LatencyModel, Time};
//! use dmx_topology::Tree;
//! use dmx_workload::{KeyDist, KeyedThinkTime};
//!
//! let tree = Tree::kary(15, 2);
//! let workload = KeyedThinkTime::new(
//!     64,
//!     KeyDist::Zipf { exponent: 1.2 },
//!     LatencyModel::Fixed(Time(3)),
//!     10, // rounds per node
//!     42,
//! );
//! let config = LockSpaceConfig { keys: 64, ..LockSpaceConfig::default() };
//! let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
//!
//! let mut engine = Engine::new(nodes, EngineConfig::default());
//! engine.run_to_quiescence()?;
//! monitor.check_quiescent().expect("per-key safety and liveness hold");
//!
//! let rollup = monitor.rollup();
//! assert_eq!(rollup.grants, 15 * 10);
//! assert!(rollup.keys_touched > 1, "Zipf still spreads past key 0");
//! assert!(monitor.peak_concurrent_holders() > 1, "distinct keys overlap");
//! # Ok::<(), dmx_simnet::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
pub mod keyed;
pub mod parallel;
pub mod session;
mod space;
mod table;
pub mod transport;

pub use envelope::{Envelope, BATCH_HEADER_BYTES};
pub use keyed::{Effect, KeyedNode, OrientationCache, Placement, Seeds};
pub use parallel::{ParallelConfig, ParallelEngine, ParallelReport, ShardMap, WindowPolicy};
pub use session::{ScriptedClient, SessionConfig, SessionMonitor};
pub use space::{LockSpace, LockSpaceConfig, LockSpaceMonitor, LockSpaceNode};
pub use table::LockTable;
pub use transport::{BatchPool, FlushPolicy, Transport};
