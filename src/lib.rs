//! # dagmutex — Neilsen's DAG-based distributed mutual exclusion
//!
//! A full reproduction of *"A DAG-Based Algorithm for Distributed Mutual
//! Exclusion"* (Neilsen, 1989; Neilsen & Mizuno, ICDCS 1991): the
//! algorithm itself, every baseline it is compared against, a
//! deterministic simulator with safety/liveness checkers, a threaded
//! distributed-lock runtime, and a harness regenerating every table and
//! figure of the evaluation chapter.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] — the DAG algorithm ([`core::DagNode`],
//!   [`core::DagProtocol`], [`core::implicit_queue`]).
//! * [`topology`] — trees, orientations, quorum systems.
//! * [`simnet`] — the discrete-event engine, metrics, checkers, traces.
//! * [`baselines`] — Lamport, Ricart–Agrawala, Carvalho–Roucairol,
//!   Suzuki–Kasami, Singhal, Maekawa, Raymond, and a centralized
//!   coordinator.
//! * [`workload`] — request-arrival generators, single-lock and keyed.
//! * [`lockspace`] — the sharded multi-lock service: thousands of
//!   independent DAG-protocol locks multiplexed over one network, with
//!   per-destination batching ([`lockspace::LockSpace`]).
//! * [`runtime`] — the distributed lock over sharded threads + channels
//!   ([`runtime::LockSpaceCluster`], one key or many) or loopback TCP
//!   ([`runtime::tcp::TcpCluster`], one key) — both running one node
//!   loop behind one [`runtime::LockService`] API: RAII guards,
//!   `try_now`/`timeout`/`deadline` request shaping, deadlock-free
//!   multi-key `lock_many`, and live consistent snapshots.
//! * [`harness`] — the per-table experiment drivers.
//!
//! Extras beyond the paper: Graphviz rendering of live protocol state
//! ([`core::render`]), weighted hub-placement optimization
//! ([`topology::placement`]), and message-loss fault injection
//! ([`simnet::EngineConfig`]'s `drop_rate`).
//!
//! # Quickstart
//!
//! Take the distributed lock on a 5-node star — one key, its token
//! initially at node 0:
//!
//! ```
//! use dagmutex::core::LockId;
//! use dagmutex::lockspace::Placement;
//! use dagmutex::runtime::LockSpaceCluster;
//! use dagmutex::topology::{NodeId, Tree};
//!
//! let (cluster, mut clients) =
//!     LockSpaceCluster::start(&Tree::star(5), 1, Placement::Hub(NodeId(0)));
//! {
//!     let _guard = clients[3].lock(LockId(0)).wait()?;
//!     // critical section: the token (PRIVILEGE) is at node 3
//! }
//! // The token parked at node 3, so reentry is free — and `try_now`
//! // proves it without sending a single message.
//! assert!(clients[3].lock(LockId(0)).try_now().is_ok());
//! let stats = cluster.shutdown();
//! assert_eq!(stats.entries, 2);
//! # Ok::<(), dagmutex::runtime::LockError>(())
//! ```
//!
//! Or measure it in the simulator, as the experiments do:
//!
//! ```
//! use dagmutex::core::DagProtocol;
//! use dagmutex::simnet::{Engine, EngineConfig, Time};
//! use dagmutex::topology::{NodeId, Tree};
//!
//! let nodes = DagProtocol::cluster(&Tree::star(5), NodeId(1));
//! let mut engine = Engine::new(nodes, EngineConfig::default());
//! engine.request_at(Time(0), NodeId(2));
//! let report = engine.run_to_quiescence()?;
//! assert_eq!(report.metrics.messages_total, 3); // the paper's bound
//! # Ok::<(), dagmutex::simnet::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dmx_baselines as baselines;
pub use dmx_core as core;
pub use dmx_harness as harness;
pub use dmx_lockspace as lockspace;
pub use dmx_runtime as runtime;
pub use dmx_simnet as simnet;
pub use dmx_topology as topology;
pub use dmx_workload as workload;
