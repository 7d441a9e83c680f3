//! Threaded runtimes for the DAG mutual exclusion algorithm: a
//! *distributed lock* you can actually take, behind one unified client
//! API.
//!
//! Two backends implement the same [`LockService`], hand out the same
//! [`LockClient`]/[`LockGuard`] pair, and run the same node loop — one
//! thread per node shard over a [`KeyedNode`](dmx_lockspace::KeyedNode)
//! core and the simulator's coalescing transport:
//!
//! * [`LockSpaceCluster`] — the sharded multi-key lock service over
//!   crossbeam channels (per-sender FIFO, the paper's only network
//!   assumption). One key placed at the initial holder,
//!   `Placement::Hub(holder)`, is the paper's single lock;
//! * [`tcp::TcpCluster`] — the same loop with one key over loopback
//!   sockets, one thread per node.
//!
//! Both return [`LockSpaceStats`] and take Chandy–Lamport snapshots
//! ([`LockService::snapshot`]) while the lock is in use.
//!
//! Acquisition is a builder — [`LockClient::lock`] then one of
//! [`wait`](LockRequest::wait), [`try_now`](LockRequest::try_now),
//! [`timeout`](LockRequest::timeout), [`deadline`](LockRequest::deadline)
//! — and multi-key acquisition ([`LockClient::lock_many`]) takes keys
//! in sorted order, so overlapping key sets never deadlock:
//!
//! ```
//! use dmx_core::LockId;
//! use dmx_lockspace::Placement;
//! use dmx_runtime::LockSpaceCluster;
//! use dmx_topology::{NodeId, Tree};
//! use std::time::Duration;
//!
//! // One lock, token at leaf 1 — the star's worst case for node 2.
//! let (cluster, mut clients) =
//!     LockSpaceCluster::start(&Tree::star(4), 1, Placement::Hub(NodeId(1)));
//! {
//!     let _guard = clients[2].lock(LockId(0)).wait()?; // token travels to node 2
//!     // ... critical section ...
//! } // guard drop releases; the token stays parked at node 2
//! assert!(clients[2].lock(LockId(0)).try_now().is_ok()); // parked: free reentry
//! assert!(clients[1]
//!     .lock(LockId(0))
//!     .timeout(Duration::from_secs(5))?
//!     .key() == LockId(0));
//! let stats = cluster.shutdown();
//! assert_eq!(stats.entries, 3);
//! assert_eq!(stats.messages_total, 3 + 3); // the paper's star bound, twice
//! # Ok::<(), dmx_runtime::LockError>(())
//! ```
//!
//! The same pure [`dmx_core::DagNode`] state machine that the
//! deterministic simulator drives also runs here, so every property the
//! simulator's checkers establish carries over to the threaded build —
//! and a scripted client session ([`run_script`]) reproduces the
//! simulator's outcomes step for step (see [`service`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod lockspace;
pub mod service;
pub mod snapshot;
pub mod tcp;

pub use client::{run_script, LockClient, LockGuard, LockRequest, MultiGuard, MultiRequest};
pub use lockspace::{LockSpaceCluster, LockSpaceClusterConfig, LockSpaceNodeStats, LockSpaceStats};
pub use service::{LockError, LockService};
pub use snapshot::{KeyCut, LockSpaceSnapshot, NodeCut, SnapshotSummary, SnapshotViolation};
