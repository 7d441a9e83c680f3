//! Consistent cuts of a *live* lock space: Chandy–Lamport marker
//! snapshots over the cluster's transport.
//!
//! [`LockSpaceCluster::snapshot`](crate::LockSpaceCluster::snapshot)
//! (and [`TcpCluster::snapshot`](crate::tcp::TcpCluster::snapshot),
//! whose markers share each socket with the data it carries) captures a
//! [`LockSpaceSnapshot`] from a running threaded cluster without
//! pausing it. The capture is the textbook marker algorithm
//! (Chandy & Lamport 1985), leaning on the one network property this
//! runtime already assumes — per-channel FIFO:
//!
//! 1. A node records its own state (per-key DAG instances, the local
//!    user's held/pending keys) and then sends a marker on every
//!    outgoing channel. Its transport holds no sends at that moment: a
//!    shard flushes after every input, so a message the protocol has
//!    sent is already on its channel.
//! 2. From its cut point until the marker arrives on an incoming
//!    channel, everything received on that channel is recorded as the
//!    channel's in-flight state.
//! 3. A node that sees a marker before any local trigger takes its cut
//!    right then (that channel records nothing).
//!
//! The Chandy–Lamport processes are the cluster's shard threads: shard
//! `w` of every node serves the same keys and talks only to shard `w`
//! of its peers, so each shard index is an independent system over its
//! own FIFO channels, and a node with several shards takes one cut per
//! shard. Because every shard thread is asked to snapshot at once
//! (multi-initiator), each one's cut is triggered by whichever arrives
//! first — the local request or a peer's marker — and the union of
//! slices is still one consistent global cut. A node's shard slices
//! then merge into its one [`NodeCut`]: keys, held and pending keys
//! concatenate, and so does each peer's in-flight recording.
//!
//! [`LockSpaceSnapshot::verify`] then replays the paper's invariant
//! against the cut: every key has **exactly one** privilege — parked in
//! some node's table, recorded in flight, or implicitly at an untouched
//! hub — and the per-key
//! [`KeyedSafetyChecker`] admits the executing set.

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_lockspace::Placement;
use dmx_simnet::checker::{KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::Time;
use dmx_topology::NodeId;

/// One materialized per-key DAG instance, as its node's cut saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCut {
    /// The key this instance serves.
    pub key: LockId,
    /// `true` when the instance held the key's token (privilege).
    pub has_token: bool,
    /// `true` when the local user was inside the critical section.
    pub executing: bool,
    /// `true` when this node had a REQUEST outstanding for the key.
    pub requesting: bool,
}

/// One node's slice of a consistent cut.
#[derive(Debug, Clone)]
pub struct NodeCut {
    /// The node this slice belongs to.
    pub node: NodeId,
    /// Materialized per-key instances at the cut point, sorted by key.
    /// Keys absent everywhere hold their token implicitly at their hub.
    pub keys: Vec<KeyCut>,
    /// Keys the local user held (granted, not yet released).
    pub held: Vec<LockId>,
    /// Keys with an outstanding local acquisition: `(key, abandoned)`.
    pub pending: Vec<(LockId, bool)>,
    /// Channel recordings, indexed by sending peer: messages that
    /// crossed the cut on each incoming channel (received after this
    /// node's cut point, sent before the peer's marker).
    pub in_flight: Vec<Vec<KeyedDagMessage>>,
}

impl NodeCut {
    /// Folds another slice of the same node — one shard thread's — into
    /// this one. Keys are left unsorted.
    pub(crate) fn merge(&mut self, shard: NodeCut) {
        debug_assert_eq!(self.node, shard.node, "slices of different nodes");
        self.keys.extend(shard.keys);
        self.held.extend(shard.held);
        self.pending.extend(shard.pending);
        for (mine, theirs) in self.in_flight.iter_mut().zip(shard.in_flight) {
            mine.extend(theirs);
        }
    }

    /// Keyed messages recorded in flight on this node's incoming
    /// channels.
    pub fn recorded_messages(&self) -> usize {
        self.in_flight.iter().map(Vec::len).sum()
    }
}

/// Why a cut failed [`LockSpaceSnapshot::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotViolation {
    /// A key's cut-wide privilege count differed from exactly one.
    TokenCount {
        /// The offending key.
        key: LockId,
        /// Privileges found across tables, channel recordings, and the
        /// implicit hub token.
        found: usize,
    },
    /// Two nodes were inside the same key's critical section.
    Safety(KeyedViolation),
    /// A node reported a key as held by its user while the key's local
    /// instance was not executing with the token.
    HeldNotExecuting {
        /// The inconsistent node.
        node: NodeId,
        /// The key it claimed to hold.
        key: LockId,
    },
}

/// Aggregate facts [`LockSpaceSnapshot::verify`] establishes about a
/// cut that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotSummary {
    /// Materialized per-key instances, summed over nodes.
    pub materialized: usize,
    /// Keys whose token was parked in some node's table.
    pub tokens_in_tables: usize,
    /// Keys still implicitly held by an untouched hub.
    pub implicit_tokens: usize,
    /// Instances inside their critical section (at most one per key).
    pub executing: usize,
    /// Instances with an outstanding REQUEST.
    pub requesting: usize,
    /// Keyed messages recorded in flight on channels.
    pub recorded_messages: usize,
    /// PRIVILEGE messages among the recorded in-flight traffic.
    pub privileges_in_flight: usize,
}

/// A consistent global cut of a running lock space: one [`NodeCut`]
/// per node (sorted by node id) plus the placement needed to account
/// for never-materialized keys.
#[derive(Debug, Clone)]
pub struct LockSpaceSnapshot {
    keys: u32,
    placement: Placement,
    cuts: Vec<NodeCut>,
}

impl LockSpaceSnapshot {
    pub(crate) fn new(keys: u32, placement: Placement, cuts: Vec<NodeCut>) -> Self {
        LockSpaceSnapshot {
            keys,
            placement,
            cuts,
        }
    }

    /// Number of keys the captured space serves.
    pub fn keys(&self) -> u32 {
        self.keys
    }

    /// Number of nodes in the cut.
    pub fn nodes(&self) -> usize {
        self.cuts.len()
    }

    /// The per-node slices, sorted by node id.
    pub fn cuts(&self) -> &[NodeCut] {
        &self.cuts
    }

    /// Keyed messages the cut caught in flight, recorded on a channel.
    pub fn in_flight_messages(&self) -> usize {
        self.cuts.iter().map(NodeCut::recorded_messages).sum()
    }

    /// Checks the paper's safety invariant against the cut.
    ///
    /// Exactly one privilege must exist per key — parked in a table,
    /// recorded in flight on a channel, or implicit at a hub no traffic ever touched — and the executing
    /// set must satisfy the per-key [`KeyedSafetyChecker`] (plus each
    /// node's held keys matching an executing, token-holding local
    /// instance).
    ///
    /// # Errors
    ///
    /// The first [`SnapshotViolation`] found, if the cut is
    /// inconsistent.
    pub fn verify(&self) -> Result<SnapshotSummary, SnapshotViolation> {
        let keys = self.keys as usize;
        let n = self.cuts.len();
        let mut tokens = vec![0usize; keys];
        let mut hub_materialized = vec![false; keys];
        let mut safety = KeyedSafetyChecker::with_keys(keys);
        let mut summary = SnapshotSummary::default();

        for cut in &self.cuts {
            for kc in &cut.keys {
                summary.materialized += 1;
                if kc.has_token {
                    tokens[kc.key.index()] += 1;
                    summary.tokens_in_tables += 1;
                }
                if kc.executing {
                    summary.executing += 1;
                    safety
                        .on_enter(kc.key.index(), cut.node, Time::ZERO)
                        .map_err(SnapshotViolation::Safety)?;
                }
                if kc.requesting {
                    summary.requesting += 1;
                }
                if cut.node == self.placement.hub(kc.key, n) {
                    hub_materialized[kc.key.index()] = true;
                }
            }
            for &held in &cut.held {
                let ok = cut
                    .keys
                    .iter()
                    .any(|kc| kc.key == held && kc.executing && kc.has_token);
                if !ok {
                    return Err(SnapshotViolation::HeldNotExecuting {
                        node: cut.node,
                        key: held,
                    });
                }
            }
            for msg in cut.in_flight.iter().flatten() {
                summary.recorded_messages += 1;
                if matches!(msg.msg, DagMessage::Privilege) {
                    tokens[msg.lock.index()] += 1;
                    summary.privileges_in_flight += 1;
                }
            }
        }

        for key in 0..keys {
            // A key nobody ever touched holds its token implicitly at
            // its hub: materializing the hub instance is what turns the
            // implicit token into a table entry.
            let implicit = !hub_materialized[key];
            summary.implicit_tokens += usize::from(implicit);
            let found = tokens[key] + usize::from(implicit);
            if found != 1 {
                return Err(SnapshotViolation::TokenCount {
                    key: LockId(key as u32),
                    found,
                });
            }
        }
        Ok(summary)
    }
}
