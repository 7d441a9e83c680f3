//! The lock space's transport: staging, destination grouping, and
//! pooled envelopes.
//!
//! Every lock driver that puts keyed messages on a wire stages them in
//! a per-node [`Transport`] and flushes them as a group, one envelope
//! per destination:
//!
//! * the simulated [`LockSpace`](crate::LockSpace) flushes at the end
//!   of the tick the traffic was produced in, through one wake booked
//!   with the engine's `Ctx::wake_at` timer facility;
//! * the [`parallel`](crate::parallel) engine's shards group each
//!   finished tick's sends per source node into exchange records;
//! * the threaded `LockSpaceCluster` in `dmx-runtime` has no ticks: its
//!   shard threads flush after every input they apply.
//!
//! Grouping is all the transport does. The paper sends each REQUEST
//! and PRIVILEGE as soon as it is produced, and per-tick grouping keeps
//! that: no message waits past the tick (or the input) that produced
//! it.
//!
//! ## Why there are no coalescing windows
//!
//! Earlier versions could also hold traffic for several ticks
//! (`Window(k)`) or until batches were fat (`Adaptive`). Lavault's
//! path-reversal analysis bounds the hops per grant, and a window can
//! only add delay to each of those hops. Measured, it never paid: in
//! the 64-key simulator cell `Window(4)` cut envelopes by 4% while mean
//! wait rose from 9.78 to 34.2 ticks, and `Adaptive` cut 20% at 8.6×
//! the wait, with no gain in events/s. On the threaded cluster every
//! window cut envelopes per grant by only 1.4%, and flushing after
//! every input served the most grants/s. So both policies were
//! deleted.
//!
//! ## Grouping
//!
//! Staged sends are grouped by destination with a stable counting sort
//! — O(messages + destinations) per flush over buffers that persist
//! across flushes, so the steady-state hot path performs **zero heap
//! allocations** (pinned by the umbrella crate's `alloc_free` test).
//! Group assignment happens at [`Transport::stage`] time.
//! Multi-message groups leave as pooled [`Envelope::Batch`] payloads
//! drawn from a [`BatchPool`]; lone messages go as [`Envelope::One`].

use dmx_core::{DagMessage, KeyedDagMessage, LockId};
use dmx_simnet::Time;
use dmx_topology::NodeId;

use crate::envelope::Envelope;

/// When staged traffic leaves the node: at the end of the tick that
/// produced it, the only policy there is.
///
/// Vestigial: the benchmark harness still names `FlushPolicy::EveryTick`,
/// `LockSpaceClusterConfig::flush` and the policy argument of
/// [`Transport::new`], so all three stay until the next change to the
/// benchmark deletes them together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Flush at the end of the tick that produced the traffic: one
    /// envelope per destination per busy tick, no added latency.
    #[default]
    EveryTick,
}

/// Recycled [`Envelope::Batch`] payload buffers: a batch `Vec` is taken
/// at flush time and returned (drained) by whoever unwraps the
/// envelope, so steady-state batching allocates nothing.
///
/// The free list is capped at [`BatchPool::CAP`]: in the simulated lock
/// space every `put` matches an earlier `take` from the *same shared*
/// pool, so the cap is never reached — but the threaded cluster's pools
/// are per-node and receive other nodes' buffers, and a node that
/// receives more batches than it sends (a leaf under a chatty hub)
/// would otherwise accumulate buffers without bound.
#[derive(Debug, Default)]
pub struct BatchPool {
    free: Vec<Vec<KeyedDagMessage>>,
}

impl BatchPool {
    /// Most buffers the pool parks; beyond it, returned buffers are
    /// simply dropped. Far above any steady-state take/put imbalance a
    /// single simulated run exhibits, small enough to bound a
    /// net-receiver node's memory in the threaded runtime.
    pub const CAP: usize = 1024;

    /// An empty pool.
    pub fn new() -> Self {
        BatchPool::default()
    }

    /// An empty payload buffer (recycled if one is free).
    pub fn take(&mut self) -> Vec<KeyedDagMessage> {
        let batch = self.free.pop().unwrap_or_default();
        debug_assert!(batch.is_empty(), "pooled batches return drained");
        batch
    }

    /// Returns a drained payload buffer for reuse (dropped instead if
    /// the pool is already at [`BatchPool::CAP`]).
    pub fn put(&mut self, mut batch: Vec<KeyedDagMessage>) {
        if self.free.len() >= Self::CAP {
            return;
        }
        batch.clear();
        self.free.push(batch);
    }

    /// Buffers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// `true` when no buffer is parked.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// One destination's slice of the next flush.
#[derive(Debug, Clone, Copy)]
struct Group {
    dst: NodeId,
    count: usize,
    cursor: usize,
}

/// Per-node transport: stages keyed sends, groups them by destination,
/// and flushes one envelope per destination.
///
/// [`Transport::after_dispatch`] and [`Transport::flush_due`] book and
/// answer the simulated lock space's end-of-tick flush wake; the
/// tickless threaded cluster calls [`Transport::flush`] directly after
/// every input.
///
/// # Examples
///
/// ```
/// use dmx_core::{DagMessage, KeyedDagMessage, LockId};
/// use dmx_lockspace::{BatchPool, FlushPolicy, Transport};
/// use dmx_topology::NodeId;
///
/// let mut transport = Transport::new(4, FlushPolicy::EveryTick);
/// let mut pool = BatchPool::new();
/// for key in [0u32, 1, 2] {
///     transport.stage(NodeId(3), KeyedDagMessage {
///         lock: LockId(key),
///         msg: DagMessage::Privilege,
///     });
/// }
/// let mut envelopes = 0;
/// transport.flush(&mut pool, |_to, envelope| {
///     assert_eq!(envelope.len(), 3); // one batch, three keys
///     envelopes += 1;
/// });
/// assert_eq!(envelopes, 1);
/// ```
#[derive(Debug)]
pub struct Transport {
    /// Sends staged since the last flush, in stage order.
    staging: Vec<(NodeId, KeyedDagMessage)>,
    /// Group index per destination (`u32::MAX` = none yet); reset at
    /// flush.
    dst_group: Vec<u32>,
    /// One entry per destination of the pending flush, in
    /// first-appearance order.
    groups: Vec<Group>,
    /// Flush scratch: staging re-ordered into per-destination slices.
    sorted: Vec<KeyedDagMessage>,
    /// The tick the pending flush is booked for, if any (simulated
    /// runtime only).
    flush_at: Option<Time>,
}

impl Transport {
    /// A transport for an `n`-node system. `_policy` is vestigial (see
    /// [`FlushPolicy`]).
    pub fn new(n: usize, _policy: FlushPolicy) -> Self {
        Transport {
            staging: Vec::new(),
            dst_group: vec![u32::MAX; n],
            groups: Vec::new(),
            sorted: Vec::new(),
            flush_at: None,
        }
    }

    /// Messages staged for the next flush.
    pub fn staged(&self) -> usize {
        self.staging.len()
    }

    /// Distinct destinations among the staged messages.
    pub fn destinations(&self) -> usize {
        self.groups.len()
    }

    /// Stages one keyed send for `to`, assigning it to its
    /// destination's group (created on first appearance, so flush-time
    /// envelope order is first-appearance order).
    pub fn stage(&mut self, to: NodeId, msg: KeyedDagMessage) {
        let slot = &mut self.dst_group[to.index()];
        if *slot == u32::MAX {
            *slot = self.groups.len() as u32;
            self.groups.push(Group {
                dst: to,
                count: 0,
                cursor: 0,
            });
        }
        self.groups[*slot as usize].count += 1;
        self.staging.push((to, msg));
    }

    /// Ends one simulated dispatch: returns the tick to book a flush
    /// wake for — `now`, the end of this tick — unless nothing is
    /// staged or that wake is already booked.
    pub fn after_dispatch(&mut self, now: Time) -> Option<Time> {
        if self.staging.is_empty() || self.flush_at == Some(now) {
            return None;
        }
        self.flush_at = Some(now);
        Some(now)
    }

    /// `true` iff the pending flush is booked for `now`; consumes the
    /// booking. The simulated node calls this from `on_wake` and
    /// flushes when it returns `true`; a wake with no flush booked for
    /// its tick (a release or an arrival) returns `false`.
    pub fn flush_due(&mut self, now: Time) -> bool {
        if self.flush_at == Some(now) {
            self.flush_at = None;
            true
        } else {
            false
        }
    }

    /// Transmits everything staged, grouped by destination
    /// (first-appearance order, per-destination message order
    /// preserved): one pooled [`Envelope::Batch`] per destination with
    /// several messages, a bare [`Envelope::One`] otherwise.
    ///
    /// Grouping finishes the stable counting sort started at
    /// [`Transport::stage`] — prefix sums plus one distribution pass —
    /// over buffers that persist across flushes, so the steady-state
    /// hot path stays allocation-free.
    pub fn flush(&mut self, pool: &mut BatchPool, mut send: impl FnMut(NodeId, Envelope)) {
        if self.staging.is_empty() {
            return;
        }
        // Prefix sums: each group's cursor starts at its slice's offset.
        let mut offset = 0;
        for g in &mut self.groups {
            g.cursor = offset;
            offset += g.count;
        }
        // Distribute into the per-destination slices, stably.
        const FILLER: KeyedDagMessage = KeyedDagMessage {
            lock: LockId(0),
            msg: DagMessage::Privilege,
        };
        self.sorted.clear();
        self.sorted.resize(self.staging.len(), FILLER);
        for &(dst, keyed) in &self.staging {
            let g = &mut self.groups[self.dst_group[dst.index()] as usize];
            self.sorted[g.cursor] = keyed;
            g.cursor += 1;
        }
        // One envelope per destination.
        for gi in 0..self.groups.len() {
            let Group { dst, count, cursor } = self.groups[gi];
            let slice = &self.sorted[cursor - count..cursor];
            if count == 1 {
                send(dst, Envelope::One(slice[0]));
            } else {
                let mut batch = pool.take();
                batch.extend_from_slice(slice);
                send(dst, Envelope::Batch(batch));
            }
            self.dst_group[dst.index()] = u32::MAX;
        }
        self.groups.clear();
        self.staging.clear();
    }

    /// Drains the staged messages one [`Envelope::One`] each, in stage
    /// order — the batching-off path, where per-key traffic matches an
    /// equivalent single-lock run message for message.
    pub fn drain_unbatched(&mut self, mut send: impl FnMut(NodeId, KeyedDagMessage)) {
        for &(to, keyed) in &self.staging {
            send(to, keyed);
        }
        for g in &self.groups {
            self.dst_group[g.dst.index()] = u32::MAX;
        }
        self.groups.clear();
        self.staging.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(key: u32) -> KeyedDagMessage {
        KeyedDagMessage {
            lock: LockId(key),
            msg: DagMessage::Privilege,
        }
    }

    fn request(key: u32, from: u32, origin: u32) -> KeyedDagMessage {
        KeyedDagMessage {
            lock: LockId(key),
            msg: DagMessage::Request {
                from: NodeId(from),
                origin: NodeId(origin),
            },
        }
    }

    #[test]
    fn flush_groups_by_destination_in_first_appearance_order() {
        let mut t = Transport::new(8, FlushPolicy::EveryTick);
        let mut pool = BatchPool::new();
        t.stage(NodeId(5), keyed(0));
        t.stage(NodeId(2), keyed(1));
        t.stage(NodeId(5), request(2, 0, 0));
        t.stage(NodeId(2), keyed(3));
        t.stage(NodeId(7), keyed(4));
        assert_eq!(t.staged(), 5);
        assert_eq!(t.destinations(), 3);
        let mut out = Vec::new();
        t.flush(&mut pool, |to, env| out.push((to, env)));
        assert_eq!(out.len(), 3);
        // First-appearance order: 5, 2, 7; per-destination order stable.
        assert_eq!(out[0].0, NodeId(5));
        assert_eq!(out[0].1, Envelope::Batch(vec![keyed(0), request(2, 0, 0)]));
        assert_eq!(out[1].0, NodeId(2));
        assert_eq!(out[1].1, Envelope::Batch(vec![keyed(1), keyed(3)]));
        assert_eq!(out[2].0, NodeId(7));
        assert_eq!(out[2].1, Envelope::One(keyed(4)));
        assert_eq!(t.staged(), 0);
        assert_eq!(t.destinations(), 0);
    }

    #[test]
    fn pool_recycles_batch_buffers() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        let mut pool = BatchPool::new();
        t.stage(NodeId(1), keyed(0));
        t.stage(NodeId(1), keyed(1));
        let mut returned = None;
        t.flush(&mut pool, |_, env| {
            if let Envelope::Batch(b) = env {
                returned = Some(b);
            }
        });
        assert!(pool.is_empty());
        pool.put(returned.expect("a batch formed"));
        assert_eq!(pool.len(), 1);
        let recycled = pool.take();
        assert!(recycled.is_empty() && recycled.capacity() >= 2);
    }

    #[test]
    fn every_tick_books_one_wake_per_tick() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        t.stage(NodeId(1), keyed(0));
        assert_eq!(t.after_dispatch(Time(7)), Some(Time(7)));
        t.stage(NodeId(2), keyed(1));
        assert_eq!(t.after_dispatch(Time(7)), None, "already booked this tick");
        assert!(!t.flush_due(Time(6)));
        assert!(t.flush_due(Time(7)));
        assert!(!t.flush_due(Time(7)), "booking is consumed");
    }

    #[test]
    fn pool_cap_bounds_a_net_receiver() {
        let mut pool = BatchPool::new();
        for _ in 0..BatchPool::CAP + 50 {
            pool.put(vec![keyed(0)]);
        }
        assert_eq!(pool.len(), BatchPool::CAP, "excess buffers are dropped");
    }

    #[test]
    fn drain_unbatched_preserves_stage_order_and_resets() {
        let mut t = Transport::new(4, FlushPolicy::EveryTick);
        t.stage(NodeId(1), keyed(0));
        t.stage(NodeId(2), keyed(1));
        t.stage(NodeId(1), keyed(2));
        let mut out = Vec::new();
        t.drain_unbatched(|to, m| out.push((to, m)));
        assert_eq!(
            out,
            vec![
                (NodeId(1), keyed(0)),
                (NodeId(2), keyed(1)),
                (NodeId(1), keyed(2))
            ]
        );
        assert_eq!(t.staged(), 0);
        // The destination map is clean: staging again starts fresh groups.
        t.stage(NodeId(1), keyed(3));
        assert_eq!(t.destinations(), 1);
    }
}
