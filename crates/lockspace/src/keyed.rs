//! The keyed node core: one node's per-key DAG instances behind four
//! sans-IO calls.
//!
//! Every lock-space driver in this workspace — the simulated
//! [`LockSpaceNode`](crate::LockSpaceNode), the
//! [`ScriptedClient`](crate::ScriptedClient) session executor, the
//! parallel engine's shards, and `dmx-runtime`'s threaded shard loop
//! (over channels or sockets) — hosts the same thing per node: a lazily
//! filled [`LockTable`] of [`DagNode`]s, one per key the node has seen
//! traffic for. [`KeyedNode`] is that table plus the only code that
//! drives it:
//!
//! * [`KeyedNode::request`] — the local user wants a key (`P1`);
//! * [`KeyedNode::try_request`] — the same, but only if the key's token
//!   is parked here and idle (never sends a message);
//! * [`KeyedNode::release`] — the local user leaves a key's critical
//!   section;
//! * [`KeyedNode::deliver`] — a keyed `REQUEST` or `PRIVILEGE` arrived
//!   (`P2` / the end of `P1`).
//!
//! Each call appends its [`Effect`]s — keyed sends and local entries —
//! to a buffer the caller owns, in exactly the order the [`DagNode`]
//! emitted them. The core does no I/O and keeps no clock: the drivers
//! are thin adapters that move effects onto their wire (engine
//! messages, shard event queues, channels, sockets), and keep their own
//! user-side policy (closed-loop phases, session scripts, arrival
//! FIFOs, pending/abandon sets).
//!
//! Instances materialize on first touch from a [`Seeds`]: the tree,
//! the key's [`Placement`] hub, and a lazily filled per-hub
//! [`OrientationCache`]. A payload slot of the driver's choosing sits
//! next to every instance, so per-key driver state (the parallel
//! engine's queue of paced arrivals) rides on the same table lookup.

use std::sync::Arc;

use dmx_core::{Action, DagMessage, DagNode, KeyedDagMessage, LockId};
use dmx_topology::{NodeId, Orientation, Tree};

use crate::table::LockTable;

/// Where each key's token starts (its *hub*): the sink of the key's
/// initial orientation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Key `k`'s hub is node `k mod n` — spreads the key space evenly
    /// over the nodes, the sharded-service default.
    Modulo,
    /// Every key's hub is one designated node — a centralized lock
    /// server built out of K DAG instances.
    Hub(NodeId),
    /// Per-key hub map: key `k`'s hub is `profile[k mod profile.len()]`
    /// — skew-aware placement, seeding each key's orientation DAG at
    /// the node a popularity profile names as its hottest (e.g. a
    /// workload's [`hub_profile`](dmx_workload::KeyedAffinity::hub_profile)).
    Profile(Arc<Vec<NodeId>>),
}

impl Placement {
    /// The hub node for `key` in an `n`-node space.
    ///
    /// # Panics
    ///
    /// Panics if the placement is an empty [`Placement::Profile`]
    /// (rejected earlier by [`Placement::validate`]).
    pub fn hub(&self, key: LockId, n: usize) -> NodeId {
        match self {
            Placement::Modulo => NodeId(key.0 % n as u32),
            Placement::Hub(h) => *h,
            Placement::Profile(p) => p[key.index() % p.len()],
        }
    }

    /// Checks the placement against an `n`-node space. Every lock-space
    /// constructor calls this once, before any key materializes.
    ///
    /// # Panics
    ///
    /// Panics if a [`Placement::Hub`] names a node outside `0..n`, or a
    /// [`Placement::Profile`] is empty or names a node outside `0..n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmx_lockspace::Placement;
    /// use dmx_topology::NodeId;
    ///
    /// Placement::Hub(NodeId(3)).validate(4);
    /// assert!(std::panic::catch_unwind(|| Placement::Hub(NodeId(4)).validate(4)).is_err());
    /// ```
    pub fn validate(&self, n: usize) {
        match self {
            Placement::Modulo => {}
            Placement::Hub(h) => assert!(h.index() < n, "hub {h} out of range for {n} nodes"),
            Placement::Profile(p) => {
                assert!(
                    !p.is_empty(),
                    "placement profile must name at least one hub"
                );
                for h in p.iter() {
                    assert!(h.index() < n, "profile hub {h} out of range for {n} nodes");
                }
            }
        }
    }

    /// The materialization seed: a fresh [`DagNode`] for `(me, key)`
    /// carrying `me`'s *initial* `NEXT` pointer toward the key's hub.
    /// Lazy materialization with this seed is sound no matter when it
    /// happens — see the [`table`](crate::table) module docs.
    pub fn initial_instance(
        &self,
        key: LockId,
        me: NodeId,
        tree: &Tree,
        cache: &mut OrientationCache,
    ) -> DagNode {
        let hub = self.hub(key, tree.len());
        DagNode::new(me, cache.next_hop(tree, hub, me))
    }
}

/// Lazily-filled cache of per-hub [`Orientation`]s: hub orientations are
/// computed on first touch (an O(n) walk each), so untouched hubs cost
/// nothing — the per-hub analogue of the lock table's lazy instances.
#[derive(Debug, Clone)]
pub struct OrientationCache {
    slots: Vec<Option<Orientation>>,
}

impl OrientationCache {
    /// An empty cache for an `n`-node tree.
    pub fn new(n: usize) -> Self {
        OrientationCache {
            slots: vec![None; n],
        }
    }

    /// `me`'s initial `NEXT` pointer toward `hub` (`None` when `me` *is*
    /// the hub), computing and caching `hub`'s orientation on first use.
    ///
    /// # Panics
    ///
    /// Panics if `hub` is out of range for `tree` or the cache.
    pub fn next_hop(&mut self, tree: &Tree, hub: NodeId, me: NodeId) -> Option<NodeId> {
        if self.slots[hub.index()].is_none() {
            self.slots[hub.index()] = Some(tree.orient_toward(hub));
        }
        self.slots[hub.index()]
            .as_ref()
            .expect("just cached")
            .next_hop(me)
    }
}

/// Everything an instance materializes from: the tree, the placement,
/// and the per-hub orientation cache. One `Seeds` serves any number of
/// [`KeyedNode`]s over the same tree (a whole simulated space, a
/// parallel shard, a threaded worker), so the cache is filled once per
/// owner rather than once per node.
#[derive(Debug, Clone)]
pub struct Seeds {
    tree: Arc<Tree>,
    placement: Placement,
    orientations: OrientationCache,
}

impl Seeds {
    /// Seeds for `tree` under `placement`, with an empty cache.
    pub fn new(tree: Arc<Tree>, placement: Placement) -> Self {
        let orientations = OrientationCache::new(tree.len());
        Seeds {
            tree,
            placement,
            orientations,
        }
    }

    fn instance(&mut self, key: LockId, me: NodeId) -> DagNode {
        self.placement
            .initial_instance(key, me, &self.tree, &mut self.orientations)
    }
}

/// One effect of a [`KeyedNode`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Transmit `msg` to neighbour `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The keyed protocol message.
        msg: KeyedDagMessage,
    },
    /// The local user entered the key's critical section.
    Enter(LockId),
}

/// Appends `key`'s translation of the instance's buffered actions to
/// `out`, in emission order, leaving `actions` empty.
fn emit(key: LockId, actions: &mut Vec<Action>, out: &mut Vec<Effect>) {
    out.extend(actions.drain(..).map(|action| match action {
        Action::Send { to, message } => Effect::Send {
            to,
            msg: KeyedDagMessage {
                lock: key,
                msg: message,
            },
        },
        Action::Enter => Effect::Enter(key),
    }));
}

/// One node's keyed core; see the [module docs](self).
///
/// `P` is a per-key payload the driver stores next to each instance
/// (`()` when it needs none).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dmx_core::LockId;
/// use dmx_lockspace::{Effect, KeyedNode, Placement, Seeds};
/// use dmx_topology::{NodeId, Tree};
///
/// let tree = Arc::new(Tree::line(3));
/// let mut seeds = Seeds::new(tree, Placement::Hub(NodeId(0)));
/// let mut hub: KeyedNode = KeyedNode::new(NodeId(0), 4);
/// let mut out = Vec::new();
///
/// // The hub holds every key's token: a request enters at once.
/// hub.request(LockId(7), &mut seeds, &mut out);
/// assert_eq!(out, vec![Effect::Enter(LockId(7))]);
/// out.clear();
/// hub.release(LockId(7), &mut out);
/// assert!(out.is_empty(), "no one follows: the token parks here");
/// assert!(hub.try_request(LockId(7), &mut seeds, &mut out));
/// assert_eq!(hub.len(), 1); // untouched keys cost nothing
/// ```
pub struct KeyedNode<P = ()> {
    me: NodeId,
    table: LockTable<(DagNode, P)>,
    fresh: Box<dyn Fn() -> P + Send>,
    actions: Vec<Action>,
}

impl<P: Default + 'static> KeyedNode<P> {
    /// An empty core for node `me` whose table has `shards` shards;
    /// payloads materialize as `P::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(me: NodeId, shards: usize) -> Self {
        KeyedNode::with_payload(me, shards, P::default)
    }
}

impl<P> KeyedNode<P> {
    /// An empty core whose payloads materialize from `fresh`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub(crate) fn with_payload(
        me: NodeId,
        shards: usize,
        fresh: impl Fn() -> P + Send + 'static,
    ) -> Self {
        KeyedNode {
            me,
            table: LockTable::new(shards),
            fresh: Box::new(fresh),
            actions: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Number of materialized instances.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no instance has been materialized.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// `key`'s instance, if materialized.
    pub fn instance(&self, key: LockId) -> Option<&DagNode> {
        self.table.get(key).map(|(node, _)| node)
    }

    /// Iterates `(key, instance, payload)` over every materialized key,
    /// in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LockId, &DagNode, &P)> + '_ {
        self.table
            .iter()
            .map(|(key, (node, payload))| (key, node, payload))
    }

    /// `key`'s instance and payload, materialized on first touch.
    pub(crate) fn slot(&mut self, key: LockId, seeds: &mut Seeds) -> Slot<'_, P> {
        let me = self.me;
        let fresh = &self.fresh;
        let (node, payload) = self
            .table
            .get_or_insert_with(key, || (seeds.instance(key, me), fresh()));
        Slot {
            key,
            node,
            payload,
            actions: &mut self.actions,
        }
    }

    /// The local user requests `key` (`P1`): an [`Effect::Enter`] when
    /// the token is parked here, otherwise a `REQUEST` toward the sink.
    /// Returns `key`'s payload.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already requested or held here (one
    /// outstanding request per node and key).
    pub fn request(&mut self, key: LockId, seeds: &mut Seeds, out: &mut Vec<Effect>) -> &mut P {
        self.slot(key, seeds).request(out)
    }

    /// Requests `key` only if its token is parked here and idle — an
    /// immediate [`Effect::Enter`] and `true` — and otherwise does
    /// nothing and returns `false`. Never sends a message.
    pub fn try_request(&mut self, key: LockId, seeds: &mut Seeds, out: &mut Vec<Effect>) -> bool {
        let slot = self.slot(key, seeds);
        let free = slot.node.has_token() && !slot.node.is_executing();
        if free {
            slot.request(out);
        }
        free
    }

    /// The local user leaves `key`'s critical section: the `PRIVILEGE`
    /// goes to the follower, if any, else the token parks here. Returns
    /// `key`'s payload.
    ///
    /// # Panics
    ///
    /// Panics if the local user is not inside `key`'s critical section.
    pub fn release(&mut self, key: LockId, out: &mut Vec<Effect>) -> &mut P {
        let (node, payload) = self
            .table
            .get_mut(key)
            .expect("released key is materialized");
        node.exit_into(&mut self.actions);
        emit(key, &mut self.actions, out);
        payload
    }

    /// One keyed protocol message arrived: a `REQUEST` is forwarded,
    /// queued in `FOLLOW`, or answered with the `PRIVILEGE` (`P2`); a
    /// `PRIVILEGE` grants the waiting local request. Returns the key's
    /// payload.
    ///
    /// # Panics
    ///
    /// Panics on a `PRIVILEGE` for a key this node is not requesting
    /// (see [`DagNode::receive_privilege`]), and on `INITIALIZE` (lock
    /// spaces start pre-oriented).
    pub fn deliver(
        &mut self,
        msg: KeyedDagMessage,
        seeds: &mut Seeds,
        out: &mut Vec<Effect>,
    ) -> &mut P {
        let key = msg.lock;
        let Slot {
            node,
            payload,
            actions,
            ..
        } = self.slot(key, seeds);
        match msg.msg {
            DagMessage::Request { from, origin } => {
                node.receive_request_into(from, origin, actions);
            }
            DagMessage::Privilege => node.receive_privilege_into(actions),
            DagMessage::Initialize => {
                unreachable!("lock spaces are pre-oriented; no INITIALIZE flood")
            }
        }
        emit(key, actions, out);
        payload
    }
}

/// A materialized instance and its payload, borrowed from a
/// [`KeyedNode`] by [`KeyedNode::slot`]: inspect the instance, use the
/// payload, or issue the local request — all off one table lookup.
pub(crate) struct Slot<'a, P> {
    key: LockId,
    node: &'a mut DagNode,
    payload: &'a mut P,
    actions: &'a mut Vec<Action>,
}

impl<'a, P> Slot<'a, P> {
    /// The key's protocol instance.
    pub(crate) fn node(&self) -> &DagNode {
        self.node
    }

    /// The key's payload.
    pub(crate) fn payload(&mut self) -> &mut P {
        self.payload
    }

    /// [`KeyedNode::request`] on this slot.
    ///
    /// # Panics
    ///
    /// Panics if the key is already requested or held here.
    pub(crate) fn request(self, out: &mut Vec<Effect>) -> &'a mut P {
        self.node.request_into(self.actions);
        emit(self.key, self.actions, out);
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(tree: Tree, placement: Placement) -> Seeds {
        Seeds::new(Arc::new(tree), placement)
    }

    #[test]
    fn a_remote_request_round_trip_emits_the_dag_messages_in_order() {
        // Line 0 - 1 - 2, every hub at node 0; node 2 requests key 3.
        let mut seeds = seeds(Tree::line(3), Placement::Hub(NodeId(0)));
        let mut nodes: Vec<KeyedNode> = (0..3).map(|i| KeyedNode::new(NodeId(i), 2)).collect();
        let key = LockId(3);
        let mut out = Vec::new();
        nodes[2].request(key, &mut seeds, &mut out);
        let hop = |from: u32| KeyedDagMessage {
            lock: key,
            msg: DagMessage::Request {
                from: NodeId(from),
                origin: NodeId(2),
            },
        };
        assert_eq!(
            out,
            vec![Effect::Send {
                to: NodeId(1),
                msg: hop(2)
            }]
        );
        out.clear();
        nodes[1].deliver(hop(2), &mut seeds, &mut out);
        assert_eq!(
            out,
            vec![Effect::Send {
                to: NodeId(0),
                msg: hop(1)
            }]
        );
        out.clear();
        nodes[0].deliver(hop(1), &mut seeds, &mut out);
        let privilege = KeyedDagMessage {
            lock: key,
            msg: DagMessage::Privilege,
        };
        assert_eq!(
            out,
            vec![Effect::Send {
                to: NodeId(2),
                msg: privilege
            }]
        );
        out.clear();
        nodes[2].deliver(privilege, &mut seeds, &mut out);
        assert_eq!(out, vec![Effect::Enter(key)]);
        // The token is now parked at node 2, and only node 2 can try it.
        out.clear();
        nodes[2].release(key, &mut out);
        assert!(out.is_empty());
        assert!(!nodes[0].try_request(key, &mut seeds, &mut out));
        assert!(nodes[2].try_request(key, &mut seeds, &mut out));
        assert_eq!(out, vec![Effect::Enter(key)]);
    }

    #[test]
    fn payloads_ride_next_to_their_instance() {
        let mut seeds = seeds(Tree::star(4), Placement::Modulo);
        let mut core: KeyedNode<Vec<u32>> =
            KeyedNode::with_payload(NodeId(1), 1, || Vec::with_capacity(4));
        let mut out = Vec::new();
        core.request(LockId(1), &mut seeds, &mut out).push(7);
        let mut slot = core.slot(LockId(1), &mut seeds);
        assert!(slot.node().is_executing());
        assert!(slot.payload().capacity() >= 4);
        assert_eq!(core.release(LockId(1), &mut out), &vec![7]);
        assert_eq!(core.iter().count(), 1);
        assert!(core.instance(LockId(2)).is_none());
    }

    #[test]
    fn hub_placement_seeds_the_papers_initial_configuration() {
        // The single-lock runtimes rely on this: one key under
        // `Hub(holder)` materializes exactly the `INIT`-flood result.
        let tree = Tree::kary(13, 3);
        let holder = NodeId(6);
        let orientation = tree.orient_toward(holder);
        let mut seeds = seeds(tree.clone(), Placement::Hub(holder));
        for me in tree.nodes() {
            assert_eq!(
                seeds.instance(LockId(0), me),
                DagNode::from_orientation(&orientation, me)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one hub")]
    fn empty_profile_is_invalid() {
        Placement::Profile(Arc::new(Vec::new())).validate(3);
    }

    #[test]
    #[should_panic(expected = "profile hub n7 out of range")]
    fn out_of_range_profile_hub_is_invalid() {
        Placement::Profile(Arc::new(vec![NodeId(1), NodeId(7)])).validate(3);
    }
}
