//! Sim-parity client sessions: a [`ScriptedClient`] runs a
//! [`Script`](dmx_workload::Script) — the portable lock-client program
//! of lock / try / timeout / deadline / multi-key steps — under the
//! deterministic engine, producing exactly the
//! [`Outcome`](dmx_workload::Outcome) vector the threaded executor
//! (`dmx_runtime::run_script`) produces for the same script.
//!
//! ## Execution model
//!
//! Step `i` of the script is issued at tick `i ×`
//! [`Script::STEP_TICKS`](dmx_workload::Script::STEP_TICKS) — the
//! script's logical clock, shared with the threaded executor; with
//! that spacing generously larger than any grant latency or timeout
//! window, the simulated steps are globally sequenced exactly like
//! the threaded driver's turn-taking.
//! Acquisition semantics mirror the unified client API point for
//! point:
//!
//! * **try** grants iff every requested key's token is locally parked
//!   and idle, and never sends a protocol message;
//! * **timeout/deadline** drive an engine timer ([`Ctx::wake_at`]); on
//!   expiry the in-flight key's request is *abandoned* — the paper has
//!   no cancel message, so the privilege is released the moment it
//!   arrives — and every key already acquired is rolled back in
//!   reverse order (all-or-nothing);
//! * **multi-key** acquisition proceeds in sorted [`LockId`] order,
//!   the same global order every client uses, so overlapping key sets
//!   cannot deadlock.
//!
//! Per-key mutual exclusion is watched throughout by the shared
//! [`KeyedSafetyChecker`]; [`SessionMonitor::finish`] surfaces the
//! verdict with the outcomes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dmx_core::{KeyedDagMessage, LockId};
use dmx_simnet::checker::{KeyedLivenessChecker, KeyedSafetyChecker, KeyedViolation};
use dmx_simnet::metrics::Histogram;
use dmx_simnet::{Ctx, Protocol, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{AcquireMode, Outcome, Script, SessionOp};

use crate::envelope::Envelope;
use crate::keyed::{Effect, KeyedNode, Placement, Seeds};

/// Session parameters. (Step pacing is not a knob: the logical clock
/// is [`Script::STEP_TICKS`], shared with the threaded executor, so
/// deadline outcomes stay substrate-independent.)
///
/// # Examples
///
/// ```
/// use dmx_lockspace::SessionConfig;
///
/// let config = SessionConfig { keys: 64, ..SessionConfig::default() };
/// assert_eq!(config.shards, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Number of independent locks (the key space is `0..keys`).
    pub keys: u32,
    /// Initial token placement per key.
    pub placement: Placement,
    /// Shard count of each node's [`LockTable`](crate::LockTable).
    pub shards: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            keys: 1,
            placement: Placement::Modulo,
            shards: 16,
        }
    }
}

/// State shared by every client of one session (single-threaded, under
/// the engine).
struct Shared {
    seeds: Seeds,
    safety: KeyedSafetyChecker,
    /// Liveness oracle: every request a client starts waiting on must
    /// resolve (grant or explicit abandonment) before quiescence.
    liveness: KeyedLivenessChecker,
    /// Request→grant waits of every granted acquisition, in ticks
    /// (locally-parked tokens grant with zero wait). Abandoned waits
    /// never enter the distribution.
    waits: Histogram,
    /// One slot per script step; acquire steps fill theirs.
    outcomes: Vec<Option<Outcome>>,
    /// First correctness violation observed, if any.
    violation: Option<KeyedViolation>,
}

impl Shared {
    fn note(&mut self, err: Option<KeyedViolation>) {
        if self.violation.is_none() {
            self.violation = err;
        }
    }
}

/// What this client is doing right now.
enum Activity {
    /// Between steps.
    Idle,
    /// Working through an acquire step's sorted key list.
    Acquiring {
        /// Global step index (for outcome recording).
        step: usize,
        /// Sorted, deduplicated keys.
        keys: Vec<LockId>,
        /// How many of `keys` are already held.
        acquired: usize,
        /// The key whose REQUEST is travelling, if any.
        in_flight: Option<LockId>,
        /// Expiry tick and the outcome expiry maps to
        /// ([`Outcome::TimedOut`] or [`Outcome::DeadlineExceeded`]).
        limit: Option<(Time, Outcome)>,
    },
}

/// One node of a scripted session: the [`Protocol`] impl the engine
/// drives — a [`KeyedNode`] core plus this driver's script executor.
/// Build a whole session with [`ScriptedClient::cluster`]; see the
/// [module docs](self).
pub struct ScriptedClient {
    shared: Rc<RefCell<Shared>>,
    core: KeyedNode,
    /// This node's steps: `(global index, issue tick, op)`.
    steps: Vec<(usize, Time, SessionOp)>,
    cursor: usize,
    activity: Activity,
    /// Keys granted by the last completed acquire, until its release.
    held: Vec<LockId>,
    /// Keys whose in-flight request the user gave up on; their
    /// privilege bounces straight back out when it arrives.
    abandoned: Vec<LockId>,
    /// Buffer the core appends [`Effect`]s to.
    effects: Vec<Effect>,
}

impl ScriptedClient {
    /// One [`ScriptedClient`] per node of `tree`, executing `script`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (`keys == 0`, `shards == 0`,
    /// out-of-range hub), the script fails [`Script::validate`], or a
    /// timeout window reaches [`Script::STEP_TICKS`] (which would
    /// break global step sequencing).
    pub fn cluster(
        tree: &Tree,
        config: SessionConfig,
        script: &Script,
    ) -> (Vec<ScriptedClient>, SessionMonitor) {
        assert!(config.keys > 0, "session needs at least one key");
        assert!(config.shards > 0, "session needs at least one shard");
        let n = tree.len();
        config.placement.validate(n);
        script.validate(n, config.keys);
        for (i, step) in script.steps().iter().enumerate() {
            if let SessionOp::Acquire {
                mode: AcquireMode::Timeout(w),
                ..
            } = &step.op
            {
                assert!(
                    w.ticks() < Script::STEP_TICKS,
                    "step {i}: timeout window {w} reaches the step spacing t{}",
                    Script::STEP_TICKS
                );
            }
        }

        let shared = Rc::new(RefCell::new(Shared {
            seeds: Seeds::new(Arc::new(tree.clone()), config.placement),
            safety: KeyedSafetyChecker::with_keys(config.keys as usize),
            liveness: KeyedLivenessChecker::with_nodes(n),
            waits: Histogram::default(),
            outcomes: vec![None; script.len()],
            violation: None,
        }));
        let mut per_node: Vec<Vec<(usize, Time, SessionOp)>> = vec![Vec::new(); n];
        for (i, step) in script.steps().iter().enumerate() {
            per_node[step.node.index()].push((
                i,
                Time(i as u64 * Script::STEP_TICKS),
                step.op.clone(),
            ));
        }
        let clients = tree
            .nodes()
            .zip(per_node)
            .map(|(id, steps)| ScriptedClient {
                shared: Rc::clone(&shared),
                core: KeyedNode::new(id, config.shards),
                steps,
                cursor: 0,
                activity: Activity::Idle,
                held: Vec::new(),
                abandoned: Vec::new(),
                effects: Vec::new(),
            })
            .collect();
        (clients, SessionMonitor { shared })
    }

    /// This client's node.
    pub fn id(&self) -> NodeId {
        self.core.id()
    }

    /// Drains the core's effects: sends go on the wire, an entry is
    /// returned to the caller (at most one per call — the core enters
    /// only for the local user).
    fn flush_effects(&mut self, ctx: &mut Ctx<'_, Envelope>) -> bool {
        let mut entered = false;
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => ctx.send(to, Envelope::One(msg)),
                Effect::Enter(_) => entered = true,
            }
        }
        entered
    }

    /// Records `key` entered (safety oracle) at `now`.
    fn note_enter(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.safety.on_enter(key.index(), self.id(), now).err();
        sh.note(r);
    }

    /// Opens `key`'s liveness interval: the local user starts waiting.
    fn note_request(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.liveness.on_request(self.id(), key.index(), now).err();
        sh.note(r);
    }

    /// Closes `key`'s liveness interval as a grant and records the
    /// request→grant wait in the session's distribution.
    fn note_grant(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        match sh.liveness.on_grant(self.id(), key.index(), now) {
            Ok(since) => sh.waits.record(now.saturating_since(since).ticks()),
            Err(v) => sh.note(Some(v)),
        }
    }

    /// Closes `key`'s liveness interval without a grant: the user gave
    /// up, so the wait resolved (not starved) but was never served —
    /// it stays out of the grant-wait distribution.
    fn note_abandoned(&mut self, key: LockId, now: Time) {
        let mut sh = self.shared.borrow_mut();
        let r = sh.liveness.on_grant(self.id(), key.index(), now).err();
        sh.note(r);
    }

    /// Leaves `key`'s critical section: oracle exit + protocol exit.
    fn exit_key(&mut self, key: LockId, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        {
            let mut sh = self.shared.borrow_mut();
            let r = sh.safety.on_exit(key.index(), self.id(), now).err();
            sh.note(r);
        }
        self.core.release(key, &mut self.effects);
        let entered = self.flush_effects(ctx);
        debug_assert!(!entered, "exit never re-enters");
    }

    /// Records `outcome` for step `step`.
    fn record(&mut self, step: usize, outcome: Outcome) {
        self.shared.borrow_mut().outcomes[step] = Some(outcome);
    }

    /// Drives the current acquisition as far as it goes synchronously:
    /// locally-granted keys are taken immediately; the first remote key
    /// leaves a REQUEST in flight. Completes the step when the whole
    /// set is held.
    fn advance_acquisition(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        loop {
            let Activity::Acquiring {
                step,
                ref keys,
                acquired,
                in_flight,
                ..
            } = self.activity
            else {
                return;
            };
            debug_assert!(in_flight.is_none(), "advance while a REQUEST is in flight");
            if acquired == keys.len() {
                let keys = std::mem::take(match &mut self.activity {
                    Activity::Acquiring { keys, .. } => keys,
                    Activity::Idle => unreachable!(),
                });
                self.held = keys;
                self.activity = Activity::Idle;
                self.record(step, Outcome::Granted);
                self.run_overdue_steps(ctx);
                return;
            }
            let key = keys[acquired];
            if let Some(i) = self.abandoned.iter().position(|&k| k == key) {
                // An abandoned REQUEST for this key is still travelling:
                // adopt it instead of issuing a second one (the per-key
                // state machine is already `requesting`) — the same
                // silent adoption the threaded pending machine performs.
                self.abandoned.swap_remove(i);
                // The adopted wait starts now: the abandoned interval
                // was already resolved when its user gave up.
                self.note_request(key, ctx.now());
                match &mut self.activity {
                    Activity::Acquiring { in_flight, .. } => *in_flight = Some(key),
                    Activity::Idle => unreachable!(),
                }
                return;
            }
            self.note_request(key, ctx.now());
            {
                let mut sh = self.shared.borrow_mut();
                self.core.request(key, &mut sh.seeds, &mut self.effects);
            }
            let entered = self.flush_effects(ctx);
            if entered {
                self.note_grant(key, ctx.now());
                self.note_enter(key, ctx.now());
                match &mut self.activity {
                    Activity::Acquiring { acquired, .. } => *acquired += 1,
                    Activity::Idle => unreachable!(),
                }
            } else {
                match &mut self.activity {
                    Activity::Acquiring { in_flight, .. } => *in_flight = Some(key),
                    Activity::Idle => unreachable!(),
                }
                return;
            }
        }
    }

    /// Expires the current acquisition: rolls back every key already
    /// acquired (reverse order), abandons the in-flight request, and
    /// records the limit's outcome.
    fn expire_acquisition(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let Activity::Acquiring {
            step,
            keys,
            acquired,
            in_flight,
            limit,
        } = std::mem::replace(&mut self.activity, Activity::Idle)
        else {
            unreachable!("expire without an acquisition");
        };
        let (_, outcome) = limit.expect("expire without a limit");
        // The REQUEST cannot be recalled; release-on-grant instead.
        if let Some(key) = in_flight {
            self.note_abandoned(key, ctx.now());
            self.abandoned.push(key);
        }
        for &key in keys[..acquired].iter().rev() {
            self.exit_key(key, ctx);
        }
        self.record(step, outcome);
    }

    /// Executes one script step right now.
    fn execute(&mut self, step: usize, op: SessionOp, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        match op {
            SessionOp::Release => {
                let held = std::mem::take(&mut self.held);
                for &key in held.iter().rev() {
                    self.exit_key(key, ctx);
                }
            }
            SessionOp::Acquire { mut keys, mode } => {
                keys.sort_unstable();
                keys.dedup();
                match mode {
                    AcquireMode::Try => {
                        // All-or-nothing local availability, no messages.
                        let mut taken = 0;
                        for (i, &key) in keys.iter().enumerate() {
                            let available = {
                                let mut sh = self.shared.borrow_mut();
                                self.core.try_request(key, &mut sh.seeds, &mut self.effects)
                            };
                            if available {
                                let entered = self.flush_effects(ctx);
                                debug_assert!(entered, "a holding idle instance enters locally");
                                // A try is an instant request→grant:
                                // it contributes a zero-tick wait.
                                self.note_request(key, now);
                                self.note_grant(key, now);
                                self.note_enter(key, now);
                                taken = i + 1;
                            } else {
                                for &k in keys[..taken].iter().rev() {
                                    self.exit_key(k, ctx);
                                }
                                self.record(step, Outcome::WouldBlock);
                                return;
                            }
                        }
                        self.held = keys;
                        self.record(step, Outcome::Granted);
                    }
                    AcquireMode::Deadline(at) if at <= now => {
                        // Already elapsed: fail without acquiring.
                        self.record(step, Outcome::DeadlineExceeded);
                    }
                    AcquireMode::Wait | AcquireMode::Timeout(_) | AcquireMode::Deadline(_) => {
                        let limit = match mode {
                            AcquireMode::Wait => None,
                            AcquireMode::Timeout(w) => Some((now + w, Outcome::TimedOut)),
                            AcquireMode::Deadline(at) => Some((at, Outcome::DeadlineExceeded)),
                            AcquireMode::Try => unreachable!(),
                        };
                        if let Some((at, _)) = limit {
                            ctx.wake_at(at);
                        }
                        self.activity = Activity::Acquiring {
                            step,
                            keys,
                            acquired: 0,
                            in_flight: None,
                            limit,
                        };
                        self.advance_acquisition(ctx);
                    }
                }
            }
        }
    }

    /// Executes every step whose issue tick has passed, while idle.
    /// Also called after a late-completing acquisition, so a step whose
    /// wake fired mid-acquisition still runs.
    fn run_overdue_steps(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        while matches!(self.activity, Activity::Idle) && self.cursor < self.steps.len() {
            let (step, at, _) = self.steps[self.cursor];
            if at > now {
                break;
            }
            let op = self.steps[self.cursor].2.clone();
            self.cursor += 1;
            self.execute(step, op, ctx);
        }
    }

    /// One keyed message arrived.
    fn deliver(&mut self, keyed: KeyedDagMessage, ctx: &mut Ctx<'_, Envelope>) {
        let key = keyed.lock;
        {
            let mut sh = self.shared.borrow_mut();
            self.core.deliver(keyed, &mut sh.seeds, &mut self.effects);
        }
        if self.flush_effects(ctx) {
            let now = ctx.now();
            if let Some(i) = self.abandoned.iter().position(|&k| k == key) {
                // The grant nobody waited for: enter and bounce right
                // back out, exactly like the threaded abandon path.
                self.abandoned.swap_remove(i);
                self.note_enter(key, now);
                self.exit_key(key, ctx);
            } else {
                match &mut self.activity {
                    Activity::Acquiring {
                        acquired,
                        in_flight,
                        ..
                    } if *in_flight == Some(key) => {
                        *in_flight = None;
                        *acquired += 1;
                        self.note_grant(key, now);
                        self.note_enter(key, now);
                        self.advance_acquisition(ctx);
                    }
                    _ => unreachable!("{} entered {key} with no local claimant", self.id()),
                }
            }
        }
    }
}

impl Protocol for ScriptedClient {
    type Message = Envelope;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        for &(_, at, _) in &self.steps {
            ctx.wake_at(at);
        }
    }

    fn on_request_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("sessions drive demand through their script; not Engine::request_at");
    }

    fn on_message(&mut self, _from: NodeId, msg: Envelope, ctx: &mut Ctx<'_, Envelope>) {
        match msg {
            Envelope::One(keyed) => self.deliver(keyed, ctx),
            Envelope::Batch(mut batch) => {
                for keyed in batch.drain(..) {
                    self.deliver(keyed, ctx);
                }
            }
        }
    }

    fn on_exit_cs(&mut self, _ctx: &mut Ctx<'_, Envelope>) {
        unreachable!("sessions never call enter_cs, so the engine never schedules an exit");
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        if let Activity::Acquiring {
            limit: Some((at, _)),
            ..
        } = self.activity
        {
            if at <= now {
                self.expire_acquisition(ctx);
            }
        }
        self.run_overdue_steps(ctx);
    }

    fn storage_words(&self) -> usize {
        // Three words per materialized instance (Chapter 6.4 per key),
        // plus the client's own step/activity bookkeeping.
        3 * self.core.len() + 4
    }
}

/// Observer handle over a running (or finished) session: per-step
/// outcomes and the per-key safety verdict.
pub struct SessionMonitor {
    shared: Rc<RefCell<Shared>>,
}

impl SessionMonitor {
    /// The outcome vector so far: one slot per script step, `Some` for
    /// completed acquire steps, `None` for release steps (and acquires
    /// still in flight).
    pub fn outcomes(&self) -> Vec<Option<Outcome>> {
        self.shared.borrow().outcomes.clone()
    }

    /// The first per-key safety violation observed, if any.
    pub fn violation(&self) -> Option<KeyedViolation> {
        self.shared.borrow().violation
    }

    /// The node currently inside `key`'s critical section, if any.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn occupant(&self, key: LockId) -> Option<NodeId> {
        self.shared.borrow().safety.occupant(key.index())
    }

    /// Request→grant wait distribution over every granted acquisition,
    /// in ticks. Timed-out acquisitions contribute nothing; a grant off
    /// a locally parked token records a zero-tick wait.
    pub fn wait_histogram(&self) -> Histogram {
        self.shared.borrow().waits
    }

    /// Nodes currently waiting on an unresolved acquisition.
    pub fn waiting(&self) -> usize {
        self.shared.borrow().liveness.pending_count()
    }

    /// Full-run verdict once the engine has quiesced: the outcome
    /// vector, or the first safety violation.
    ///
    /// # Errors
    ///
    /// The first recorded [`KeyedViolation`].
    ///
    /// # Panics
    ///
    /// Panics if any acquire step never completed — a stalled script
    /// (e.g. a waiting acquire on a key whose holder releases later),
    /// which the executors cannot detect statically.
    pub fn finish(&self) -> Result<Vec<Option<Outcome>>, KeyedViolation> {
        let sh = self.shared.borrow();
        if let Some(v) = sh.violation {
            return Err(v);
        }
        // Starvation first: a starved waiter coexists with a live
        // holder, so the held-key assert below would mask it.
        sh.liveness.at_quiescence()?;
        assert_eq!(
            sh.safety.concurrent(),
            0,
            "session quiesced with keys still held"
        );
        Ok(sh.outcomes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_simnet::{Engine, EngineConfig};

    fn run(tree: &Tree, config: SessionConfig, script: &Script) -> Vec<Option<Outcome>> {
        let (clients, monitor) = ScriptedClient::cluster(tree, config, script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine.run_to_quiescence().expect("session run completes");
        monitor.finish().expect("per-key safety holds")
    }

    #[test]
    fn lock_then_try_reproduces_token_parking() {
        let tree = Tree::star(4);
        let script = Script::new()
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2))
            .try_lock(NodeId(2), LockId(0)) // token parked here: granted
            .release(NodeId(2))
            .try_lock(NodeId(1), LockId(0)) // token remote: refused
            .release(NodeId(1));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                None,
                Some(Outcome::Granted),
                None,
                Some(Outcome::WouldBlock),
                None,
            ]
        );
    }

    #[test]
    fn timeout_on_a_held_key_expires_and_rolls_back() {
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(2))
            .lock_timeout(NodeId(2), LockId(2), Time(100)) // held: times out
            .release(NodeId(2))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(2)) // now free (abandon bounced the token)
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 4,
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn deadlines_split_on_elapsed_versus_generous() {
        let tree = Tree::line(3);
        let script = Script::new()
            .lock_deadline(NodeId(2), LockId(0), Time(0)) // elapsed at issue
            .release(NodeId(2))
            .lock_deadline(NodeId(2), LockId(0), Time(1_000_000)) // plenty
            .release(NodeId(2));
        let outcomes = run(&tree, SessionConfig::default(), &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::DeadlineExceeded),
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn lock_many_takes_sorted_order_and_times_out_all_or_nothing() {
        let tree = Tree::star(4);
        let script = Script::new()
            .lock(NodeId(1), LockId(5))
            // {2, 5} sorted: takes 2, stalls on 5, expires, rolls 2 back.
            .lock_many_timeout(NodeId(2), &[LockId(5), LockId(2)], Time(120))
            .release(NodeId(2))
            // Key 2 must be free again for a plain lock.
            .lock(NodeId(3), LockId(2))
            .release(NodeId(3))
            .release(NodeId(1))
            // With every token free, the full set is acquirable.
            .lock_many(NodeId(2), &[LockId(5), LockId(2)])
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 8,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                Some(Outcome::Granted),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn multi_key_try_rolls_back_on_first_remote_key() {
        let tree = Tree::line(2);
        // Modulo placement: key 0 hubs at node 0, key 1 at node 1.
        let script = Script::new()
            .acquire(NodeId(0), &[LockId(0), LockId(1)], AcquireMode::Try)
            .release(NodeId(0))
            // Key 0 was rolled back: node 1 can lock it.
            .lock(NodeId(1), LockId(0))
            .release(NodeId(1));
        let config = SessionConfig {
            keys: 2,
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(outcomes[0], Some(Outcome::WouldBlock));
        assert_eq!(outcomes[2], Some(Outcome::Granted));
    }

    #[test]
    fn reacquisition_adopts_an_abandoned_request() {
        let tree = Tree::line(3);
        let script = Script::new()
            .lock(NodeId(0), LockId(0))
            .lock_timeout(NodeId(2), LockId(0), Time(50)) // abandoned
            .release(NodeId(2))
            .lock_timeout(NodeId(2), LockId(0), Time(50)) // adopts, expires again
            .release(NodeId(2))
            .release(NodeId(0)) // privilege finally travels; node 2 bounces it
            .lock(NodeId(2), LockId(0)) // token parked at node 2 after the bounce
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let outcomes = run(&tree, config, &script);
        assert_eq!(
            outcomes,
            vec![
                Some(Outcome::Granted),
                Some(Outcome::TimedOut),
                None,
                Some(Outcome::TimedOut),
                None,
                None,
                Some(Outcome::Granted),
                None,
            ]
        );
    }

    #[test]
    fn waiting_acquire_on_a_releasing_holder_is_granted_late() {
        // Node 2 waits on a key node 1 holds; node 1 releases in an
        // *earlier* step (well-formed), so the wait resolves.
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(0))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2));
        let outcomes = run(&tree, SessionConfig::default(), &script);
        assert_eq!(
            outcomes,
            vec![Some(Outcome::Granted), None, Some(Outcome::Granted), None]
        );
    }

    #[test]
    fn monitor_reports_the_wait_distribution_without_abandons() {
        let tree = Tree::star(3);
        let script = Script::new()
            .lock(NodeId(1), LockId(2)) // hub is node 2: a real wait
            .lock_timeout(NodeId(2), LockId(2), Time(100)) // times out: excluded
            .release(NodeId(2))
            .release(NodeId(1))
            .lock(NodeId(2), LockId(2)) // bounced token parked locally: zero wait
            .release(NodeId(2));
        let config = SessionConfig {
            keys: 4,
            ..SessionConfig::default()
        };
        let (clients, monitor) = ScriptedClient::cluster(&tree, config, &script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine.run_to_quiescence().expect("session run completes");
        monitor.finish().expect("per-key safety holds");
        let hist = monitor.wait_histogram();
        assert_eq!(
            hist.count(),
            2,
            "two grants; the abandoned wait is excluded"
        );
        assert!(hist.max() > 0, "the remote grant took time");
        let zeros: u64 = hist
            .iter_buckets()
            .filter(|&(lo, _, _)| lo == 0)
            .map(|(_, _, c)| c)
            .sum();
        assert_eq!(zeros, 1, "the parked-token grant waited zero ticks");
        assert_eq!(monitor.waiting(), 0);
    }

    #[test]
    fn unserved_waiter_is_reported_as_starved() {
        use dmx_simnet::checker::Violation;

        let tree = Tree::line(3);
        // Well-formed script, inspected *mid-run*: node 0 still holds
        // key 0 (its release is step 3, issued at t3000) while node 2's
        // step-1 request waits. Pausing the engine between the two is
        // exactly the state the starvation oracle must flag.
        let script = Script::new()
            .lock(NodeId(0), LockId(0))
            .lock(NodeId(2), LockId(0))
            .release(NodeId(2))
            .release(NodeId(0));
        let config = SessionConfig {
            keys: 1,
            placement: Placement::Hub(NodeId(0)),
            ..SessionConfig::default()
        };
        let (clients, monitor) = ScriptedClient::cluster(&tree, config, &script);
        let mut engine = Engine::new(clients, EngineConfig::default());
        engine
            .run_until(Time(2 * Script::STEP_TICKS + 500))
            .expect("mid-run prefix is clean");
        assert_eq!(monitor.waiting(), 1);
        let err = monitor.finish().expect_err("node 2 is starving");
        assert_eq!(err.key, 0);
        assert!(
            matches!(err.violation, Violation::Starvation { node, .. } if node == NodeId(2)),
            "unexpected violation: {err:?}"
        );

        // Resuming to quiescence clears the verdict: the wait resolves.
        engine.run_to_quiescence().expect("run completes");
        assert_eq!(monitor.waiting(), 0);
        monitor.finish().expect("served run has no starvation");
    }

    #[test]
    #[should_panic(expected = "reaches the step spacing")]
    fn oversized_timeout_window_is_rejected() {
        let script = Script::new()
            .lock_timeout(NodeId(0), LockId(0), Time(1000))
            .release(NodeId(0));
        let _ = ScriptedClient::cluster(&Tree::line(2), SessionConfig::default(), &script);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_is_rejected() {
        let config = SessionConfig {
            keys: 0,
            ..SessionConfig::default()
        };
        let _ = ScriptedClient::cluster(&Tree::line(2), config, &Script::new());
    }
}
