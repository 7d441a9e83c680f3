//! Property battery for per-key isolation in multiplexed lock-space
//! runs (the `dmx-lockspace` subsystem):
//!
//! (a) no two nodes ever hold the *same* key concurrently — the shared
//!     [`KeyedSafetyChecker`] oracle runs on every grant/release, so a
//!     clean run is the property;
//! (b) *distinct* keys are held concurrently — the concurrency a
//!     single-lock system cannot exhibit, verified via the oracle's
//!     peak-concurrency high-water mark;
//! (c) with batching off, per-key message counts match an equivalent
//!     single-lock run of the same algorithm, key for key;
//! (d) batching is *invisible* to per-key traffic on serialized
//!     demand: `EveryTick` (per-tick grouping) and batching-off runs
//!     produce identical per-key message counts and grants (grouping
//!     moves bytes between envelopes, never between keys), pinned both
//!     property-style and against a golden scenario.
//!
//! [`KeyedSafetyChecker`]: dagmutex::simnet::checker::KeyedSafetyChecker

use dagmutex::core::{DagProtocol, LockId};
use dagmutex::lockspace::{LockSpace, LockSpaceConfig, LockSpaceMonitor, Placement};
use dagmutex::simnet::{Engine, EngineConfig, LatencyModel, Time};
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{KeyDist, KeyedAffinity, KeyedSchedule, KeyedThinkTime, KeyedWorkload};
use proptest::prelude::*;

fn quiet() -> EngineConfig {
    EngineConfig {
        record_trace: false,
        ..EngineConfig::default()
    }
}

/// Runs `workload` to quiescence under `config` and returns the
/// verified engine + monitor.
fn run_space(
    tree: &Tree,
    config: LockSpaceConfig,
    workload: &dyn KeyedWorkload,
) -> Result<(Engine<dagmutex::lockspace::LockSpaceNode>, LockSpaceMonitor), TestCaseError> {
    let (nodes, monitor) = LockSpace::cluster(tree, config, workload);
    let mut engine = Engine::new(nodes, quiet());
    engine
        .run_to_quiescence()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    monitor
        .check_quiescent()
        .map_err(|v| TestCaseError::fail(v.to_string()))?;
    Ok((engine, monitor))
}

/// Per-key `(requests, request_messages, privilege_messages, grants)`
/// for every key of a run — the per-key trace the flush-policy
/// equivalence pins.
fn per_key_trace(monitor: &LockSpaceMonitor, keys: u32) -> Vec<(u64, u64, u64, u64)> {
    (0..keys)
        .map(|k| {
            let s = monitor.key_stats(LockId(k));
            (
                s.requests,
                s.request_messages,
                s.privilege_messages,
                s.grants,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Under random key-space sizes, skews, hold times, and seeds,
    /// a multiplexed closed loop completes with the per-key safety and
    /// liveness oracles silent: same-key holds never overlap.
    #[test]
    fn no_two_nodes_hold_the_same_key_concurrently(
        n in 3usize..10,
        keys in 2u32..24,
        rounds in 1u32..5,
        hold in 0u64..4,
        exponent in 0u32..3,
        seed in any::<u64>(),
    ) {
        let tree = Tree::kary(n, 2);
        let dist = if exponent == 0 {
            KeyDist::Uniform
        } else {
            KeyDist::Zipf { exponent: f64::from(exponent) * 0.6 }
        };
        let workload =
            KeyedThinkTime::new(keys, dist, LatencyModel::Fixed(Time(0)), rounds, seed);
        let config = LockSpaceConfig {
            keys,
            placement: Placement::Modulo,
            hold: Time(hold),
            batching: true,
            ..LockSpaceConfig::default()
        };
        let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().map_err(|e| TestCaseError::fail(e.to_string()))?;
        monitor
            .check_quiescent()
            .map_err(|v| TestCaseError::fail(v.to_string()))?;
        prop_assert_eq!(monitor.rollup().grants, rounds as u64 * n as u64);
    }

    /// (b) With one hub key per node all grabbed at t = 0 and held, every
    /// node is inside a *different* key's critical section at once: the
    /// oracle's peak concurrency equals the node count. (Derived from the
    /// same random sizes as (a), so the overlap is exercised across
    /// topologies, not just one example.)
    #[test]
    fn distinct_keys_are_held_concurrently(
        n in 2usize..12,
        hold in 5u64..20,
    ) {
        let tree = Tree::kary(n, 2);
        let mut sched = KeyedSchedule::new(n);
        for i in 0..n {
            sched.push(NodeId::from_index(i), Time(0), LockId(i as u32));
        }
        let config = LockSpaceConfig {
            keys: n as u32,
            placement: Placement::Modulo, // key i's hub is node i: instant grant
            hold: Time(hold),
            batching: true,
            ..LockSpaceConfig::default()
        };
        let (nodes, monitor) = LockSpace::cluster(&tree, config, &sched);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().map_err(|e| TestCaseError::fail(e.to_string()))?;
        monitor
            .check_quiescent()
            .map_err(|v| TestCaseError::fail(v.to_string()))?;
        prop_assert_eq!(monitor.peak_concurrent_holders(), n);
    }

    /// (d) Batching invisibility: on a serialized round-robin schedule,
    /// `EveryTick` and batching-off runs produce identical per-key
    /// message counts and grants, and both stay safety-clean. Grouping
    /// changes how many envelopes leave — never which keyed messages
    /// exist.
    #[test]
    fn per_key_traffic_is_invariant_across_flush_policies(
        n in 3usize..8,
        keys in 1u32..6,
        rounds_per_key in 1usize..4,
    ) {
        let tree = Tree::kary(n, 2);
        let spacing = Time(200);
        let requests = keys as usize * rounds_per_key;
        let sched = KeyedSchedule::round_robin(n, keys, requests, spacing);
        let base = LockSpaceConfig {
            keys,
            placement: Placement::Modulo,
            hold: Time(1),
            ..LockSpaceConfig::default()
        };
        let (engine_tick, tick) = run_space(&tree, base.clone(), &sched)?;
        let (engine_off, off) = run_space(
            &tree,
            LockSpaceConfig { batching: false, ..base },
            &sched,
        )?;
        let golden = per_key_trace(&tick, keys);
        prop_assert_eq!(&per_key_trace(&off, keys), &golden, "batching-off diverged");
        // Unbatched, envelopes == keyed messages exactly.
        prop_assert_eq!(engine_off.metrics().messages_total, off.rollup().messages);
        prop_assert!(engine_tick.metrics().messages_total <= tick.rollup().messages);
    }

    /// (e) Hot-tenant demand — home-biased zipf bursts, the burstiest
    /// local re-acquisition shape, where tokens park and re-grant
    /// locally most often — keeps the per-key safety oracle silent on
    /// every grant, and the keyed liveness oracle verifies no request,
    /// local or remote, is left ungranted: the closed loop serves
    /// exactly its demand.
    #[test]
    fn hot_tenant_demand_is_safe_and_serves_everyone(
        n in 3usize..10,
        keys in 2u32..16,
        rounds in 2u32..6,
        hold in 0u64..4,
        affinity_pct in 50u32..100,
        seed in any::<u64>(),
    ) {
        let tree = Tree::kary(n, 2);
        let workload = KeyedAffinity::new(
            keys,
            n,
            KeyDist::Zipf { exponent: 1.1 },
            f64::from(affinity_pct) / 100.0,
            LatencyModel::Fixed(Time(0)),
            rounds,
            seed,
        );
        let config = LockSpaceConfig {
            keys,
            placement: Placement::Modulo,
            hold: Time(hold),
            batching: true,
            ..LockSpaceConfig::default()
        };
        let (_, monitor) = run_space(&tree, config, &workload)?;
        prop_assert_eq!(monitor.rollup().grants, workload.total_requests());
    }

    /// (c) Batching off, a globally serialized round-robin schedule: the
    /// multiplexed run's per-key REQUEST and PRIVILEGE counts equal an
    /// equivalent single-lock run of the same key's schedule — the
    /// multiplexing layer adds a key tag, never a message.
    #[test]
    fn per_key_message_counts_match_single_lock_runs_when_batching_is_off(
        n in 3usize..8,
        keys in 1u32..6,
        rounds_per_key in 1usize..4,
    ) {
        let tree = Tree::kary(n, 2);
        // Request j: node j % n, key j % keys, at t = j * 200 — spaced so
        // generously that every request completes before the next starts.
        let spacing = Time(200);
        let requests = keys as usize * rounds_per_key;
        let sched = KeyedSchedule::round_robin(n, keys, requests, spacing);
        let config = LockSpaceConfig {
            keys,
            placement: Placement::Modulo,
            hold: Time(1),
            batching: false,
            ..LockSpaceConfig::default()
        };
        let (nodes, monitor) = LockSpace::cluster(&tree, config, &sched);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().map_err(|e| TestCaseError::fail(e.to_string()))?;
        monitor
            .check_quiescent()
            .map_err(|v| TestCaseError::fail(v.to_string()))?;

        for k in 0..keys {
            // The same key's schedule, replayed on a plain single-lock
            // engine with the token at the key's hub.
            let hub = NodeId(k % n as u32);
            let schedule: Vec<(Time, NodeId)> = (0..requests)
                .filter(|j| *j as u32 % keys == k)
                .map(|j| (Time(j as u64 * spacing.ticks()), NodeId((j % n) as u32)))
                .collect();
            let mut single = Engine::new(DagProtocol::cluster(&tree, hub), quiet());
            for (at, node) in schedule {
                single.request_at(at, node);
                single.run_to_quiescence()
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            let stats = monitor.key_stats(LockId(k));
            let metrics = single.metrics();
            prop_assert_eq!(
                stats.request_messages, metrics.kind_count("REQUEST"),
                "key {} REQUEST count diverged", k
            );
            prop_assert_eq!(
                stats.privilege_messages, metrics.kind_count("PRIVILEGE"),
                "key {} PRIVILEGE count diverged", k
            );
        }
    }
}

/// The golden keyed scenario: 9 nodes, 6 keys, 18 serialized
/// round-robin requests. Its per-key trace is pinned (so a transport
/// refactor that silently changes keyed traffic fails loudly) and must
/// be byte-identical under `EveryTick` and batching-off.
#[test]
fn golden_scenario_per_key_trace_is_flush_policy_invariant() {
    let tree = Tree::kary(9, 2);
    let keys = 6u32;
    let sched = KeyedSchedule::round_robin(9, keys, 18, Time(200));
    let base = LockSpaceConfig {
        keys,
        placement: Placement::Modulo,
        hold: Time(1),
        ..LockSpaceConfig::default()
    };
    let policies = [
        base.clone(),
        LockSpaceConfig {
            batching: false,
            ..base
        },
    ];
    for config in policies {
        let (nodes, monitor) = LockSpace::cluster(&tree, config.clone(), &sched);
        let mut engine = Engine::new(nodes, quiet());
        engine.run_to_quiescence().expect("golden run completes");
        monitor.check_quiescent().expect("golden run is clean");
        let trace = per_key_trace(&monitor, keys);
        assert_eq!(
            trace, GOLDEN_PER_KEY_TRACE,
            "per-key trace drifted (batching: {})",
            config.batching
        );
    }
}

/// Per-key `(requests, REQUESTs, PRIVILEGEs, grants)` of the golden
/// keyed scenario. These are a function of the DAG algorithm and the
/// schedule alone; batching may not move them.
const GOLDEN_PER_KEY_TRACE: [(u64, u64, u64, u64); 6] = [
    (3, 6, 2, 3),
    (3, 5, 2, 3),
    (3, 9, 2, 3),
    (3, 4, 2, 3),
    (3, 3, 2, 3),
    (3, 5, 2, 3),
];
