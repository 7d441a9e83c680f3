//! A miniature lock *service*: 64 named locks multiplexed over a
//! 15-node tree, driven by Zipf-skewed traffic — a few hot keys, a long
//! cold tail, like production lock demand.
//!
//! The run pauses mid-flight to show who holds what (and where each hot
//! key's token is parked), then drains and prints the per-key ledger.
//!
//! ```text
//! cargo run --example lock_service
//! ```
//!
//! The run closes with the unified client API's party trick: one
//! session script (lock / try / timeout / multi-key steps) executed
//! twice — under this same deterministic simulator and against a real
//! threaded `LockSpaceCluster` — with identical per-step outcomes.

use std::time::Duration;

use dagmutex::core::LockId;
use dagmutex::lockspace::{LockSpace, LockSpaceConfig, Placement, ScriptedClient, SessionConfig};
use dagmutex::runtime::{run_script, LockSpaceCluster};
use dagmutex::simnet::{Engine, EngineConfig, LatencyModel, Time};
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{KeyDist, KeyedThinkTime, Script};

fn make_workload(keys: u32) -> KeyedThinkTime {
    KeyedThinkTime::new(
        keys,
        KeyDist::Zipf { exponent: 1.2 }, // hot head, cold tail
        LatencyModel::Exponential { mean: Time(4) },
        40, // entries per node
        2024,
    )
}

fn main() {
    let tree = Tree::kary(15, 2);
    let keys = 64u32;
    let workload = make_workload(keys);
    let config = LockSpaceConfig {
        keys,
        placement: Placement::Modulo,
        hold: Time(2),
        batching: true,
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
    let mut engine = Engine::new(
        nodes,
        EngineConfig {
            record_trace: false,
            ..EngineConfig::default()
        },
    );

    // Freeze mid-flight and look at the space.
    engine.run_until(Time(200)).expect("clean run");
    println!("== t = {} — who holds what ==", engine.now());
    println!(
        "{} keys currently held (peak so far: {}), {} requests in flight",
        monitor.concurrent_holders(),
        monitor.peak_concurrent_holders(),
        monitor.pending_requests(),
    );
    for key in (0..keys).map(LockId) {
        if let Some(node) = monitor.occupant(key) {
            println!("  {key:>4} held by {node}");
        }
    }

    // Where are the hot tokens parked right now?
    println!("\n== token parking (top 8 keys by grants so far) ==");
    for (key, stats) in monitor.hottest_keys(8) {
        let parked = engine
            .nodes()
            .iter()
            .find(|n| n.token_keys().any(|k| k == key))
            .map(|n| n.id().to_string())
            .unwrap_or_else(|| "in flight".to_string());
        println!(
            "  {key:>4}: {:>3} grants so far, token at {parked}",
            stats.grants
        );
    }

    // Drain the rest and print the ledger.
    engine.run_to_quiescence().expect("clean run");
    monitor
        .check_quiescent()
        .expect("per-key safety + liveness");
    let rollup = monitor.rollup();
    println!(
        "\n== final per-key ledger (top 10 of {} touched) ==",
        rollup.keys_touched
    );
    println!("  key   grants  req-msgs  priv-msgs  mean-wait");
    for (key, stats) in monitor.hottest_keys(10) {
        println!(
            "  {key:>4} {:>7} {:>9} {:>10} {:>9.1}",
            stats.grants,
            stats.request_messages,
            stats.privilege_messages,
            if stats.grants > 0 {
                stats.wait_ticks as f64 / stats.grants as f64
            } else {
                0.0
            },
        );
    }
    println!(
        "\n{} grants over {} keys; {} keyed messages in {} envelopes \
         ({:.0}% batched away); peak concurrency {} keys held at once",
        rollup.grants,
        rollup.keys_touched,
        rollup.messages,
        engine.metrics().messages_total,
        100.0 * (1.0 - engine.metrics().messages_total as f64 / rollup.messages as f64),
        monitor.peak_concurrent_holders(),
    );

    session_parity_demo();
}

/// One client program, two substrates, identical outcomes: the same
/// `Script` runs under the deterministic simulator and against a real
/// threaded cluster.
fn session_parity_demo() {
    let tree = Tree::star(5);
    let keys = 16u32;
    let script = Script::new()
        .lock(NodeId(1), LockId(3))
        .try_lock(NodeId(2), LockId(3)) // node 1 holds it: refused
        .release(NodeId(2))
        .lock_timeout(NodeId(3), LockId(3), Time(80)) // still held: expires
        .release(NodeId(3))
        .release(NodeId(1))
        .lock_many(NodeId(2), &[LockId(7), LockId(3), LockId(11)]) // sorted, all-or-nothing
        .release(NodeId(2));

    let config = SessionConfig {
        keys,
        placement: Placement::Modulo,
        ..SessionConfig::default()
    };
    let (nodes, monitor) = ScriptedClient::cluster(&tree, config, &script);
    let mut engine = Engine::new(
        nodes,
        EngineConfig {
            record_trace: false,
            ..EngineConfig::default()
        },
    );
    engine.run_to_quiescence().expect("clean session run");
    let simulated = monitor.finish().expect("per-key safety");

    let (cluster, mut clients) = LockSpaceCluster::start(&tree, keys, Placement::Modulo);
    let threaded = run_script(&mut clients, &script, Duration::from_millis(2));
    drop(clients);
    cluster.shutdown();

    println!("\n== one client program, two substrates ==");
    println!("  step  op                        sim         threads");
    let names = [
        "lock k3 @ n1",
        "try k3 @ n2",
        "release n2",
        "timeout(80) k3 @ n3",
        "release n3",
        "release n1",
        "lock_many {3,7,11} @ n2",
        "release n2",
    ];
    for (i, name) in names.iter().enumerate() {
        let show = |o: &Option<dagmutex::workload::Outcome>| match o {
            Some(o) => o.to_string(),
            None => "-".to_string(),
        };
        println!(
            "  {i:>4}  {name:<24}  {:<10}  {:<10}",
            show(&simulated[i]),
            show(&threaded[i]),
        );
    }
    assert_eq!(simulated, threaded, "sim-parity is the whole point");
    println!("  → outcome vectors identical, per-key safety oracle green");
}
