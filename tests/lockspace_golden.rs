//! Golden pins for the two lock-space drivers nothing else pins: the
//! simulated `LockSpace` (closed-loop keyed demand under the engine)
//! and the `ScriptedClient` session executor.
//!
//! Both runs are fully deterministic for a fixed seed, so any refactor
//! of the per-key node machinery, the transport, or the session
//! executor that moves a single grant, message, or tick fails here
//! loudly instead of shifting every downstream table by a little.

use dagmutex::core::LockId;
use dagmutex::lockspace::{
    LockSpace, LockSpaceConfig, LockSpaceNode, Placement, ScriptedClient, SessionConfig,
};
use dagmutex::simnet::{Engine, EngineConfig, LatencyModel, Time};
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{KeyDist, KeyedThinkTime, Outcome, Script};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

const KEYS: u32 = 64;

/// The pinned lock-space scenario: 31-node binary tree, 64 zipf-1.1
/// keys, 12 rounds per node, exponential link delay (mean 4 ticks),
/// engine seed 7.
fn pinned_space() -> (Engine<LockSpaceNode>, dagmutex::lockspace::LockSpaceMonitor) {
    let tree = Tree::kary(31, 2);
    let workload = KeyedThinkTime::new(
        KEYS,
        KeyDist::Zipf { exponent: 1.1 },
        LatencyModel::Uniform {
            lo: Time(0),
            hi: Time(6),
        },
        12,
        0x5EED,
    );
    let config = LockSpaceConfig {
        keys: KEYS,
        hold: Time(2),
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
    let engine = Engine::new(
        nodes,
        EngineConfig {
            latency: LatencyModel::Exponential { mean: Time(4) },
            seed: 7,
            record_trace: false,
            ..EngineConfig::default()
        },
    );
    (engine, monitor)
}

#[test]
fn golden_lock_space_run_is_pinned() {
    let (mut engine, monitor) = pinned_space();
    // Step event by event and log every grant as `(tick, node)` per key:
    // a node grants at most one key per dispatch, and the grantee still
    // occupies the key when the dispatch returns (holds last ≥ 1 tick).
    let mut seen = vec![0u64; KEYS as usize];
    let mut per_key = vec![FNV_OFFSET; KEYS as usize];
    while engine
        .step()
        .expect("golden run is violation-free")
        .is_some()
    {
        for k in 0..KEYS {
            let grants = monitor.key_stats(LockId(k)).grants;
            if grants != seen[k as usize] {
                assert_eq!(
                    grants,
                    seen[k as usize] + 1,
                    "two grants of key {k} in one step"
                );
                seen[k as usize] = grants;
                let node = monitor
                    .occupant(LockId(k))
                    .expect("grantee occupies the key");
                let h = &mut per_key[k as usize];
                *h = fnv(fnv(*h, engine.now().ticks()), node.index() as u64);
            }
        }
    }
    monitor
        .check_quiescent()
        .expect("per-key safety and liveness");
    let digest = per_key
        .iter()
        .enumerate()
        .fold(FNV_OFFSET, |acc, (k, &h)| fnv(fnv(acc, k as u64), h));
    let rollup = monitor.rollup();
    let metrics = engine.metrics();
    let wait = monitor.wait_histogram();
    let observed = (
        rollup.messages,
        metrics.messages_total,
        rollup.grants,
        wait.p50(),
        wait.p99(),
        engine.now().ticks(),
    );
    eprintln!("lock-space golden: {observed:?} digest {digest}");
    assert_eq!(
        observed, GOLDEN_SPACE,
        "messages/envelopes/grants/waits/end moved"
    );
    assert_eq!(
        digest, GOLDEN_SPACE_DIGEST,
        "a per-key grant sequence moved"
    );
}

/// `(keyed messages, envelopes, grants, wait p50, wait p99, end tick)`.
const GOLDEN_SPACE: (u64, u64, u64, u64, u64, u64) = (1919, 1771, 372, 31, 140, 773);
const GOLDEN_SPACE_DIGEST: u64 = 5210850915013343722;

/// A multi-key session exercising every acquisition path: remote and
/// local grants, multi-key sorted acquisition, a successful and a
/// refused try, a timeout that abandons its REQUEST, a re-acquisition
/// adopting that in-flight REQUEST, the abandoned privilege bouncing,
/// and a multi-key timeout rolling back a partial grant.
fn pinned_script() -> Script {
    Script::new()
        .lock(NodeId(3), LockId(5))
        .lock_many(NodeId(1), &[LockId(9), LockId(2)])
        .release(NodeId(1))
        .try_lock(NodeId(1), LockId(2))
        .release(NodeId(1))
        .try_lock(NodeId(4), LockId(5))
        .release(NodeId(4))
        .lock_timeout(NodeId(6), LockId(5), Time(60))
        .release(NodeId(6))
        .lock_timeout(NodeId(6), LockId(5), Time(60))
        .release(NodeId(6))
        .lock_many_timeout(NodeId(0), &[LockId(5), LockId(2)], Time(300))
        .release(NodeId(0))
        .release(NodeId(3))
        .lock(NodeId(6), LockId(5))
        .release(NodeId(6))
        .lock_many(NodeId(0), &[LockId(5), LockId(2), LockId(9)])
        .release(NodeId(0))
        .lock_deadline(NodeId(4), LockId(9), Time(0))
        .release(NodeId(4))
}

#[test]
fn golden_session_run_is_pinned() {
    let tree = Tree::kary(7, 2);
    let config = SessionConfig {
        keys: 12,
        placement: Placement::Modulo,
        ..SessionConfig::default()
    };
    let (clients, monitor) = ScriptedClient::cluster(&tree, config, &pinned_script());
    let mut engine = Engine::new(
        clients,
        EngineConfig {
            latency: LatencyModel::Exponential { mean: Time(9) },
            seed: 11,
            ..EngineConfig::default()
        },
    );
    engine.run_to_quiescence().expect("session run completes");
    let outcomes = monitor.finish().expect("per-key safety holds");
    let hist = monitor.wait_histogram();
    let buckets: Vec<(u64, u64, u64)> = hist.iter_buckets().collect();
    eprintln!(
        "session golden: {outcomes:?} count {} sum {} max {} buckets {buckets:?} \
         messages {} end {}",
        hist.count(),
        hist.sum(),
        hist.max(),
        engine.metrics().messages_total,
        engine.now().ticks()
    );
    assert_eq!(outcomes, GOLDEN_OUTCOMES.to_vec(), "outcome vector moved");
    assert_eq!(
        (hist.count(), hist.sum(), hist.max()),
        GOLDEN_WAIT_TOTALS,
        "wait distribution moved"
    );
    assert_eq!(buckets, GOLDEN_WAIT_BUCKETS.to_vec(), "wait buckets moved");
}

use Outcome::{DeadlineExceeded, Granted, TimedOut, WouldBlock};

const GOLDEN_OUTCOMES: [Option<Outcome>; 20] = [
    Some(Granted),
    Some(Granted),
    None,
    Some(Granted),
    None,
    Some(WouldBlock),
    None,
    Some(TimedOut),
    None,
    Some(TimedOut),
    None,
    Some(TimedOut),
    None,
    None,
    Some(Granted),
    None,
    Some(Granted),
    None,
    Some(DeadlineExceeded),
    None,
];
/// `(count, sum, max)` of the session's request→grant waits.
const GOLDEN_WAIT_TOTALS: (u64, u64, u64) = (9, 177, 56);
const GOLDEN_WAIT_BUCKETS: [(u64, u64, u64); 4] = [(0, 0, 2), (8, 15, 3), (16, 31, 2), (32, 63, 2)];
