//! Shard-count invariance of the parallel lock-space runtime.
//!
//! The contract (`dmx_lockspace::parallel` module docs): a
//! [`ParallelEngine`] run over `K` shard engines produces per-key grant
//! sequences, per-key metrics, and global envelope accounting identical
//! for every `K`, threaded or sequential, for any tick-barrier window.
//! This battery hammers that contract with random topologies, demands,
//! holds, and placements; a golden test pins one full configuration —
//! digest, grant log head, envelope totals, the shard→slot map, and
//! raw demand draws — so a determinism break shows up as a concrete
//! diff against numbers recorded at authoring time, not just as two
//! fresh runs agreeing with each other.

use dagmutex::core::LockId;
use dagmutex::lockspace::Placement;
use dagmutex::lockspace::{ParallelConfig, ParallelEngine, ParallelReport, ShardMap, WindowPolicy};
use dagmutex::simnet::Time;
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{KeyLoad, PacedKeyDemand};
use proptest::prelude::*;

/// A random small-but-structured cell: tree shape, key space, demand
/// pacing, hold time, placement.
fn cell() -> impl Strategy<Value = (Tree, PacedKeyDemand, Time, Placement)> {
    (
        (
            2usize..30, // nodes
            0u8..3,     // tree shape
            1u32..40,   // keys
        ),
        (
            2u64..5, // burst
            1u64..5, // rounds
            0u64..u64::MAX / 2,
            1u64..9, // hold
            0u8..2,  // placement
        ),
    )
        .prop_map(|((n, shape, keys), (burst, rounds, seed, hold, pl))| {
            let n = n.max(2);
            let tree = match shape {
                0 => Tree::line(n),
                1 => Tree::star(n),
                _ => Tree::kary(n, 2),
            };
            // Spacing comfortably above burst so rounds never overlap.
            let demand = PacedKeyDemand::new(keys, n, burst + 40, burst, rounds, seed);
            let placement = match pl {
                0 => Placement::Modulo,
                _ => Placement::Hub(NodeId((seed % n as u64) as u32)),
            };
            (tree, demand, Time(hold), placement)
        })
}

fn run(
    tree: &Tree,
    demand: PacedKeyDemand,
    hold: Time,
    placement: &Placement,
    shards: usize,
    window: u64,
    threads: bool,
) -> ParallelReport {
    run_config(
        tree,
        demand,
        ParallelConfig {
            shards,
            window: WindowPolicy::Fixed(window),
            threads,
            hold,
            placement: placement.clone(),
            record_grants: true,
            ..ParallelConfig::default()
        },
    )
}

fn run_config(tree: &Tree, demand: PacedKeyDemand, config: ParallelConfig) -> ParallelReport {
    ParallelEngine::new(tree, demand, config).run()
}

/// The deterministic face of a report: everything that must be
/// invariant across shard counts, windows, and threading.
fn face(r: &ParallelReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.grant_digest,
        r.per_key_grants.clone(),
        r.rollup,
        (r.grants, r.events, r.end, r.starved),
        (r.envelopes, r.envelope_bytes, r.messages),
        r.violation.is_some(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (a) Shard-count invariance: K = 1, 2, 4, 8 agree on every
    /// deterministic field, and nothing starves or violates safety.
    #[test]
    fn shard_count_never_changes_per_key_outcomes(
        (tree, demand, hold, placement) in cell(),
    ) {
        let base = run(&tree, demand, hold, &placement, 1, 64, false);
        prop_assert!(base.violation.is_none(), "{:?}", base.violation);
        prop_assert_eq!(base.starved, 0);
        prop_assert_eq!(base.grants, demand.total_requests());
        for shards in [2usize, 4, 8] {
            let report = run(&tree, demand, hold, &placement, shards, 64, false);
            prop_assert_eq!(face(&report), face(&base), "K={}", shards);
        }
    }

    /// (b) The tick-barrier window is a performance knob, not a
    /// semantic one: extreme windows agree with the default.
    #[test]
    fn window_width_never_changes_per_key_outcomes(
        (tree, demand, hold, placement) in cell(),
        which in 0usize..3,
    ) {
        let window = [1u64, 7, 1024][which];
        let base = run(&tree, demand, hold, &placement, 4, 64, false);
        let probe = run(&tree, demand, hold, &placement, 4, window, false);
        prop_assert_eq!(face(&probe), face(&base), "window={}", window);
    }

    /// (c) Real OS threads with barrier rendezvous reproduce the
    /// sequential round-robin driver bit for bit.
    #[test]
    fn threaded_runs_match_sequential_runs(
        (tree, demand, hold, placement) in cell(),
        shards in 2usize..5,
    ) {
        let seq = run(&tree, demand, hold, &placement, shards, 32, false);
        let thr = run(&tree, demand, hold, &placement, shards, 32, true);
        prop_assert_eq!(face(&thr), face(&seq));
        prop_assert_eq!(thr.windows, seq.windows);
        prop_assert_eq!(thr.critical_path_events, seq.critical_path_events);
    }

    /// (e) Shard maps never change results: a demand-balanced LPT map
    /// over the cell's own profile agrees with the modulo map on the
    /// whole deterministic face, at K ∈ {1, 2, 4, 8}, threaded and
    /// sequential — over *skewed* (zipf-1.1) demand, where the two maps
    /// assign keys very differently.
    #[test]
    fn balanced_map_never_changes_per_key_outcomes(
        (tree, demand, hold, placement) in skewed_cell(),
    ) {
        let base = run(&tree, demand, hold, &placement, 1, 64, false);
        prop_assert!(base.violation.is_none(), "{:?}", base.violation);
        prop_assert_eq!(base.starved, 0);
        prop_assert_eq!(base.grants, demand.total_requests());
        let profile = demand.demand_profile();
        for shards in [1usize, 2, 4, 8] {
            for threads in [false, true] {
                let report = run_config(&tree, demand, ParallelConfig {
                    shards,
                    shard_map: ShardMap::balanced(profile.clone()),
                    threads,
                    hold,
                    placement: placement.clone(),
                    record_grants: true,
                    ..ParallelConfig::default()
                });
                prop_assert_eq!(
                    face(&report), face(&base),
                    "K={} threads={}", shards, threads
                );
            }
        }
    }

    /// (f) Adaptive windows are invariant too: the controller changes
    /// the round count, never the results — and the threaded driver
    /// computes the identical width sequence (same `windows`, same
    /// critical path) because widths derive from barrier-merged data.
    #[test]
    fn adaptive_windows_never_change_per_key_outcomes(
        (tree, demand, hold, placement) in cell(),
        min_pow in 0u32..4,
        target in 1u64..64,
    ) {
        let min = 1u64 << min_pow;
        let policy = WindowPolicy::Adaptive { min, max: min * 64, target };
        let fixed = run(&tree, demand, hold, &placement, 4, 64, false);
        let adaptive = |threads| run_config(&tree, demand, ParallelConfig {
            shards: 4,
            window: policy,
            threads,
            hold,
            placement: placement.clone(),
            record_grants: true,
            ..ParallelConfig::default()
        });
        let seq = adaptive(false);
        prop_assert_eq!(face(&seq), face(&fixed), "adaptive vs fixed results");
        let thr = adaptive(true);
        prop_assert_eq!(face(&thr), face(&seq));
        prop_assert_eq!(thr.windows, seq.windows, "width sequences diverged");
        prop_assert_eq!(thr.critical_path_events, seq.critical_path_events);
    }
}

/// Like [`cell`], but with zipf-1.1 per-key volume under the seeded
/// rank permutation. The hottest rank's burst scales by up to ~`keys`,
/// so the spacing floor scales with `burst × keys` to keep every
/// stream strictly increasing.
fn skewed_cell() -> impl Strategy<Value = (Tree, PacedKeyDemand, Time, Placement)> {
    (
        (
            2usize..30, // nodes
            0u8..3,     // tree shape
            2u32..24,   // keys
        ),
        (
            2u64..4, // burst
            1u64..4, // rounds
            0u64..u64::MAX / 2,
            1u64..9, // hold
            0u8..2,  // placement
        ),
    )
        .prop_map(|((n, shape, keys), (burst, rounds, seed, hold, pl))| {
            let n = n.max(2);
            let tree = match shape {
                0 => Tree::line(n),
                1 => Tree::star(n),
                _ => Tree::kary(n, 2),
            };
            let demand =
                PacedKeyDemand::new(keys, n, burst * u64::from(keys) + 41, burst, rounds, seed)
                    .with_load(KeyLoad::Zipf { exponent: 1.1 });
            let placement = match pl {
                0 => Placement::Modulo,
                _ => Placement::Hub(NodeId((seed % n as u64) as u32)),
            };
            (tree, demand, Time(hold), placement)
        })
}

/// The golden pin: one configuration, every load-bearing number
/// recorded. If any constant here changes, the parallel runtime's
/// deterministic contract changed — bump consciously, never casually.
#[test]
fn golden_parallel_trace_is_pinned() {
    let tree = Tree::kary(31, 2);
    let demand = PacedKeyDemand::new(64, 31, 150, 3, 5, 0xD1CE);

    // The shard→slot map is the identity on key % K: pin it directly.
    for (key, expect) in [(0u32, 0usize), (1, 1), (3, 3), (4, 0), (63, 3)] {
        assert_eq!(key as usize % 4, expect, "shard map moved for key {key}");
    }

    // Raw demand draws: the per-shard RNG streams are these pure
    // counter-hash values; any change re-times every run.
    let draws: Vec<(u64, usize)> = [(LockId(0), 0), (LockId(0), 7), (LockId(63), 14)]
        .into_iter()
        .map(|(k, i)| {
            let (t, n) = demand.arrival(k, i);
            (t.ticks(), n.index())
        })
        .collect();
    assert_eq!(draws, GOLDEN_DRAWS, "PacedKeyDemand stream moved");

    let report = run(&tree, demand, Time(3), &Placement::Modulo, 4, 64, false);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.starved, 0);
    assert_eq!(report.grants, demand.total_requests());
    assert_eq!(report.grant_digest, GOLDEN_DIGEST, "grant digest moved");
    assert_eq!(
        (
            report.events,
            report.envelopes,
            report.envelope_bytes,
            report.messages
        ),
        GOLDEN_TOTALS,
        "event/envelope accounting moved"
    );
    assert_eq!(report.end.ticks(), GOLDEN_END);

    let key0: Vec<(u64, usize)> = report.per_key_grants.as_ref().unwrap()[0]
        .iter()
        .take(4)
        .map(|&(t, n)| (t.ticks(), n.index()))
        .collect();
    assert_eq!(key0, GOLDEN_KEY0_HEAD, "key 0 grant sequence moved");

    // And the pin holds at every other shard count, threaded included.
    for (shards, threads) in [(1, false), (2, false), (8, false), (4, true)] {
        let r = run(
            &tree,
            demand,
            Time(3),
            &Placement::Modulo,
            shards,
            64,
            threads,
        );
        assert_eq!(
            r.grant_digest, GOLDEN_DIGEST,
            "digest moved at K={shards} threads={threads}"
        );
    }
}

const GOLDEN_DRAWS: [(u64, usize); 3] = [(52, 10), (420, 0), (672, 24)];
const GOLDEN_DIGEST: u64 = 9233926495764773015;
const GOLDEN_TOTALS: (u64, u64, u64, u64) = (6710, 4526, 51144, 4790);
const GOLDEN_END: u64 = 760;
const GOLDEN_KEY0_HEAD: [(u64, usize); 4] = [(56, 10), (60, 18), (64, 11), (278, 14)];
