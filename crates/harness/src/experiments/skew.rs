//! `ext_skew` — the DAG under skew: hub placement × key-popularity
//! skew × workload locality, against a quorum floor.
//!
//! The lock-space sweeps (`ext_lock`) showed the failure mode: under
//! Zipf-skewed key popularity the hot keys' tokens ping-pong between
//! contending nodes and mean wait blows up by ~6× over uniform demand.
//! This experiment measures what closes that gap and the baseline that
//! cannot:
//!
//! * **Hot-tenant demand** ([`KeyedAffinity`]): each key has a home node
//!   issuing most of its demand. Path reversal parks each hot key's
//!   token at its tenant, so back-to-back claims re-grant locally with
//!   zero messages.
//! * **Skew-aware hub placement** ([`Placement::Profile`]): each key's
//!   orientation DAG is seeded at the node a popularity profile names
//!   as its hottest, so the *first* acquisition is already local.
//! * **Naimi–Thiare quorum baseline**
//!   ([`dmx_baselines::naimi_thiare`]): the flat `3(K−1)`-per-entry
//!   floor quorum algorithms pay however local the demand is — the
//!   structural reason a path-reversal DAG wins under skew.
//!
//! Two workload shapes per cell: symmetric [`KeyedThinkTime`] (every
//! node draws from the same key distribution — continuity with
//! `ext_lock`), and [`KeyedAffinity`] (the skewed-*and*-local shape
//! placement is designed for). The split matters because the two
//! regimes have different physics: symmetric skew is a queueing bound
//! no protocol can remove (the hot key's cross-node holds serialize
//! regardless of who carries the token — see [`SkewGap`] for the
//! arithmetic), while locality-correlated skew is exactly the regime
//! path reversal + placement turn into near-free local re-grants.
//! Per-key safety and liveness oracles verify every cell.

use std::sync::Arc;
use std::time::Instant;

use dmx_lockspace::{LockSpace, LockSpaceConfig, LockSpaceMonitor, Placement};
use dmx_simnet::{Engine, EngineConfig, LatencyModel, Time};
use dmx_topology::{NodeId, Tree};
use dmx_workload::{KeyDist, KeyedAffinity, KeyedThinkTime, KeyedWorkload, ThinkTime};

use super::lock_scaling::SKEWS;
use crate::{run_algorithm, Algorithm, Scenario, Table};

/// Home-node share of each key's demand in the affinity cells.
pub const AFFINITY: f64 = 0.9;

/// Ticks between consecutive node onsets in the affinity cells (see
/// [`KeyedAffinity::with_onset_spacing`]).
pub const ONSET_SPACING: u64 = 8;

/// Which workload shape a DAG cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Symmetric [`KeyedThinkTime`]: every node, same key distribution.
    Think,
    /// [`KeyedAffinity`] at [`AFFINITY`]: each key's home node issues
    /// most of its demand.
    Affinity,
}

impl Load {
    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Load::Think => "think",
            Load::Affinity => "affinity",
        }
    }
}

/// Which initial-placement policy a DAG cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hubs {
    /// `key % n` — the sharded-service default, blind to demand.
    Modulo,
    /// [`Placement::Profile`] seeded from the workload's
    /// [`hub_profile`](KeyedAffinity::hub_profile) (affinity cells
    /// only — symmetric demand has no hottest node).
    Profile,
}

impl Hubs {
    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Hubs::Modulo => "modulo",
            Hubs::Profile => "profile",
        }
    }
}

/// One measured cell of the skew sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewMeasurement {
    /// `"dag"` or `"naimi-thiare"`.
    pub algorithm: &'static str,
    /// Node count.
    pub n: usize,
    /// Key-space size (1 for the single-lock quorum baseline).
    pub keys: u32,
    /// Skew label (`"uniform"` / `"zipf-1.1"`; `"flat"` for the quorum
    /// baseline, whose cost has no locality term at all).
    pub skew: &'static str,
    /// Workload label (`"think"` / `"affinity"`).
    pub workload: &'static str,
    /// Placement label (`"modulo"` / `"profile"`; `"quorum"` for the
    /// baseline).
    pub placement: &'static str,
    /// Critical-section entries completed.
    pub grants: u64,
    /// Keyed (pre-batching) messages carried; wire messages for the
    /// quorum baseline.
    pub keyed_messages: u64,
    /// Messages per grant.
    pub msgs_per_grant: f64,
    /// Mean request→grant wait in ticks.
    pub mean_wait_ticks: f64,
    /// Median request→grant wait in ticks.
    pub p50_wait_ticks: u64,
    /// 99th-percentile request→grant wait in ticks.
    pub p99_wait_ticks: u64,
    /// Wall-clock seconds for the cell.
    pub elapsed_secs: f64,
}

/// Runs one multiplexed DAG cell and measures it.
///
/// # Panics
///
/// Panics if the run violates per-key safety or liveness, or if
/// [`Hubs::Profile`] is combined with [`Load::Think`] (symmetric demand
/// has no per-key hottest node to place at).
#[allow(clippy::too_many_arguments)]
pub fn run_dag_cell(
    n: usize,
    keys: u32,
    skew: &'static str,
    dist: KeyDist,
    load: Load,
    hubs: Hubs,
    rounds: u32,
    seed: u64,
) -> SkewMeasurement {
    let start = Instant::now();
    let tree = Tree::kary(n, 2);
    let think = LatencyModel::Fixed(Time(0));
    let (workload, profile): (Box<dyn KeyedWorkload>, Option<Vec<NodeId>>) = match load {
        Load::Think => (
            Box::new(KeyedThinkTime::new(keys, dist, think, rounds, seed).with_stagger(1)),
            None,
        ),
        Load::Affinity => {
            // Hot tenants run saturated from their onset; cold-tenant
            // onsets spread 8 ticks apart (a fleet's background tenants
            // do not all wake in the same tick — an unspaced start
            // would measure a one-tick thundering herd, not skew).
            let w = KeyedAffinity::new(keys, n, dist, AFFINITY, think, rounds, seed)
                .with_onset_spacing(ONSET_SPACING);
            let profile = w.hub_profile();
            (Box::new(w), Some(profile))
        }
    };
    let placement = match hubs {
        Hubs::Modulo => Placement::Modulo,
        Hubs::Profile => Placement::Profile(Arc::new(
            profile.expect("profile placement needs an affinity workload"),
        )),
    };
    let config = LockSpaceConfig {
        keys,
        placement,
        hold: Time(1),
        batching: true,
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, workload.as_ref());
    let engine_config = EngineConfig {
        record_trace: false,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(nodes, engine_config);
    engine.run_to_quiescence().expect("skew cell must quiesce");
    monitor
        .check_quiescent()
        .expect("per-key safety and liveness verified");
    let elapsed_secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    measurement_from(
        &monitor,
        n,
        keys,
        skew,
        load.label(),
        hubs.label(),
        elapsed_secs,
    )
}

#[allow(clippy::too_many_arguments)]
fn measurement_from(
    monitor: &LockSpaceMonitor,
    n: usize,
    keys: u32,
    skew: &'static str,
    workload: &'static str,
    placement: &'static str,
    elapsed_secs: f64,
) -> SkewMeasurement {
    let rollup = monitor.rollup();
    SkewMeasurement {
        algorithm: "dag",
        n,
        keys,
        skew,
        workload,
        placement,
        grants: rollup.grants,
        keyed_messages: rollup.messages,
        msgs_per_grant: rollup.messages_per_grant,
        mean_wait_ticks: rollup.mean_wait_ticks,
        p50_wait_ticks: rollup.p50_wait_ticks,
        p99_wait_ticks: rollup.p99_wait_ticks,
        elapsed_secs,
    }
}

/// Runs the Naimi–Thiare quorum baseline: a single lock under a
/// closed-loop think-time workload on `n` nodes. Its per-entry message
/// bill is exactly `3(K−1)` with no locality term — the floor the
/// skewed DAG cells are compared against.
///
/// # Panics
///
/// Panics if the closed-loop run starves (it cannot in a correct
/// build).
pub fn run_quorum_cell(n: usize, rounds: u32, seed: u64) -> SkewMeasurement {
    let start = Instant::now();
    let tree = Tree::star(n);
    let scenario = Scenario {
        tree: &tree,
        holder: NodeId(0),
        config: EngineConfig::default(),
    };
    let mut workload = ThinkTime::new(LatencyModel::Fixed(Time(0)), rounds, seed);
    let metrics = run_algorithm(Algorithm::NaimiThiare, &scenario, &mut workload)
        .expect("closed-loop quorum run cannot starve");
    let hist = metrics.wait_histogram();
    SkewMeasurement {
        algorithm: "naimi-thiare",
        n,
        keys: 1,
        skew: "flat",
        workload: "think",
        placement: "quorum",
        grants: metrics.cs_entries,
        keyed_messages: metrics.messages_total,
        msgs_per_grant: metrics.messages_per_entry(),
        mean_wait_ticks: metrics.mean_wait_ticks().unwrap_or(0.0),
        p50_wait_ticks: hist.p50(),
        p99_wait_ticks: hist.p99(),
        elapsed_secs: start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE),
    }
}

/// The three DAG cells of one `(keys, skew)` grid point, in table
/// order: think/modulo, affinity/modulo, affinity/profile.
pub fn grid_point(
    n: usize,
    keys: u32,
    skew: &'static str,
    dist: KeyDist,
    rounds: u32,
) -> Vec<SkewMeasurement> {
    [
        (Load::Think, Hubs::Modulo),
        (Load::Affinity, Hubs::Modulo),
        (Load::Affinity, Hubs::Profile),
    ]
    .into_iter()
    .map(|(load, hubs)| run_dag_cell(n, keys, skew, dist, load, hubs, rounds, 42))
    .collect()
}

/// The sweep: `keys ∈ key_counts × skew ∈ {uniform, zipf-1.1}`, three
/// DAG cells each, plus the quorum baseline row.
pub fn run(n: usize, key_counts: &[u32], rounds: u32) -> Table {
    let mut table = Table::new(
        &format!(
            "ext_skew — placement × skew on N = {n} \
             (affinity {AFFINITY}, per-key safety checked)"
        ),
        &[
            "algorithm",
            "keys",
            "skew",
            "workload",
            "placement",
            "grants",
            "msgs/grant",
            "mean wait",
            "p50",
            "p99",
        ],
    );
    let mut row = |m: &SkewMeasurement| {
        table.row(&[
            m.algorithm.to_string(),
            m.keys.to_string(),
            m.skew.to_string(),
            m.workload.to_string(),
            m.placement.to_string(),
            m.grants.to_string(),
            format!("{:.2}", m.msgs_per_grant),
            format!("{:.1}", m.mean_wait_ticks),
            m.p50_wait_ticks.to_string(),
            m.p99_wait_ticks.to_string(),
        ]);
    };
    for &keys in key_counts {
        for (skew, dist) in SKEWS {
            for m in grid_point(n, keys, skew, dist, rounds) {
                row(&m);
            }
        }
    }
    row(&run_quorum_cell(n, rounds.min(6), 42));
    table
}

/// Gap-closure summary at one key count: how much of the skew penalty
/// (the symmetric-zipf mean/p99 wait over symmetric-uniform, both
/// modulo-placed — PR 7's 60.9-vs-9.8 baseline cells) the full stack
/// (locality-aware demand + profile placement) closes.
///
/// Why the baseline is the *symmetric* cell and the stack the
/// *affinity* cell: symmetric popularity skew is queueing-bound — at 64
/// keys × 127 nodes zipf-1.1 the hottest key alone carries ~28% of all
/// grants, every consecutive pair from *different* nodes, so even a
/// zero-message oracle scheduler leaves ≈ 34 ticks mean wait (the hot
/// key's serialized holds divided by each node's round count) — almost
/// exactly the 50%-closure point. No token scheme can close that; the
/// closable regime is skew *correlated with locality* (each hot key's
/// demand concentrated at a hot tenant), which is what [`KeyedAffinity`]
/// models and what path reversal + placement serve. The suite publishes
/// all six cells per key count so the decomposition stays transparent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewGap {
    /// Key count the summary is computed at.
    pub keys: u32,
    /// think/modulo, uniform — the target.
    pub uniform_base_mean: f64,
    /// think/modulo, zipf — the unmodified-DAG baseline.
    pub zipf_base_mean: f64,
    /// affinity/profile, zipf — the full stack.
    pub stack_mean: f64,
    /// p99 wait for the same three cells.
    pub uniform_base_p99: u64,
    /// p99, think/modulo, zipf.
    pub zipf_base_p99: u64,
    /// p99, affinity/profile, zipf.
    pub stack_p99: u64,
    /// Mean wait, affinity/modulo, uniform — the stack's own uniform
    /// floor…
    pub affinity_uniform_modulo_mean: f64,
    /// …and affinity/profile, uniform: placement must stay near-free on
    /// unskewed affinity demand too.
    pub affinity_uniform_profile_mean: f64,
}

impl SkewGap {
    /// Percentage of the zipf→uniform *mean-wait* gap closed by the
    /// full stack; > 100 means the stack beat the uniform target.
    pub fn closed_mean_pct(&self) -> f64 {
        closure(self.zipf_base_mean, self.stack_mean, self.uniform_base_mean)
    }

    /// Percentage of the zipf→uniform *p99-wait* gap closed.
    pub fn closed_p99_pct(&self) -> f64 {
        closure(
            self.zipf_base_p99 as f64,
            self.stack_p99 as f64,
            self.uniform_base_p99 as f64,
        )
    }

    /// Mean-wait movement of the *affinity* uniform cell under profile
    /// placement, in percent — placement must not tax unskewed local
    /// demand.
    pub fn affinity_uniform_regression_pct(&self) -> f64 {
        regression(
            self.affinity_uniform_modulo_mean,
            self.affinity_uniform_profile_mean,
        )
    }
}

fn closure(off: f64, on: f64, target: f64) -> f64 {
    let gap = off - target;
    if gap <= 0.0 {
        return 100.0;
    }
    100.0 * (off - on) / gap
}

fn regression(off: f64, on: f64) -> f64 {
    if off == 0.0 {
        return 0.0;
    }
    100.0 * (on - off) / off
}

/// Extracts the [`SkewGap`] for `keys` from a suite's cells: the
/// symmetric think cells anchor the baseline and the target, the
/// affinity/profile cell is the full stack.
pub fn gap(results: &[SkewMeasurement], keys: u32) -> Option<SkewGap> {
    let find = |skew: &str, workload: &str, placement: &str| {
        results.iter().find(move |m| {
            m.algorithm == "dag"
                && m.keys == keys
                && m.skew == skew
                && m.workload == workload
                && m.placement == placement
        })
    };
    let uniform_base = find("uniform", "think", "modulo")?;
    let zipf_base = find("zipf-1.1", "think", "modulo")?;
    let stack = find("zipf-1.1", "affinity", "profile")?;
    let affinity_uniform_modulo = find("uniform", "affinity", "modulo")?;
    let affinity_uniform_profile = find("uniform", "affinity", "profile")?;
    Some(SkewGap {
        keys,
        uniform_base_mean: uniform_base.mean_wait_ticks,
        zipf_base_mean: zipf_base.mean_wait_ticks,
        stack_mean: stack.mean_wait_ticks,
        uniform_base_p99: uniform_base.p99_wait_ticks,
        zipf_base_p99: zipf_base.p99_wait_ticks,
        stack_p99: stack.p99_wait_ticks,
        affinity_uniform_modulo_mean: affinity_uniform_modulo.mean_wait_ticks,
        affinity_uniform_profile_mean: affinity_uniform_profile.mean_wait_ticks,
    })
}

/// The `skew` bench cells: the full grid at n = 127 for keys ∈ {64,
/// 4096}, plus the quorum baseline.
pub fn bench_suite() -> Vec<SkewMeasurement> {
    let mut results = Vec::new();
    for (keys, rounds) in [(64u32, 400u32), (4_096, 100)] {
        for (skew, dist) in SKEWS {
            for m in grid_point(127, keys, skew, dist, rounds) {
                eprintln!(
                    "skew: keys={:<5} {:>8} {:>8}/{:<7} mean {:>7.1} p99 {:>5} \
                     msgs/grant {:>6.2}",
                    m.keys,
                    m.skew,
                    m.workload,
                    m.placement,
                    m.mean_wait_ticks,
                    m.p99_wait_ticks,
                    m.msgs_per_grant,
                );
                results.push(m);
            }
        }
    }
    let nt = run_quorum_cell(127, 6, 42);
    eprintln!(
        "skew: naimi-thiare n=127 msgs/grant {:.1} (flat, any skew) mean wait {:.1}",
        nt.msgs_per_grant, nt.mean_wait_ticks
    );
    results.push(nt);
    results
}

/// Serializes a suite as the `skew` JSON object: the cells plus the
/// 64-key and 4096-key gap summaries (hand-rolled, like every other
/// suite — no external JSON dependency).
pub fn results_json(results: &[SkewMeasurement]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("    \"affinity\": {AFFINITY},\n"));
    out.push_str("    \"cells\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"algorithm\": \"{}\", \"n\": {}, \"keys\": {}, \"skew\": \"{}\", \
             \"workload\": \"{}\", \"placement\": \"{}\", \
             \"grants\": {}, \"keyed_messages\": {}, \
             \"msgs_per_grant\": {:.2}, \"mean_wait_ticks\": {:.2}, \
             \"p50_wait_ticks\": {}, \"p99_wait_ticks\": {}, \"elapsed_secs\": {:.6}}}{}\n",
            m.algorithm,
            m.n,
            m.keys,
            m.skew,
            m.workload,
            m.placement,
            m.grants,
            m.keyed_messages,
            m.msgs_per_grant,
            m.mean_wait_ticks,
            m.p50_wait_ticks,
            m.p99_wait_ticks,
            m.elapsed_secs,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("    ],\n    \"gaps\": [");
    let mut key_counts: Vec<u32> = results
        .iter()
        .filter(|m| m.algorithm == "dag")
        .map(|m| m.keys)
        .collect();
    key_counts.sort_unstable();
    key_counts.dedup();
    let gaps: Vec<SkewGap> = key_counts
        .into_iter()
        .filter_map(|k| gap(results, k))
        .collect();
    for (i, g) in gaps.iter().enumerate() {
        out.push_str(&format!(
            "\n      {{\"keys\": {}, \"uniform_base_mean\": {:.2}, \
             \"zipf_base_mean\": {:.2}, \"stack_mean\": {:.2}, \
             \"uniform_base_p99\": {}, \"zipf_base_p99\": {}, \"stack_p99\": {}, \
             \"affinity_uniform_modulo_mean\": {:.2}, \
             \"affinity_uniform_profile_mean\": {:.2}, \
             \"gap_closed_mean_pct\": {:.1}, \"gap_closed_p99_pct\": {:.1}, \
             \"affinity_uniform_regression_pct\": {:.1}}}{}",
            g.keys,
            g.uniform_base_mean,
            g.zipf_base_mean,
            g.stack_mean,
            g.uniform_base_p99,
            g.zipf_base_p99,
            g.stack_p99,
            g.affinity_uniform_modulo_mean,
            g.affinity_uniform_profile_mean,
            g.closed_mean_pct(),
            g.closed_p99_pct(),
            g.affinity_uniform_regression_pct(),
            if i + 1 == gaps.len() { "" } else { "," }
        ));
    }
    out.push_str("\n    ]\n  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_closes_most_of_the_symmetric_skew_gap_at_test_scale() {
        // The acceptance property, shrunk: 15 nodes, 16 keys. The
        // symmetric zipf cell is the baseline penalty; hot-tenant demand
        // plus placement must win back at least half of the distance to
        // the symmetric-uniform target.
        let zipf = grid_point(15, 16, "zipf-1.1", KeyDist::Zipf { exponent: 1.1 }, 60);
        let uniform = grid_point(15, 16, "uniform", KeyDist::Uniform, 60);
        let all: Vec<SkewMeasurement> = zipf.into_iter().chain(uniform).collect();
        let g = gap(&all, 16).expect("grid covers the gap cells");
        eprintln!(
            "test-scale gap: baseline {:.2} -> stack {:.2} (target {:.2}), \
             mean {:.0}% p99 {:.0}% affinity-uniform {:+.1}%",
            g.zipf_base_mean,
            g.stack_mean,
            g.uniform_base_mean,
            g.closed_mean_pct(),
            g.closed_p99_pct(),
            g.affinity_uniform_regression_pct()
        );
        assert!(
            g.closed_mean_pct() >= 50.0,
            "stack closed only {:.0}% of the mean-wait gap ({:.1} -> {:.1}, target {:.1})",
            g.closed_mean_pct(),
            g.zipf_base_mean,
            g.stack_mean,
            g.uniform_base_mean
        );
        // The stack must not tax unskewed affinity demand.
        assert!(
            g.affinity_uniform_regression_pct() <= 15.0,
            "affinity-uniform mean wait regressed {:.1}% under the stack",
            g.affinity_uniform_regression_pct()
        );
    }

    #[test]
    #[ignore = "bench-scale probe (127 nodes, minutes); run with --ignored --nocapture"]
    fn bench_scale_gap_probe() {
        let mut all = grid_point(127, 64, "zipf-1.1", KeyDist::Zipf { exponent: 1.1 }, 400);
        all.extend(grid_point(127, 64, "uniform", KeyDist::Uniform, 400));
        for m in &all {
            eprintln!(
                "{:>8} {:>8}/{:<7} grants {:>6} mean {:>7.2} \
                 p50 {:>4} p99 {:>5} msgs/grant {:>6.2}",
                m.skew,
                m.workload,
                m.placement,
                m.grants,
                m.mean_wait_ticks,
                m.p50_wait_ticks,
                m.p99_wait_ticks,
                m.msgs_per_grant
            );
        }
        let g = gap(&all, 64).expect("grid covers the gap cells");
        eprintln!(
            "gap: mean {:.1}% p99 {:.1}% affinity-uniform regression {:+.1}%",
            g.closed_mean_pct(),
            g.closed_p99_pct(),
            g.affinity_uniform_regression_pct()
        );
    }

    #[test]
    fn profile_placement_beats_modulo_on_first_touch_traffic() {
        // One round per node: placement is the whole story (a parked
        // token can't help a single acquisition).
        let dist = KeyDist::Zipf { exponent: 1.1 };
        let cell = |hubs| run_dag_cell(15, 16, "zipf-1.1", dist, Load::Affinity, hubs, 1, 11);
        let modulo = cell(Hubs::Modulo);
        let profile = cell(Hubs::Profile);
        assert_eq!(modulo.grants, profile.grants);
        assert!(
            profile.keyed_messages < modulo.keyed_messages,
            "profile {} !< modulo {}",
            profile.keyed_messages,
            modulo.keyed_messages
        );
    }

    #[test]
    fn quorum_baseline_pays_its_flat_bill() {
        let m = run_quorum_cell(13, 2, 5);
        assert_eq!(m.algorithm, "naimi-thiare");
        assert_eq!(m.grants, 26);
        // 3(K-1) = 9 at N = 13, contended or not.
        assert!(
            (m.msgs_per_grant - 9.0).abs() < 1e-9,
            "msgs/grant {}",
            m.msgs_per_grant
        );
    }

    #[test]
    fn table_covers_the_grid_plus_the_baseline() {
        let t = run(15, &[8], 4);
        // 1 key count × 2 skews × 3 cells + 1 quorum row.
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cells = grid_point(15, 16, "zipf-1.1", KeyDist::Zipf { exponent: 1.1 }, 8);
        let uniform = grid_point(15, 16, "uniform", KeyDist::Uniform, 8);
        let mut all: Vec<SkewMeasurement> = cells.into_iter().chain(uniform).collect();
        all.push(run_quorum_cell(13, 2, 5));
        let json = results_json(&all);
        assert_eq!(json.matches("\"algorithm\"").count(), 7);
        assert!(json.contains("\"gap_closed_mean_pct\""));
        assert!(json.contains("\"naimi-thiare\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
    }
}
