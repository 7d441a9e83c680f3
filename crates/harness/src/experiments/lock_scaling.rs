//! `ext_lock` — lock-space scaling sweep: the new scenario axis
//! (keys × skew × n) opened by the `dmx-lockspace` subsystem.
//!
//! The paper arbitrates one critical section; the lock space multiplexes
//! thousands. This experiment sweeps the key-space size, the key
//! popularity skew (uniform vs Zipf-skewed hot keys), and the node
//! count, reporting per-key traffic, the envelope savings of
//! per-destination batching, and the cross-key concurrency a single-lock
//! system can never exhibit. Per-key safety and liveness are verified on
//! every cell by the keyed oracles.
//!
//! The `repro -- bench` subcommand additionally times a fixed subset of
//! cells (`bench_suite`) and serializes them as the `multi_key` section
//! of `BENCH_CURRENT.json`.

use std::time::Instant;

use dmx_lockspace::{LockSpace, LockSpaceConfig, LockSpaceMonitor, Placement};
use dmx_simnet::{Engine, EngineConfig, LatencyModel, Scheduler, Time};
use dmx_topology::Tree;
use dmx_workload::{KeyDist, KeyedThinkTime};

use crate::Table;

/// Skews the sweep walks, with stable table labels.
pub const SKEWS: [(&str, KeyDist); 2] = [
    ("uniform", KeyDist::Uniform),
    ("zipf-1.1", KeyDist::Zipf { exponent: 1.1 }),
];

/// One multiplexed closed-loop run: `rounds` keyed entries per node over
/// `keys` keys on a complete binary tree of `n` nodes, batching on.
/// Returns the engine and monitor after verifying quiescence and per-key
/// safety.
///
/// # Panics
///
/// Panics if the run violates per-key safety or liveness.
pub fn run_cell(
    n: usize,
    keys: u32,
    dist: KeyDist,
    rounds: u32,
    seed: u64,
) -> (Engine<dmx_lockspace::LockSpaceNode>, LockSpaceMonitor) {
    run_cell_with(n, keys, dist, rounds, seed, Scheduler::Auto)
}

/// [`run_cell`] under an explicit scheduler backend (the bench suite
/// times both; both produce the identical simulated run).
pub fn run_cell_with(
    n: usize,
    keys: u32,
    dist: KeyDist,
    rounds: u32,
    seed: u64,
    scheduler: Scheduler,
) -> (Engine<dmx_lockspace::LockSpaceNode>, LockSpaceMonitor) {
    let tree = Tree::kary(n, 2);
    let workload = KeyedThinkTime::new(keys, dist, LatencyModel::Fixed(Time(0)), rounds, seed);
    let config = LockSpaceConfig {
        keys,
        placement: Placement::Modulo,
        hold: Time(1),
        batching: true,
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
    let engine_config = EngineConfig {
        record_trace: false,
        scheduler,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(nodes, engine_config);
    engine
        .run_to_quiescence()
        .expect("lock-space cell must quiesce");
    monitor
        .check_quiescent()
        .expect("per-key safety and liveness verified");
    (engine, monitor)
}

/// The sweep: `keys ∈ key_counts × skew ∈ {uniform, zipf} × n ∈ sizes`,
/// `rounds` entries per node per cell.
pub fn run(sizes: &[usize], key_counts: &[u32], rounds: u32) -> Table {
    let mut table = Table::new(
        "ext_lock — lock-space scaling (keys × skew × n, batching on, per-key safety checked)",
        &[
            "n",
            "keys",
            "skew",
            "grants",
            "keyed msgs/grant",
            "envelopes",
            "batch savings",
            "keys touched",
            "peak held",
        ],
    );
    for &n in sizes {
        for &keys in key_counts {
            for (label, dist) in SKEWS {
                let (engine, monitor) = run_cell(n, keys, dist, rounds, 42);
                let rollup = monitor.rollup();
                let envelopes = engine.metrics().messages_total;
                let savings = if rollup.messages > 0 {
                    100.0 * (1.0 - envelopes as f64 / rollup.messages as f64)
                } else {
                    0.0
                };
                table.row(&[
                    n.to_string(),
                    keys.to_string(),
                    label.to_string(),
                    rollup.grants.to_string(),
                    format!("{:.2}", rollup.messages_per_grant),
                    envelopes.to_string(),
                    format!("{savings:.0}%"),
                    rollup.keys_touched.to_string(),
                    monitor.peak_concurrent_holders().to_string(),
                ]);
            }
        }
    }
    table
}

/// One timed multi-key cell for the bench suite.
#[derive(Debug, Clone, PartialEq)]
pub struct LockScalingMeasurement {
    /// Key-space size.
    pub keys: u32,
    /// Node count.
    pub n: usize,
    /// Skew label (`"uniform"` / `"zipf-1.1"`).
    pub skew: &'static str,
    /// Scheduler backend the cell ran under (`"heap"` / `"wheel"`).
    pub scheduler: &'static str,
    /// Engine events processed (deliveries + wake-ups).
    pub events: u64,
    /// Keyed critical-section entries completed.
    pub grants: u64,
    /// Keyed (pre-batching) messages carried.
    pub keyed_messages: u64,
    /// Envelopes (post-batching deliveries) carried.
    pub envelopes: u64,
    /// Mean request→grant wait in ticks.
    pub mean_wait_ticks: f64,
    /// Median request→grant wait in ticks.
    pub p50_wait_ticks: u64,
    /// 99th-percentile request→grant wait in ticks.
    pub p99_wait_ticks: u64,
    /// 99.9th-percentile request→grant wait in ticks.
    pub p999_wait_ticks: u64,
    /// Largest request→grant wait in ticks.
    pub max_wait_ticks: u64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl LockScalingMeasurement {
    /// Engine events processed per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    /// Keyed grants per second.
    pub fn grants_per_sec(&self) -> f64 {
        self.grants as f64 / self.elapsed_secs
    }

    /// Percentage of keyed messages batched away by the transport
    /// (`0.0` when the cell carried no keyed traffic) — the single
    /// definition of "batch savings" for tables and JSON.
    pub fn savings_pct(&self) -> f64 {
        if self.keyed_messages == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.envelopes as f64 / self.keyed_messages as f64)
    }
}

/// Times one cell (whole run, construction included — same convention
/// as the single-lock hot-loop suite).
///
/// # Panics
///
/// Panics if the run violates per-key safety or liveness.
pub fn measure(
    n: usize,
    keys: u32,
    skew: &'static str,
    dist: KeyDist,
    rounds: u32,
) -> LockScalingMeasurement {
    measure_with(n, keys, skew, dist, rounds, Scheduler::Auto)
}

/// [`measure`] under an explicit scheduler backend.
///
/// # Panics
///
/// Panics if the run violates per-key safety or liveness.
pub fn measure_with(
    n: usize,
    keys: u32,
    skew: &'static str,
    dist: KeyDist,
    rounds: u32,
    scheduler: Scheduler,
) -> LockScalingMeasurement {
    let start = Instant::now();
    let (engine, monitor) = run_cell_with(n, keys, dist, rounds, 42, scheduler);
    let elapsed_secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let m = engine.metrics();
    let events = m.requests + m.messages_total + m.cs_entries + m.wakes;
    let rollup = monitor.rollup();
    LockScalingMeasurement {
        keys,
        n,
        skew,
        scheduler: engine.sched_backend().name(),
        events,
        grants: rollup.grants,
        keyed_messages: rollup.messages,
        envelopes: m.messages_total,
        mean_wait_ticks: rollup.mean_wait_ticks,
        p50_wait_ticks: rollup.p50_wait_ticks,
        p99_wait_ticks: rollup.p99_wait_ticks,
        p999_wait_ticks: rollup.p999_wait_ticks,
        max_wait_ticks: rollup.max_wait_ticks,
        elapsed_secs,
    }
}

/// The `multi_key` bench cells: the keys ∈ {1, 64, 4096} ladder at
/// n = 127, both skews (skew is meaningless at one key, so that cell
/// runs uniform only), each timed under both scheduler backends — the
/// lock space's end-of-tick flush wakes are the wheel's densest
/// same-tick workload, so this is where the scheduling-core win has to
/// show up at the subsystem level.
pub fn bench_suite() -> Vec<LockScalingMeasurement> {
    let mut results = Vec::new();
    for (keys, rounds) in [(1u32, 2_000u32), (64, 1_000), (4_096, 200)] {
        for (label, dist) in SKEWS {
            if keys == 1 && label != "uniform" {
                continue;
            }
            for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
                let _warmup = measure_with(127, keys, label, dist, (rounds / 20).max(1), scheduler);
                let m = measure_with(127, keys, label, dist, rounds, scheduler);
                eprintln!(
                    "lock_scaling: keys={:<5} n=127 {:>8} {:>6} {:>12.0} events/s {:>10.0} grants/s",
                    m.keys,
                    m.skew,
                    m.scheduler,
                    m.events_per_sec(),
                    m.grants_per_sec()
                );
                results.push(m);
            }
        }
    }
    results
}

/// Serializes measurements as a JSON array (hand-rolled, like the
/// hot-loop suite — no external JSON dependency in this offline
/// workspace).
pub fn results_json(results: &[LockScalingMeasurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"keys\": {}, \"n\": {}, \"skew\": \"{}\", \
             \"scheduler\": \"{}\", \"events\": {}, \
             \"grants\": {}, \"keyed_messages\": {}, \"envelopes\": {}, \
             \"mean_wait_ticks\": {:.2}, \"p50_wait_ticks\": {}, \
             \"p99_wait_ticks\": {}, \"p999_wait_ticks\": {}, \
             \"max_wait_ticks\": {}, \
             \"elapsed_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"grants_per_sec\": {:.0}}}{}\n",
            m.keys,
            m.n,
            m.skew,
            m.scheduler,
            m.events,
            m.grants,
            m.keyed_messages,
            m.envelopes,
            m.mean_wait_ticks,
            m.p50_wait_ticks,
            m.p99_wait_ticks,
            m.p999_wait_ticks,
            m.max_wait_ticks,
            m.elapsed_secs,
            m.events_per_sec(),
            m.grants_per_sec(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_and_batching_saves_envelopes() {
        let table = run(&[15], &[1, 16], 6);
        assert_eq!(table.len(), 4, "2 key counts × 2 skews");
        assert_eq!(table.cell(0, 3), "90", "15 nodes × 6 rounds");
        // At 16 keys there is real cross-key concurrency...
        let peak: usize = table.cell(2, 8).parse().unwrap();
        assert!(peak > 1, "peak held was {peak}");
        // ...while a single key serializes everything.
        let single: usize = table.cell(0, 8).parse().unwrap();
        assert_eq!(single, 1);
    }

    #[test]
    fn measure_counts_events_and_traffic() {
        let m = measure(15, 16, "uniform", KeyDist::Uniform, 4);
        assert_eq!(m.grants, 60);
        assert!(m.events > m.grants, "wakes + deliveries exceed grants");
        assert!(
            m.envelopes <= m.keyed_messages,
            "batching never adds envelopes"
        );
        assert!(m.events_per_sec() > 0.0 && m.grants_per_sec() > 0.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_mean() {
        let m = measure(15, 16, "uniform", KeyDist::Uniform, 6);
        assert!(m.p50_wait_ticks <= m.p99_wait_ticks);
        assert!(m.p99_wait_ticks <= m.p999_wait_ticks);
        assert!(m.p999_wait_ticks <= m.max_wait_ticks);
        assert!(
            m.mean_wait_ticks <= m.max_wait_ticks as f64,
            "mean {} exceeds max {}",
            m.mean_wait_ticks,
            m.max_wait_ticks
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = measure(15, 4, "uniform", KeyDist::Uniform, 2);
        let json = results_json(&[m.clone(), m]);
        assert_eq!(json.matches("\"keys\"").count(), 2);
        assert_eq!(json.matches("\"scheduler\"").count(), 2);
        assert_eq!(json.matches("\"p999_wait_ticks\"").count(), 2);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
