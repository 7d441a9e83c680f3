//! `ParallelEngine`: the key-sharded parallel simulator driver.

use std::time::{Duration, Instant};

use dmx_lockspace::{ParallelConfig, ParallelEngine, ParallelReport, ShardMap};
use dmx_simnet::Time;
use dmx_topology::Tree;
use dmx_workload::{KeyLoad, PacedKeyDemand};

use crate::report::Outcome;
use crate::trace::Recorder;
use crate::workloads::Shape;

/// Ticks between a key's demand bursts. With hold 1 this keeps the
/// hottest zipf-1.1 key below its service rate: its wait tail stays
/// flat as the run gets longer (spacing 60 with hold 2 does not).
const SPACING: u64 = 200;
const BURST: u64 = 2;
const SHARDS: usize = 2;

fn demand(shape: Shape, seed: u64, rounds: u64) -> PacedKeyDemand {
    let d = PacedKeyDemand::new(shape.keys, shape.n, SPACING, BURST, rounds, seed);
    if shape.zipf {
        d.with_load(KeyLoad::Zipf { exponent: 1.1 })
    } else {
        d
    }
}

fn build(shape: Shape, seed: u64, rounds: u64, shards: usize, threads: bool) -> ParallelEngine {
    let tree = Tree::kary(shape.n, 2);
    let demand = demand(shape, seed, rounds);
    let config = ParallelConfig {
        shards,
        shard_map: ShardMap::balanced(demand.demand_profile()),
        threads,
        hold: Time(1),
        ..ParallelConfig::default()
    };
    ParallelEngine::new(&tree, demand, config)
}

/// Checks a report's verdicts.
fn verdict(out: &mut Outcome, r: &ParallelReport, expected: u64) {
    out.attempted += expected;
    if let Some(v) = r.violation {
        out.failed += 1;
        out.violation(format!("parallel engine safety: {v}"));
    }
    if r.starved > 0 {
        out.failed += r.starved;
        out.violation(format!("parallel engine starved {} requests", r.starved));
    }
    out.check(r.grants == expected, || {
        format!(
            "parallel engine granted {} of {expected} requests",
            r.grants
        )
    });
}

/// The deterministic part of a report.
fn exact(r: &ParallelReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.events,
        r.grants,
        r.messages,
        r.envelopes,
        r.rollup.p50_wait_ticks,
        r.rollup.p99_wait_ticks,
        r.grant_digest,
    )
}

fn report_exact(out: &mut Outcome, r: &ParallelReport) {
    let g = r.grants.max(1) as f64;
    out.set("msgs_per_grant", "msgs", r.messages as f64 / g);
    out.set("envelopes_per_grant", "envelopes", r.envelopes as f64 / g);
    out.set("wait_p50_ticks", "ticks", r.rollup.p50_wait_ticks as f64);
    out.set("wait_p99_ticks", "ticks", r.rollup.p99_wait_ticks as f64);
    out.note(format!(
        "exact: events={} grants={} msgs={} envelopes={} wait_p50_ticks={} wait_p99_ticks={} digest={:#x}",
        r.events,
        r.grants,
        r.messages,
        r.envelopes,
        r.rollup.p50_wait_ticks,
        r.rollup.p99_wait_ticks,
        r.grant_digest
    ));
}

/// Untraced runs: 2 shards on 2 threads, rebuilt and run to quiescence
/// until `budget` is spent (at least `min_reps` times).
pub fn run(shape: Shape, seed: u64, rounds: u64, budget: Duration, min_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let expected = demand(shape, seed, rounds).total_requests();
    let started = Instant::now();
    let mut first = None;
    let mut reps = 0;
    while reps < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        let engine = build(shape, seed, rounds, SHARDS, true);
        out.sample("setup_s", "s", t0.elapsed().as_secs_f64());
        let r = engine.run();
        verdict(&mut out, &r, expected);
        let wall = r.wall_nanos.max(1) as f64 / 1e9;
        out.sample("events_per_s", "1/s", r.events as f64 / wall);
        out.sample("grants_per_s", "1/s", r.grants as f64 / wall);
        let e = exact(&r);
        match first {
            None => {
                report_exact(&mut out, &r);
                first = Some(e);
            }
            Some(f) => out.check(f == e, || {
                format!("parallel repetition diverged: {f:?} vs {e:?}")
            }),
        }
        reps += 1;
    }
    out
}

/// The traced runs: one threaded run for the barrier counters, the same
/// shards stepped one round at a time on this thread with a span per
/// round, and a 1-shard sequential run whose digest the threaded one
/// must equal.
pub fn traced(shape: Shape, seed: u64, rounds: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let expected = demand(shape, seed, rounds).total_requests();

    let threaded = build(shape, seed, rounds, SHARDS, true).run();
    verdict(&mut out, &threaded, expected);
    report_exact(&mut out, &threaded);
    out.set(
        "grants_per_s",
        "1/s",
        threaded.grants as f64 / (threaded.wall_nanos.max(1) as f64 / 1e9),
    );
    out.set(
        "parallel.barrier_wait_share",
        "ratio",
        1.0 - threaded.busy_critical_nanos as f64 / threaded.wall_nanos.max(1) as f64,
    );
    out.set("parallel.imbalance", "ratio", threaded.imbalance());
    out.set("parallel.windows", "count", threaded.windows as f64);

    let mut stepped = build(shape, seed, rounds, SHARDS, false);
    let mut round = 0u64;
    while rec.time("parallel.round", 0, round, || stepped.step_rounds(1)) {
        round += 1;
    }
    let stepped = stepped.finish();
    out.set(
        "parallel.round_us",
        "us",
        rec.totals("parallel.round").mean_ns() / 1e3,
    );

    let single = build(shape, seed, rounds, 1, false).run();
    for (label, r) in [("stepped 2-shard", &stepped), ("1-shard", &single)] {
        out.check(r.grant_digest == threaded.grant_digest, || {
            format!(
                "threaded digest {:#x} differs from the {label} sequential digest {:#x}",
                threaded.grant_digest, r.grant_digest
            )
        });
    }
    out
}
