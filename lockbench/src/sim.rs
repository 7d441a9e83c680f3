//! `Engine` + `LockSpace::cluster`: the sequential simulator driver.

use std::time::{Duration, Instant};

use dmx_lockspace::{LockSpace, LockSpaceConfig, LockSpaceMonitor, LockSpaceNode};
use dmx_simnet::{Engine, EngineConfig, LatencyModel, Time};
use dmx_topology::Tree;
use dmx_workload::KeyedThinkTime;

use crate::report::Outcome;
use crate::trace::Recorder;
use crate::workloads::Shape;

/// Builds the lock space: a complete binary tree, every node in a
/// saturated closed loop (think 0, hold 1) for `rounds` grants.
fn build(
    shape: Shape,
    seed: u64,
    rounds: u32,
    trace_paths: bool,
) -> (Engine<LockSpaceNode>, LockSpaceMonitor) {
    let tree = Tree::kary(shape.n, 2);
    let workload = KeyedThinkTime::new(
        shape.keys,
        shape.dist(),
        LatencyModel::Fixed(Time(0)),
        rounds,
        seed,
    );
    let config = LockSpaceConfig {
        keys: shape.keys,
        hold: Time(1),
        trace_paths,
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
    let engine = Engine::new(
        nodes,
        EngineConfig {
            latency: shape.latency,
            seed,
            record_trace: false,
            ..EngineConfig::default()
        },
    );
    (engine, monitor)
}

/// The deterministic counts of one completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    events: u64,
    grants: u64,
    messages: u64,
    envelopes: u64,
    wait_p50: u64,
    wait_p99: u64,
}

/// Steps `engine` to quiescence, timing each step as a span when a
/// recorder is given. Returns the number of events processed.
fn drive(engine: &mut Engine<LockSpaceNode>, mut rec: Option<&mut Recorder>) -> u64 {
    let mut events = 0u64;
    loop {
        let stepped = match rec.as_deref_mut() {
            Some(r) => r.time("simnet.step", 0, events, || engine.step()),
            None => engine.step(),
        };
        match stepped {
            Ok(Some(_)) => events += 1,
            Ok(None) => return events,
            // The lock space reports its violations through the
            // monitor; the engine's own checkers never fire for it.
            Err(e) => panic!("engine error in a lock-space run: {e}"),
        }
    }
}

/// Checks the run's verdicts and returns its exact counts.
fn verdict(
    out: &mut Outcome,
    engine: &Engine<LockSpaceNode>,
    monitor: &LockSpaceMonitor,
    events: u64,
) -> Exact {
    let rollup = monitor.rollup();
    out.attempted += rollup.requests;
    if let Err(v) = monitor.check_quiescent() {
        out.failed += rollup.requests.saturating_sub(rollup.grants).max(1);
        out.violation(format!("simulator oracle: {v}"));
    }
    out.check(rollup.grants == rollup.requests, || {
        format!(
            "simulator granted {} of {} requests",
            rollup.grants, rollup.requests
        )
    });
    let hist = monitor.wait_histogram();
    Exact {
        events,
        grants: rollup.grants,
        messages: rollup.messages,
        envelopes: engine.metrics().messages_total,
        wait_p50: hist.p50(),
        wait_p99: hist.p99(),
    }
}

fn report_exact(out: &mut Outcome, e: Exact) {
    let g = e.grants.max(1) as f64;
    out.set("msgs_per_grant", "msgs", e.messages as f64 / g);
    out.set("envelopes_per_grant", "envelopes", e.envelopes as f64 / g);
    out.set("wait_p50_ticks", "ticks", e.wait_p50 as f64);
    out.set("wait_p99_ticks", "ticks", e.wait_p99 as f64);
    out.note(format!(
        "exact: events={} grants={} msgs={} envelopes={} wait_p50_ticks={} wait_p99_ticks={}",
        e.events, e.grants, e.messages, e.envelopes, e.wait_p50, e.wait_p99
    ));
}

/// Untraced runs: the same seeded inputs rebuilt and run to quiescence
/// until `budget` is spent (at least `min_reps` times). Wall-clock
/// metrics are per-repetition samples; the exact counts must repeat on
/// every repetition.
pub fn run(shape: Shape, seed: u64, rounds: u32, budget: Duration, min_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut first: Option<Exact> = None;
    let mut reps = 0;
    while reps < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        let (mut engine, monitor) = build(shape, seed, rounds, false);
        out.sample("setup_s", "s", t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let events = drive(&mut engine, None);
        let wall = t1.elapsed().as_secs_f64();
        let exact = verdict(&mut out, &engine, &monitor, events);
        out.sample("events_per_s", "1/s", events as f64 / wall);
        out.sample("grants_per_s", "1/s", exact.grants as f64 / wall);
        match first {
            None => first = Some(exact),
            Some(f) => out.check(f == exact, || {
                format!("simulator repetition diverged: {f:?} vs {exact:?}")
            }),
        }
        reps += 1;
    }
    if let Some(e) = first {
        report_exact(&mut out, e);
    }
    out
}

/// One traced run: a span around every `Engine::step`, DAG path
/// tracing on, and the simulator's own counters.
pub fn traced(shape: Shape, seed: u64, rounds: u32, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let (mut engine, monitor) = build(shape, seed, rounds, true);
    let t0 = Instant::now();
    let events = drive(&mut engine, Some(rec));
    let wall = t0.elapsed().as_secs_f64();
    let exact = verdict(&mut out, &engine, &monitor, events);
    report_exact(&mut out, exact);
    let m = engine.metrics();
    let ev = events.max(1) as f64;
    let grants = exact.grants.max(1) as f64;
    out.set("grants_per_s", "1/s", exact.grants as f64 / wall);
    out.set("simnet.step_ns", "ns", rec.totals("simnet.step").mean_ns());
    out.set(
        "simnet.rotations_per_event",
        "count",
        m.sched_bucket_rotations as f64 / ev,
    );
    out.set("simnet.wakes_per_grant", "count", m.wakes as f64 / grants);
    let materialized: usize = engine.nodes().iter().map(|n| n.table().len()).sum();
    out.set("lockspace.keys_materialized", "count", materialized as f64);
    out.set(
        "lockspace.msgs_per_envelope",
        "msgs",
        exact.messages as f64 / exact.envelopes.max(1) as f64,
    );
    let paths = monitor.path_histogram();
    out.set("core.path_hops_mean", "hops", paths.mean().unwrap_or(0.0));
    out.note(format!(
        "simulator: backend={} events={} path_hops p50={} p99={} over {} requests",
        engine.sched_backend().name(),
        events,
        paths.p50(),
        paths.p99(),
        paths.count()
    ));
    out
}
