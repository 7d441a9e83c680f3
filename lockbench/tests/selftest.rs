//! The benchmark's self-test: a tiny pass over all four workloads.

use std::time::Duration;

use lockbench::runtime::{self, Backend};
use lockbench::workloads::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use lockbench::{execute, par, sim, Plan, Size};

fn tiny(workload: Workload, seed: u64, trace: bool) -> lockbench::report::Outcome {
    execute(&Plan {
        workload,
        seed,
        seconds: 0.5,
        trace,
        size: Size::Tiny,
        spans_out: None,
    })
}

/// `(name, unit)` pairs listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let end = text[start..].find(']').expect("section ends") + start;
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"').expect("value") + 1;
                let close = rest[open..].find('"').expect("value ends") + open;
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn every_metric_is_measured_with_its_unit_on_two_seeds() {
    for (i, w) in WORKLOADS.into_iter().enumerate() {
        // A second seed on alternate workloads: no check may depend on
        // the seed the sizes were tuned with.
        let seed = 1 + (i as u64 % 2);
        for (trace, names) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = tiny(w, seed, trace);
            assert!(
                out.correct(),
                "{} trace={trace}: {:?} ({} failed)",
                w.name(),
                out.violations,
                out.failed
            );
            for &(name, unit) in names {
                let m = out
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{} trace={trace}: {name} missing", w.name()));
                assert_eq!(m.unit, unit, "{name} unit");
                assert!(m.value().is_finite(), "{} {name} = {}", w.name(), m.value());
            }
        }
    }
}

#[test]
fn simulator_counts_repeat_bit_for_bit() {
    for w in [Workload::SimUniform4096, Workload::ParZipf64] {
        let a = tiny(w, 7, false);
        let b = tiny(w, 7, false);
        for name in [
            "msgs_per_grant",
            "envelopes_per_grant",
            "wait_p50_ticks",
            "wait_p99_ticks",
        ] {
            let (x, y) = (a.get(name).expect(name), b.get(name).expect(name));
            assert_eq!(x.to_bits(), y.to_bits(), "{} {name}: {x} vs {y}", w.name());
        }
    }
}

#[test]
fn wait_tails_do_not_grow_with_run_length() {
    let forever = Duration::ZERO;
    let shape = Workload::ParZipf64.shape();
    let half = par::run(shape, 7, 200, forever, 1);
    let full = par::run(shape, 7, 400, forever, 1);
    let (h, f) = (
        half.get("wait_p99_ticks").unwrap(),
        full.get("wait_p99_ticks").unwrap(),
    );
    assert!(half.correct() && full.correct());
    assert!(
        f <= 1.25 * h + 2.0,
        "par-zipf-64 wait p99 grew: {h} -> {f} ticks"
    );

    let shape = Workload::SimUniform4096.shape();
    let half = sim::run(shape, 7, 4, forever, 1);
    let full = sim::run(shape, 7, 8, forever, 1);
    let (h, f) = (
        half.get("wait_p99_ticks").unwrap(),
        full.get("wait_p99_ticks").unwrap(),
    );
    assert!(
        f <= 1.25 * h + 2.0,
        "sim-uniform-4096 wait p99 grew: {h} -> {f} ticks"
    );

    // Wall-clock tails are noisy on a shared host; a backlog would
    // grow them with the run length, far past this margin.
    let shape = Workload::ThreadsZipf64.shape();
    let half = runtime::run(Backend::Threads, shape, 7, Duration::from_millis(400), 1);
    let full = runtime::run(Backend::Threads, shape, 7, Duration::from_millis(800), 1);
    let (h, f) = (
        half.get("acquire_p99_us").unwrap(),
        full.get("acquire_p99_us").unwrap(),
    );
    assert!(half.correct() && full.correct());
    assert!(
        f <= 2.0 * h + 20_000.0,
        "threads-zipf-64 acquire p99 grew: {h} -> {f} us"
    );
}
