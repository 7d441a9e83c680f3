//! End-to-end and per-layer benchmark of the DAG lock's four drivers.
//!
//! Each workload runs one driver: `Engine` + `LockSpace` (the
//! sequential simulator), `ParallelEngine`, `LockSpaceCluster` (threads
//! and channels), or `TcpCluster` (loopback sockets). An untraced run
//! measures the end-to-end metrics; a traced run records spans around
//! the benchmark's calls into each layer and reports per-layer costs.
//! Every layer is measured on every workload: the workload's own driver
//! measures the layers it uses in place, a short run of each other
//! driver at the workload's shape measures the rest, and bare replays
//! of the workload's request stream time the state machine, event
//! queue, lock table, transport and channel on their own.

pub mod par;
pub mod probes;
pub mod report;
pub mod runtime;
pub mod sim;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{peak_rss_mb, Outcome};
use runtime::Backend;
use trace::Recorder;
use workloads::{Driver, Shape, Workload, DRIVERS};

/// Run sizes: `Full` for the benchmark, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans (`None`: not written).
    pub spans_out: Option<PathBuf>,
}

/// Which size of run a driver makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// The workload's own driver.
    Own(Size),
    /// A short probe of another driver at the workload's shape.
    Probe,
}

/// Simulator rounds per node; a probe makes about 20k requests.
fn sim_rounds(shape: Shape, run: Run) -> u32 {
    match run {
        Run::Own(Size::Full) => 400,
        Run::Own(Size::Tiny) => 4,
        Run::Probe => (20_000 / shape.n as u32).max(2),
    }
}

/// Paced rounds per key; a probe makes about 20k requests.
fn par_rounds(shape: Shape, run: Run) -> u64 {
    match run {
        Run::Own(Size::Full) => 1_000,
        Run::Own(Size::Tiny) => 20,
        Run::Probe => (10_000 / u64::from(shape.keys)).max(2),
    }
}

/// Seeds of the workload's own inputs and of each probe, all derived
/// from `--seed`.
fn seed_for(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Untraced run of `driver` at `shape` for `budget`.
fn untraced(driver: Driver, shape: Shape, seed: u64, budget: Duration, size: Size) -> Outcome {
    match driver {
        Driver::Sim => sim::run(shape, seed, sim_rounds(shape, Run::Own(size)), budget, 3),
        Driver::Parallel => par::run(shape, seed, par_rounds(shape, Run::Own(size)), budget, 3),
        Driver::Threads => runtime::run(
            Backend::Threads,
            shape,
            seed,
            budget,
            segments(budget, size),
        ),
        Driver::Tcp => runtime::run(Backend::Tcp, shape, seed, budget, segments(budget, size)),
    }
}

/// Fresh clusters per runtime run. Each cluster's threads land on the
/// cores differently, and that placement moves its throughput by up
/// to 2x either way; many short segments make the median steady.
fn segments(budget: Duration, size: Size) -> u32 {
    match size {
        Size::Full => ((budget.as_secs_f64() / 0.5) as u32).max(2),
        Size::Tiny => 2,
    }
}

/// Traced run of `driver` at `shape`; `load` is the runtime drivers'
/// load time.
fn traced(
    driver: Driver,
    shape: Shape,
    seed: u64,
    run: Run,
    load: Duration,
    epoch: Instant,
    rec: &mut Recorder,
) -> Outcome {
    match driver {
        Driver::Sim => sim::traced(shape, seed, sim_rounds(shape, run), rec),
        Driver::Parallel => par::traced(shape, seed, par_rounds(shape, run), rec),
        Driver::Threads => runtime::traced(Backend::Threads, shape, seed, load, epoch, rec),
        Driver::Tcp => runtime::traced(Backend::Tcp, shape, seed, load, epoch, rec),
    }
}

/// Runs `plan` and returns everything it measured and checked.
pub fn execute(plan: &Plan) -> Outcome {
    let w = plan.workload;
    let shape = w.shape();
    let seed = seed_for(plan.seed, 1);
    let budget = Duration::from_secs_f64(plan.seconds);
    if !plan.trace {
        let mut out = untraced(w.driver(), shape, seed, budget, plan.size);
        out.set("peak_rss_mb", "MiB", peak_rss_mb());
        return out;
    }

    // The traced run: an untraced slice of the workload's own driver
    // (the base of the trace overhead), the same driver traced, short
    // traced runs of the other drivers at this workload's shape, and
    // the bare layer replays.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let base = untraced(w.driver(), shape, seed, budget.mul_f64(0.2), plan.size);
    let own_load = budget.mul_f64(0.25);
    let mut out = traced(
        w.driver(),
        shape,
        seed,
        Run::Own(plan.size),
        own_load,
        epoch,
        &mut rec,
    );
    let untraced_rate = base.get("grants_per_s").unwrap_or(f64::NAN);
    let traced_rate = out.get("grants_per_s").unwrap_or(f64::NAN);
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.violations.extend(base.violations);
    out.set(
        "bench.trace_overhead_pct",
        "%",
        100.0 * (untraced_rate / traced_rate - 1.0),
    );
    let probe_load = budget.mul_f64(0.04);
    for (i, driver) in DRIVERS.into_iter().enumerate() {
        if driver != w.driver() {
            let probe_seed = seed_for(plan.seed, 10 + i as u64);
            let mut probe = traced(
                driver,
                shape,
                probe_seed,
                Run::Probe,
                probe_load,
                epoch,
                &mut rec,
            );
            for note in &mut probe.notes {
                *note = format!("{} probe: {note}", driver.name());
            }
            out.absorb(probe);
        }
    }
    probes::all(shape, seed, budget.mul_f64(0.2), &mut rec, &mut out);
    if let Some(path) = &plan.spans_out {
        match rec.write_tsv(path) {
            Ok(()) => out.note(format!(
                "spans: {} written to {} ({} more counted, not stored)",
                rec.stored(),
                path.display(),
                rec.dropped()
            )),
            Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    out
}

/// Host fingerprint lines for the report.
pub fn fingerprint() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        format!("host nproc={nproc}"),
        format!("host cpu={cpu}"),
        format!("host rustc={}", env!("LOCKBENCH_RUSTC")),
        format!("host commit={}", commit()),
    ]
}

/// The checkout's commit, read from `.git` in the working directory;
/// `unknown` when the checkout is not a git repository.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}
