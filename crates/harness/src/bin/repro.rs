//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dmx-harness --bin repro            # everything
//! cargo run --release -p dmx-harness --bin repro -- tab6_1  # one experiment
//! cargo run --release -p dmx-harness --bin repro -- --list  # experiment ids
//! ```

use dmx_harness::experiments;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig2", "Figure 2 walkthrough (state tables per step)"),
    ("fig6", "Figure 6 complete example (state tables per step)"),
    ("tab6_1", "Chapter 6.1 upper bounds"),
    ("tab6_2", "Chapter 6.2 average bound on the star"),
    ("tab6_3", "Chapter 6.3 synchronization delay"),
    ("tab6_4", "Chapter 6.4 storage overhead"),
    ("fig8", "Figure 8 topology sweep"),
    ("ext_load", "extension: load sweep"),
    ("ext_scale", "extension: N scaling sweep"),
    ("ext_hub", "extension: weighted hub placement"),
    ("ext_fair", "extension: per-node fairness"),
    (
        "ext_lock",
        "extension: lock-space scaling (keys × skew × n)",
    ),
    (
        "ext_window",
        "extension: coalescing-window sweep (window × keys × n)",
    ),
    (
        "ext_skew",
        "extension: hub placement × skew × locality vs a quorum baseline",
    ),
    (
        "ext_par",
        "extension: parallel tick-barrier scaling (shards × paced demand)",
    ),
    (
        "ext_path",
        "extension: REQUEST path lengths vs Lavault's O(log n) bound",
    ),
    (
        "ext_snap",
        "extension: live consistent cuts of a threaded cluster mid-storm",
    ),
];

/// Run explicitly (`repro -- bench`); excluded from the default sweep
/// because it is timing-sensitive and writes a file.
const BENCH_ID: (&str, &str) = (
    "bench",
    "engine hot-loop + multi-key + parallel-scaling suites; writes BENCH_CURRENT.json",
);

/// Also explicit-only: the 1M-key × 10k-node acceptance run allocates
/// gigabytes and processes tens of millions of events.
const MEGA_ID: (&str, &str) = (
    "ext_mega",
    "1M keys × 10k nodes under the parallel runtime, digest-checked at two shard counts",
);

fn run_bench() {
    let results = experiments::hot_loop::run_suite();
    let multi_key = experiments::lock_scaling::bench_suite();
    let parallel = experiments::parallel_scaling::bench_suite();
    let skew = experiments::skew::bench_suite();
    let placement = experiments::hub_placement::bench_suite();
    let json = format!(
        "{{\n  \"bench\": \"engine_hot_loop\",\n  \"results\": {},\n  \"multi_key\": {},\n  \"parallel\": {},\n  \"skew\": {},\n  \"placement\": {}\n}}\n",
        experiments::hot_loop::results_json(&results),
        experiments::lock_scaling::results_json(&multi_key),
        experiments::parallel_scaling::results_json(&parallel),
        experiments::skew::results_json(&skew),
        experiments::hub_placement::results_json(&placement)
    );
    // Always a distinct file: BENCH_PR<n>.json artifacts are curated
    // (they carry unreproducible pre-refactor baselines) and must
    // never be clobbered by a fresh run, regardless of cwd.
    let path = "BENCH_CURRENT.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
    eprintln!("wrote {path}");
}

fn run_one(id: &str) -> bool {
    match id {
        "fig2" => {
            for t in experiments::traces::fig2() {
                println!("{t}");
            }
        }
        "fig6" => {
            for t in experiments::traces::fig6() {
                println!("{t}");
            }
            println!(
                "Implicit queue at step 6g (paper numbering): {:?} — the paper reads \"2, 1, 5\"\n",
                experiments::traces::fig6_implicit_queue_paper_numbering()
            );
        }
        "tab6_1" => println!("{}", experiments::upper_bound::run(13)),
        "tab6_2" => println!(
            "{}",
            experiments::average_bound::run(&[2, 4, 8, 16, 32, 64, 128])
        ),
        "tab6_3" => println!("{}", experiments::sync_delay::run(13, 8)),
        "tab6_4" => println!("{}", experiments::storage::run(16)),
        "fig8" => println!("{}", experiments::topology_sweep::run()),
        "ext_load" => println!(
            "{}",
            experiments::load_sweep::run(16, &[2000, 500, 100, 20, 5, 1], 12)
        ),
        "ext_scale" => println!("{}", experiments::scaling::run(&[4, 8, 16, 32, 64], 3)),
        "ext_hub" => println!(
            "{}",
            experiments::hub_placement::run(10, dmx_topology::NodeId(7), 0.6, 4_000)
        ),
        "ext_fair" => println!("{}", experiments::fairness::run(10, 6)),
        "ext_lock" => println!(
            "{}",
            experiments::lock_scaling::run(&[15, 127], &[1, 64, 4096], 12)
        ),
        "ext_window" => println!(
            "{}",
            experiments::lock_scaling::run_windows(&[15, 127], &[64, 4096], 12)
        ),
        "ext_skew" => println!("{}", experiments::skew::run(127, &[64], 12)),
        "ext_par" => println!("{}", experiments::parallel_scaling::run(127, 1024, 6)),
        "ext_path" => println!("{}", experiments::path_length::run(&[15, 127, 1023], 64, 8)),
        "ext_snap" => println!("{}", experiments::snapshot_storm::run(15, 64, 2, 8)),
        "ext_mega" => println!("{}", experiments::parallel_scaling::run_mega()),
        "bench" => run_bench(),
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, desc) in EXPERIMENTS {
            println!("{id:10} {desc}");
        }
        for (id, desc) in [BENCH_ID, MEGA_ID] {
            println!("{id:10} {desc}");
        }
        return;
    }
    let ids: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        if !run_one(id) {
            eprintln!("unknown experiment id: {id} (try --list)");
            std::process::exit(2);
        }
    }
}
