//! `lockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, every metric with its unit and spread,
//! and as the last line one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when a correctness check failed and 2
//! on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use lockbench::report::{describe, result_json};
use lockbench::workloads::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use lockbench::{execute, fingerprint, Plan, Size};

fn usage(err: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!("error: {err}");
    eprintln!(
        "usage: lockbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace flag {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    let plan = Plan {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        spans_out: trace.then(|| {
            PathBuf::from(".bench_out").join(format!("spans-{}-seed{seed}.tsv", workload.name()))
        }),
    };
    let mut out = execute(&plan);

    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        if !out.get(name).is_some_and(f64::is_finite) {
            out.violation(format!("metric {name} was not measured"));
        }
    }
    for line in fingerprint() {
        println!("{line}");
    }
    println!(
        "run workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.metrics {
        println!("{}", describe(workload.name(), m));
    }
    println!(
        "metric {} failed_ratio = {} ratio  ({} failed of {} attempted)",
        workload.name(),
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for v in &out.violations {
        println!("violation {v}");
    }
    println!("{}", result_json(&out, names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
