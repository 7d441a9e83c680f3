//! Bench for the multiplexed lock-space hot path: one engine run
//! carrying many keys' traffic over shared links, batching on.
//!
//! Wraps the same kernel as the `multi_key` section of
//! `repro -- bench` (`BENCH_CURRENT.json`). Budgets are smaller here so
//! `cargo bench` stays fast; set `BENCH_SMOKE=1` to run each body
//! exactly once (the CI smoke mode, which exercises the new subsystem on
//! every push).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmx_harness::experiments::lock_scaling;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_scaling/saturated");
    group.sample_size(10);
    for (keys, n, rounds) in [
        (1u32, 15usize, 200u32),
        (64, 15, 200),
        (64, 127, 50),
        (4_096, 127, 20),
    ] {
        for (label, dist) in lock_scaling::SKEWS {
            if keys == 1 && label != "uniform" {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("keys{keys}@{n}/{label}")),
                &(keys, n, rounds, dist),
                |b, &(keys, n, rounds, dist)| {
                    b.iter(|| lock_scaling::measure(black_box(n), keys, label, dist, rounds));
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
