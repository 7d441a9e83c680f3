//! Benchmarks the threaded distributed-lock runtime: parked-token
//! re-acquisition (the hot path the paper's token residence enables),
//! the free refusal of `try_now` on a remote token, and the remote
//! hand-off between two leaves of a star — on a one-key
//! `LockSpaceCluster` (the paper's single lock) and, for the last two,
//! on a 64-key one.

use criterion::{criterion_group, criterion_main, Criterion};
use dmx_core::LockId;
use dmx_lockspace::Placement;
use dmx_runtime::{LockClient, LockError, LockSpaceCluster};
use dmx_topology::{NodeId, Tree};

/// The paper's single lock: one key whose token starts at `holder`.
fn one_key(tree: &Tree, holder: NodeId) -> (LockSpaceCluster, Vec<LockClient>) {
    LockSpaceCluster::start(tree, 1, Placement::Hub(holder))
}

fn bench(c: &mut Criterion) {
    c.bench_function("runtime/parked_token_reacquire", |b| {
        let (cluster, mut clients) = one_key(&Tree::star(4), NodeId(1));
        // Park the token at node 1 by locking once.
        drop(clients[1].lock(LockId(0)).wait().unwrap());
        b.iter(|| {
            let guard = clients[1].lock(LockId(0)).wait().unwrap();
            drop(guard);
        });
        drop(clients);
        cluster.shutdown();
    });

    c.bench_function("runtime/try_now_remote_refusal", |b| {
        // The cheapest possible client round trip: the token is parked
        // at node 1, node 2 asks "now or never" and is refused without
        // a single protocol message.
        let (cluster, mut clients) = one_key(&Tree::star(4), NodeId(1));
        drop(clients[1].lock(LockId(0)).wait().unwrap());
        b.iter(|| {
            let refused = clients[2].lock(LockId(0)).try_now();
            assert!(matches!(refused, Err(LockError::WouldBlock)));
        });
        drop(clients);
        cluster.shutdown();
    });

    c.bench_function("runtime/remote_handoff_star", |b| {
        let (cluster, mut clients) = one_key(&Tree::star(4), NodeId(1));
        let (left, right) = clients.split_at_mut(2);
        let c1 = &mut left[1];
        let c2 = &mut right[0];
        b.iter(|| {
            drop(c1.lock(LockId(0)).wait().unwrap()); // token to node 1
            drop(c2.lock(LockId(0)).wait().unwrap()); // 3 messages to node 2
        });
        drop(clients);
        cluster.shutdown();
    });

    c.bench_function("runtime/lockspace_try_now_remote_refusal", |b| {
        // Every key's token starts at node 1, so node 2's try is refused
        // by its own shard thread: one client round trip, no messages.
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::star(4), 64, Placement::Hub(NodeId(1)));
        b.iter(|| {
            let refused = clients[2].lock(LockId(7)).try_now();
            assert!(matches!(refused, Err(LockError::WouldBlock)));
        });
        drop(clients);
        cluster.shutdown();
    });

    c.bench_function("runtime/lockspace_remote_handoff_star", |b| {
        let (cluster, mut clients) =
            LockSpaceCluster::start(&Tree::star(4), 64, Placement::Hub(NodeId(1)));
        let (left, right) = clients.split_at_mut(2);
        let c1 = &mut left[1];
        let c2 = &mut right[0];
        b.iter(|| {
            drop(c1.lock(LockId(7)).wait().unwrap()); // key 7's token to node 1
            drop(c2.lock(LockId(7)).wait().unwrap()); // 3 messages to node 2
        });
        drop(clients);
        cluster.shutdown();
    });

    c.bench_function("runtime/line8_end_to_end", |b| {
        let (cluster, mut clients) = one_key(&Tree::line(8), NodeId(0));
        let (left, right) = clients.split_at_mut(7);
        let c0 = &mut left[0];
        let c7 = &mut right[0];
        b.iter(|| {
            drop(c0.lock(LockId(0)).wait().unwrap());
            drop(c7.lock(LockId(0)).wait().unwrap()); // token crosses the whole line
        });
        drop(clients);
        cluster.shutdown();
    });
}

criterion_group! {
    name = benches;
    // Keep wall-clock reasonable on small CI machines; the kernels are
    // deterministic, so tight confidence intervals need few samples.
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
