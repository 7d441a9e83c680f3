//! Proves the zero-allocation properties this repo's hot paths claim:
//! with tracing off and capacity warmed up, steady-state closed loops
//! perform **zero heap allocations** across 10,000 engine steps — for
//! the DAG algorithm (PR 1's tentpole), for the ported buffered-handler
//! baselines (Suzuki–Kasami, Raymond, Ricart–Agrawala), for the
//! multiplexed `dmx-lockspace` hot path with batching on (PR 2's
//! tentpole), and all of it under **both** scheduler backends — the
//! binary heap and the timing wheel (PR 3's tentpole; see
//! `dmx_simnet::sched`).
//!
//! A counting global allocator wraps the system allocator; each phase
//! warms its engine up (letting every buffer — outboxes, scratch
//! buffers, lock tables, batch pools — reach steady-state capacity),
//! snapshots the allocation counter, drives 10,000 more steps, and
//! asserts the counter did not move.
//!
//! Run as `cargo test --test alloc_free` like any other test; it is a
//! no-harness test target, which keeps the process single-threaded so
//! the global allocation counter observes only the engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagmutex::baselines::naimi_thiare::NaimiThiareProtocol;
use dagmutex::baselines::raymond::RaymondProtocol;
use dagmutex::baselines::ricart_agrawala::RicartAgrawalaProtocol;
use dagmutex::baselines::suzuki_kasami::SuzukiKasamiProtocol;
use dagmutex::core::DagProtocol;
use dagmutex::lockspace::{
    FlushPolicy, LockSpace, LockSpaceConfig, ParallelConfig, ParallelEngine, Placement, ShardMap,
    WindowPolicy,
};
use dagmutex::simnet::{Engine, EngineConfig, LatencyModel, Protocol, Scheduler, Time};
use dagmutex::topology::{NodeId, Tree};
use dagmutex::workload::{KeyDist, KeyLoad, KeyedThinkTime, PacedKeyDemand};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Steps the engine `steps` times, re-requesting immediately whenever a
/// node exits (a saturated closed loop driven from outside the engine).
fn drive<P: Protocol>(engine: &mut Engine<P>, steps: usize) {
    for _ in 0..steps {
        engine
            .step()
            .expect("no violations in a correct protocol")
            .expect("closed loop keeps the queue non-empty");
        if let Some((node, _released)) = engine.take_just_released() {
            engine.request_at(engine.now(), node);
        }
    }
}

const STEPS: usize = 10_000;

/// Warms a saturated single-lock closed loop up, then asserts `STEPS`
/// further steps allocate nothing — under the given scheduler backend.
fn assert_single_lock_alloc_free<P: Protocol>(label: &str, scheduler: Scheduler, nodes: Vec<P>) {
    let n = nodes.len();
    let config = EngineConfig {
        record_trace: false,
        scheduler,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(nodes, config);
    for i in 0..n {
        engine.request_at(Time(0), NodeId::from_index(i));
    }

    // Warm-up: let the queue, outbox, scratch buffers, and per-kind
    // counters reach their steady-state capacity, then reserve room for
    // every grant the measured phase can record.
    drive(&mut engine, 2_000);
    engine.reserve(4 * n, STEPS);

    let before = allocations();
    drive(&mut engine, STEPS);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state Engine::step must not allocate for {label} (got {} \
         allocations over {STEPS} steps)",
        after - before
    );
    println!("alloc_free: {label} ok (0 allocations across {STEPS} steady-state steps)");
}

/// The multiplexed tentpole property: a lock space serving 64 keys with
/// batching on steps allocation-free once its tables, pools, and
/// orientation caches are warm — under the given scheduler backend
/// (same-tick flush wakes make the lock space the wheel's densest
/// workload) and the given transport flush policy (a coalescing window
/// holds bigger batches in the transport's persistent buffers, which
/// must still reach a steady capacity).
///
/// Every grant records its request→grant wait into the fixed-bucket
/// latency [`Histogram`](dagmutex::simnet::metrics::Histogram) — the
/// percentile machinery is *always on*, so this phase also proves that
/// recording is allocation-free. With `trace_paths` set, per-request DAG
/// hop counting feeds a second histogram from pre-sized per-origin
/// slots, which must be just as free.
fn assert_lockspace_alloc_free(scheduler: Scheduler, flush: FlushPolicy, trace_paths: bool) {
    let n = 15;
    let tree = Tree::kary(n, 2);
    // Saturated keyed closed loop: think time zero, enough rounds that
    // the measured window never exhausts a stream.
    let workload = KeyedThinkTime::new(
        64,
        KeyDist::Zipf { exponent: 1.1 },
        LatencyModel::Fixed(Time(0)),
        1_000_000,
        7,
    );
    let config = LockSpaceConfig {
        keys: 64,
        placement: Placement::Modulo,
        hold: Time(1),
        batching: true,
        flush,
        trace_paths,
        ..LockSpaceConfig::default()
    };
    let (nodes, monitor) = LockSpace::cluster(&tree, config, &workload);
    let engine_config = EngineConfig {
        record_trace: false,
        scheduler,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(nodes, engine_config);

    // Warm-up: materialize every (node, key) pair the streams reach,
    // grow every lock table shard, batch pool, and staging buffer to
    // steady state. Cold Zipf-tail keys keep materializing for a while,
    // so warm in rounds until one full measurement window passes without
    // a single allocation — if the multiplexed hot path allocated
    // per-step, no window would ever be quiet and the assertion below
    // would fail.
    engine.reserve(64 * n, 0);
    let mut quiet_after_rounds = None;
    let mut quiet_recorded = 0;
    for round in 0..20 {
        let before = allocations();
        let waits_before = monitor.wait_histogram().count();
        for _ in 0..STEPS {
            engine
                .step()
                .expect("no violations")
                .expect("saturated lock space never quiesces early");
        }
        if allocations() == before {
            quiet_after_rounds = Some(round);
            quiet_recorded = monitor.wait_histogram().count() - waits_before;
            break;
        }
    }

    assert!(monitor.violation().is_none(), "per-key safety held");
    assert!(
        monitor.rollup().grants > 0 && engine.metrics().kind_count("BATCH") > 0,
        "the measured window must exercise real multiplexed batching"
    );
    // The quiet window was not idle on the observability side: waits
    // kept landing in the histogram (and hop counts, when tracing) with
    // the allocation counter frozen.
    assert!(
        quiet_recorded > 0,
        "the allocation-free window must record request→grant waits"
    );
    let rollup = monitor.rollup();
    assert!(
        rollup.p50_wait_ticks <= rollup.p99_wait_ticks
            && rollup.p99_wait_ticks <= rollup.p999_wait_ticks,
        "percentiles must be ordered"
    );
    if trace_paths {
        assert!(
            monitor.path_histogram().count() > 0,
            "path tracing must have recorded hop counts"
        );
    }
    let rounds = quiet_after_rounds.expect(
        "steady-state multiplexed Engine::step must stop allocating with \
         batching on, but every warm-up window still allocated",
    );
    println!(
        "alloc_free: lockspace ({scheduler:?}, {flush:?}, trace_paths={trace_paths}) ok \
         (0 allocations across {STEPS} steady-state steps, \
         {quiet_recorded} waits histogrammed, after {rounds} warm-up rounds)"
    );
}

/// The parallel tick-barrier runtime's claim: once every shard
/// engine's tables, pools, heaps, and the driver's round-scratch
/// buffers are warm, barrier rounds step allocation-free — under any
/// shard map (the LPT table is built once at construction) and any
/// window policy (the adaptive controller is two integer compares on
/// merged counts). Driven through the sequential incremental face
/// ([`ParallelEngine::step_rounds`]): the threaded driver would put
/// worker threads' own warm-up allocations into the process-global
/// counter, and the two drivers share the per-round hot path anyway.
fn assert_parallel_alloc_free(balanced: bool, adaptive: bool) {
    let n = 15;
    let tree = Tree::kary(n, 2);
    // Long-horizon paced zipf demand: every key issues on every round
    // spacing, so no stream drains inside the measured window.
    let demand =
        PacedKeyDemand::new(24, n, 60, 2, 1_000_000, 26).with_load(KeyLoad::Zipf { exponent: 1.1 });
    let shard_map = if balanced {
        ShardMap::balanced(demand.demand_profile())
    } else {
        ShardMap::Modulo
    };
    let window = if adaptive {
        WindowPolicy::Adaptive {
            min: 64,
            max: 4_096,
            target: 512,
        }
    } else {
        WindowPolicy::Fixed(64)
    };
    let mut engine = ParallelEngine::new(
        &tree,
        demand,
        ParallelConfig {
            shards: 4,
            shard_map,
            window,
            hold: Time(2),
            record_grants: false,
            // Local arrival-queue depth keeps setting sporadic new
            // records (and reallocating a VecDeque) long after every
            // other buffer plateaus; pre-size far past the realistic
            // depth for this cell (observed max: 4).
            queue_capacity: 32,
            ..ParallelConfig::default()
        },
    );

    // Warm in rounds until one full window of barrier rounds passes
    // without a single allocation — lazily-materialized (node, key)
    // state and growing scratch capacity quiet down after a few.
    const BARRIER_ROUNDS: u64 = 2_000;
    let mut quiet_after_rounds = None;
    // The balanced map packs hot keys apart, so its shards see
    // different depth records on different schedules — it quiets
    // later than the modulo map (observed: 14 modulo, 37 balanced).
    for round in 0..64 {
        let before = allocations();
        assert!(
            engine.step_rounds(BARRIER_ROUNDS),
            "the demand horizon must outlast the measurement"
        );
        if allocations() == before {
            quiet_after_rounds = Some(round);
            break;
        }
    }
    let rounds = quiet_after_rounds.expect(
        "steady-state parallel barrier rounds must stop allocating, \
         but every warm-up window still allocated",
    );

    let report = engine.finish();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.grants > 0 && report.windows >= BARRIER_ROUNDS,
        "the measured window must serve real grants across real barriers"
    );
    println!(
        "alloc_free: parallel (map={}, window={}) ok (0 allocations across \
         {BARRIER_ROUNDS} steady-state barrier rounds, after {rounds} warm-up rounds)",
        if balanced { "balanced" } else { "modulo" },
        if adaptive { "adaptive" } else { "fixed" },
    );
}

/// A plain `main` instead of `#[test]` (`harness = false` in
/// Cargo.toml): the libtest harness runs extra threads whose own
/// allocations land in the process-global counter and flake the
/// zero-allocation assertion. Single-threaded, the count is exact and
/// deterministic.
fn main() {
    // Phase 0, sanity: the counter works, and a *tracing* run allocates.
    {
        let tree = Tree::star(4);
        let mut engine = Engine::new(
            DagProtocol::cluster(&tree, NodeId(0)),
            EngineConfig::default(),
        );
        engine.request_at(Time(0), NodeId(2));
        let before = allocations();
        engine.run_to_quiescence().expect("clean run");
        assert!(allocations() > before, "tracing run must allocate");
        assert!(!engine.trace().is_empty());
    }

    let n = 15;
    let tree = Tree::kary(n, 2);
    // Phases 1–2 run under both scheduler backends: the default config
    // auto-selects the wheel, so the heap needs an explicit request to
    // stay covered (and vice versa if Auto's heuristic ever changes).
    for scheduler in [Scheduler::Heap, Scheduler::Wheel] {
        let tag = |label: &str| format!("{label} ({scheduler:?})");
        // Phase 1: the DAG algorithm (PR 1's tentpole property).
        assert_single_lock_alloc_free(
            &tag("dag"),
            scheduler,
            DagProtocol::cluster(&tree, NodeId(0)),
        );
        // Phase 2: the ported buffered-handler baselines.
        assert_single_lock_alloc_free(
            &tag("suzuki-kasami"),
            scheduler,
            SuzukiKasamiProtocol::cluster(n, NodeId(0)),
        );
        assert_single_lock_alloc_free(
            &tag("raymond"),
            scheduler,
            RaymondProtocol::cluster(&tree, NodeId(0)),
        );
        assert_single_lock_alloc_free(
            &tag("ricart-agrawala"),
            scheduler,
            RicartAgrawalaProtocol::cluster(n),
        );
        // The Naimi–Thiare quorum port: sequential LOCK/LOCKED climbs
        // and FIFO arbiter queues must reuse their buffers like every
        // other `*_into` baseline.
        assert_single_lock_alloc_free(
            &tag("naimi-thiare"),
            scheduler,
            NaimiThiareProtocol::cluster(n),
        );
        // Phase 3: the multiplexed lock-space hot path, batching on —
        // under end-of-tick flushing and under a 4-tick coalescing
        // window (the transport layer's Nagle path must be just as
        // allocation-free as its same-tick path). Wait histograms are
        // always on; the third variant adds per-request DAG path
        // tracing, the full observability load.
        assert_lockspace_alloc_free(scheduler, FlushPolicy::EveryTick, false);
        assert_lockspace_alloc_free(scheduler, FlushPolicy::Window(4), false);
        assert_lockspace_alloc_free(scheduler, FlushPolicy::EveryTick, true);
    }

    // Phase 4: the parallel tick-barrier runtime — the default modulo
    // map under fixed windows, the demand-balanced LPT map, and the
    // balanced map under the adaptive window controller (this PR's
    // tentpole pair).
    for (balanced, adaptive) in [(false, false), (true, false), (true, true)] {
        assert_parallel_alloc_free(balanced, adaptive);
    }
}
