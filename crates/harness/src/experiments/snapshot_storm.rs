//! `ext_snap` — live consistent cuts of a threaded lock-space cluster.
//!
//! A Chandy–Lamport marker snapshot ([`LockSpaceCluster::snapshot`])
//! captures per-key holders, pending sets, and in-flight envelopes from
//! a *running* cluster — no pause, no barrier, client threads keep
//! locking throughout. Each cut is then checked by the per-key safety
//! oracle: across node tables and recorded channel traffic, every key
//! carries **exactly one** privilege (counting the
//! implicit token of a hub that never materialized the key).
//!
//! The experiment storms a cluster with one client thread per node and
//! takes a series of cuts mid-storm, one table row per cut. The
//! interesting columns are the in-flight ones: nonzero `recorded` /
//! `privileges in flight` entries are cuts that landed while tokens
//! were genuinely travelling — and still balanced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dmx_core::LockId;
use dmx_lockspace::Placement;
use dmx_runtime::{LockSpaceCluster, LockSpaceClusterConfig};
use dmx_topology::Tree;

use crate::Table;

/// The storm: one thread per node, each looping over a skewed key
/// pattern until told to stop, while the main thread captures and
/// verifies `snapshots` consistent cuts. Returns the table plus the
/// total entries the storm completed.
///
/// # Panics
///
/// Panics if any cut fails the per-key safety oracle — the property the
/// experiment exists to demonstrate.
pub fn run(n: usize, keys: u32, workers: usize, snapshots: usize) -> Table {
    let tree = Tree::kary(n, 2);
    let config = LockSpaceClusterConfig {
        keys,
        placement: Placement::Modulo,
        workers,
        ..LockSpaceClusterConfig::default()
    };
    let (cluster, clients) = LockSpaceCluster::start_with(&tree, config);
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for (i, mut client) in clients.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut round: u32 = 0;
            while !stop.load(Ordering::Relaxed) {
                let key = LockId(round.wrapping_mul(7).wrapping_add(i as u32) % keys);
                drop(client.lock(key).wait().expect("storm lock"));
                round += 1;
            }
        }));
    }

    let mut table = Table::new(
        &format!(
            "ext_snap — live consistent cuts mid-storm \
             (n = {n}, keys = {keys}, {workers} shard threads/node)"
        ),
        &[
            "cut",
            "materialized",
            "tokens in tables",
            "implicit",
            "executing",
            "requesting",
            "recorded",
            "privileges in flight",
        ],
    );
    for cut in 0..snapshots {
        let snapshot = cluster.snapshot();
        let summary = snapshot
            .verify()
            .unwrap_or_else(|v| panic!("cut {cut} inconsistent: {v:?}"));
        assert_eq!(
            summary.tokens_in_tables + summary.implicit_tokens + summary.privileges_in_flight,
            keys as usize,
            "cut {cut}: privilege ledger must balance"
        );
        table.row(&[
            cut.to_string(),
            summary.materialized.to_string(),
            summary.tokens_in_tables.to_string(),
            summary.implicit_tokens.to_string(),
            summary.executing.to_string(),
            summary.requesting.to_string(),
            summary.recorded_messages.to_string(),
            summary.privileges_in_flight.to_string(),
        ]);
    }

    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("storm thread");
    }
    let stats = cluster.shutdown();
    table.note(&format!(
        "storm completed {} entries across {} nodes; every cut passed the \
         per-key safety oracle without pausing traffic",
        stats.entries, n
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_cuts_balance_the_ledger() {
        let table = run(7, 8, 2, 3);
        assert_eq!(table.len(), 3, "one row per cut");
        for row in 0..3 {
            let tokens: usize = table.cell(row, 2).parse().unwrap();
            let implicit: usize = table.cell(row, 3).parse().unwrap();
            let travelling: usize = table.cell(row, 7).parse().unwrap();
            assert_eq!(tokens + implicit + travelling, 8);
        }
    }
}
