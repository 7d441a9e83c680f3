//! Quickstart: use the DAG algorithm as a real distributed lock.
//!
//! Five worker threads (one per node of a star topology) each increment
//! a shared tally 50 times under the distributed mutex. The token parks
//! wherever it was last used, so a worker on a hot streak pays nothing —
//! visible at the end through a free `try_now` where the token parked.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dagmutex::core::LockId;
use dagmutex::lockspace::Placement;
use dagmutex::runtime::LockSpaceCluster;
use dagmutex::topology::{NodeId, Tree};

fn main() {
    let tree = Tree::star(5);
    println!(
        "topology: star of {} nodes, diameter {}",
        tree.len(),
        tree.diameter()
    );

    // One lock whose token starts at node 0: the paper's initial
    // configuration.
    let (cluster, clients) = LockSpaceCluster::start(&tree, 1, Placement::Hub(NodeId(0)));

    let tally = Arc::new(AtomicU64::new(0));
    let inside = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let tally = Arc::clone(&tally);
            let inside = Arc::clone(&inside);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let guard = client.lock(LockId(0)).wait().expect("cluster is running");
                    // Verify the mutual exclusion guarantee for real:
                    assert!(
                        !inside.swap(true, Ordering::SeqCst),
                        "two nodes in the critical section!"
                    );
                    tally.fetch_add(1, Ordering::Relaxed);
                    inside.store(false, Ordering::SeqCst);
                    drop(guard); // PRIVILEGE moves on (or parks here)
                }
                client
            })
        })
        .collect();
    let mut clients: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker finished"))
        .collect();

    // The token parked wherever the last grant landed; exactly one
    // node's try_now succeeds, everyone else is refused for free.
    let parked: Vec<_> = clients
        .iter_mut()
        .filter_map(|c| c.lock(LockId(0)).try_now().ok().map(|g| g.node()))
        .collect();
    assert_eq!(parked.len(), 1, "exactly one node holds the parked token");
    println!("token parked at          : {}", parked[0]);
    drop(clients);

    let stats = cluster.shutdown();
    println!("critical-section entries : {}", stats.entries);
    println!("total protocol messages  : {}", stats.messages_total);
    println!(
        "messages per entry       : {:.2}",
        stats.messages_per_entry()
    );
    println!(
        "(the paper's bound on a star is 3 per entry; token parking under\n\
         contention keeps the average below it)"
    );
    assert_eq!(tally.load(Ordering::Relaxed), 250);
}
