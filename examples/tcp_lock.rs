//! The distributed lock over real TCP sockets on loopback.
//!
//! Same algorithm, same node loop as the in-process runtime — but
//! every REQUEST and PRIVILEGE actually crosses a socket as the 13-byte
//! keyed frame documented in `dmx_runtime::tcp`. TCP supplies exactly
//! the reliability and per-connection FIFO ordering the paper's network
//! model assumes, so a consistent snapshot works over it too.
//!
//! Run with: `cargo run --example tcp_lock`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dagmutex::core::LockId;
use dagmutex::runtime::tcp::TcpCluster;
use dagmutex::topology::{NodeId, Tree};

fn main() -> std::io::Result<()> {
    let tree = Tree::star(4);
    let (cluster, clients) = TcpCluster::start(&tree, NodeId(0))?;
    for node in tree.nodes() {
        println!("node {node} listening on {}", cluster.addr(node));
    }

    let inside = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let workers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            let inside = Arc::clone(&inside);
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let guard = client.lock(LockId(0)).wait().expect("cluster running");
                    assert!(
                        !inside.swap(true, Ordering::SeqCst),
                        "mutual exclusion violated"
                    );
                    tally.fetch_add(1, Ordering::Relaxed);
                    inside.store(false, Ordering::SeqCst);
                    drop(guard);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker done");
    }

    let elapsed = started.elapsed();
    let summary = cluster
        .snapshot()
        .verify()
        .expect("the cut over sockets is consistent");
    println!(
        "snapshot           : {} privilege in tables, {} in flight",
        summary.tokens_in_tables, summary.privileges_in_flight
    );
    let stats = cluster.shutdown();
    println!("entries            : {}", stats.entries);
    println!("protocol messages  : {}", stats.messages_total);
    println!("messages per entry : {:.2}", stats.messages_per_entry());
    println!("wall clock         : {elapsed:.2?}");
    assert_eq!(tally.load(Ordering::Relaxed), 100);
    Ok(())
}
