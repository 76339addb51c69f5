//! A producer runs one pump thread whatever its shard count: every shard's
//! state machine is stepped in turn on it, while each shard keeps its own
//! feeder. Counted by name in `/proc/self/task/*/comm`, where Linux keeps
//! the first 15 bytes of a thread's name (`tensorsocket-producer` reads
//! `tensorsocket-pr`). This file holds one test, so its process runs no
//! other producer whose threads could be counted.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::{Consumer, Producer, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};

const PUMP: &str = "tensorsocket-pr";
const FEEDER: &str = "tensorsocket-fe";

/// `(pumps, feeders)` running in this process now.
fn producer_threads() -> (usize, usize) {
    let mut counts = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = task.expect("a task").path().join("comm");
        // A thread may exit between the listing and the read.
        let Ok(name) = std::fs::read_to_string(comm) else {
            continue;
        };
        match name.trim_end() {
            PUMP => counts.0 += 1,
            FEEDER => counts.1 += 1,
            _ => {}
        }
    }
    counts
}

/// The counts once they settle on `want`: a thread carries its parent's
/// name until it first runs, so a feeder the pump just started reads as
/// a second pump for a moment.
fn settles_on(want: (usize, usize)) -> (usize, usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let counts = producer_threads();
        if counts == want || Instant::now() > deadline {
            return counts;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_two_shard_producer_runs_one_pump_thread_and_a_feeder_per_shard() {
    const EPOCHS: u64 = 2;
    let ctx = TsContext::host_only();
    let endpoint = "inproc://one-pump";
    let loaders = DataLoader::sharded(
        Arc::new(SyntheticImageDataset::new(32, 8, 8, 3).with_encoded_len(256)),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            drop_last: true,
            ..Default::default()
        },
        2,
    );
    assert_eq!(producer_threads(), (0, 0), "nothing runs before the spawn");
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint)
        .epochs(EPOCHS)
        .first_consumer_timeout(Some(Duration::from_secs(30)))
        .spawn_sharded(loaders)
        .expect("spawn a two-shard producer");
    assert_eq!(producer.num_shards(), 2);
    let consumer = Consumer::builder()
        .context(&ctx)
        .connect(endpoint)
        .expect("connect");
    let mut seen = Vec::new();
    for batch in consumer {
        let batch = batch.expect("a clean stream");
        // Both shards' first batch of each epoch, either side of the
        // boundary: one pump, and both feeders, still running.
        if batch.index_in_epoch == 0 && batch.shard == 1 {
            seen.push((batch.epoch, settles_on((1, 2))));
        }
    }
    assert_eq!(seen, [(0, (1, 2)), (1, (1, 2))]);
    let stats = producer.join_shards().expect("join");
    assert!(stats.iter().all(|s| s.epochs_completed == EPOCHS));
    assert_eq!(producer_threads(), (0, 0), "every producer thread is gone");
}
