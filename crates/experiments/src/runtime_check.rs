//! Runtime validation: the sharing benefit measured on *real threads*.
//!
//! The simulator-based experiments reproduce the paper's hardware; this
//! experiment runs the actual threaded TensorSocket runtime on the current
//! machine — real decode work, real sockets, real payload sharing — and
//! compares per-model throughput of three collocated "trainings" under a
//! fixed data-loading worker budget:
//!
//! * **non-shared**: each training iterates its own `DataLoader` with one
//!   worker (the budget split three ways);
//! * **shared**: one TensorSocket producer owns all three workers.
//!
//! Decode dominates (CPU-bound regime, like Fig 8's small models), so
//! sharing should recover close to the full worker budget for every
//! consumer. Absolute numbers depend on the host; the *ratio* is the
//! reproduced claim.

use crate::report::{fmt_x, ExperimentReport};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::{Consumer, Producer, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_metrics::table::fmt_num;
use ts_metrics::Table;
use ts_tensor::ops;

const CONSUMERS: usize = 3;
const WORKER_BUDGET: usize = 3;
const SAMPLES: usize = 768;
const BATCH: usize = 32;
/// "GPU step" stand-in: a little real work per batch so consumers are not
/// pure sinks (still loader-bound).
const TRAIN_WORK_UNITS: u64 = 50_000;

fn dataset(seed: u64) -> Arc<SyntheticImageDataset> {
    // 3×160×160 → ~77 KB decode per sample: decode dominates everything.
    Arc::new(SyntheticImageDataset::new(SAMPLES, 160, 160, seed).with_encoded_len(8_192))
}

fn loader(workers: usize, seed: u64) -> DataLoader {
    DataLoader::new(
        dataset(seed),
        DataLoaderConfig {
            batch_size: BATCH,
            num_workers: workers,
            shuffle: false,
            seed,
            ..Default::default()
        },
    )
}

fn train_step(seq: u64, field: &ts_tensor::Tensor) -> u64 {
    // touch a slice of the batch + burn fixed work
    let probe = field
        .narrow(0, 0, 1)
        .map(|t| ops::checksum(&t))
        .unwrap_or(0);
    probe ^ ops::busy_work(seq, TRAIN_WORK_UNITS)
}

/// Per-model samples/s with private loaders (1 worker each).
pub fn measure_nonshared() -> f64 {
    let handles: Vec<_> = (0..CONSUMERS)
        .map(|i| {
            std::thread::spawn(move || {
                let loader = loader(WORKER_BUDGET / CONSUMERS, 42 + i as u64);
                let started = Instant::now();
                let mut samples = 0u64;
                for batch in loader.epoch(0) {
                    std::hint::black_box(train_step(batch.index as u64, &batch.fields[0]));
                    samples += batch.batch_size() as u64;
                }
                samples as f64 / started.elapsed().as_secs_f64()
            })
        })
        .collect();
    let rates: Vec<f64> = handles
        .into_iter()
        .map(|h| h.join().expect("trainer"))
        .collect();
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// Per-model samples/s with one shared producer owning the worker budget.
pub fn measure_shared() -> f64 {
    let ctx = TsContext::host_only();
    let ep = "inproc://runtime-check";
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(ep)
        .epochs(1)
        .rubberband_cutoff(1.0)
        .spawn(loader(WORKER_BUDGET, 42))
        .expect("spawn producer");
    let handles: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let ctx = ctx.clone();
            let ep = ep.to_string();
            std::thread::spawn(move || {
                let mut consumer = Consumer::builder()
                    .context(&ctx)
                    .heartbeat_interval(Duration::from_millis(50))
                    .connect(ep)
                    .expect("connect");
                let started = Instant::now();
                for batch in consumer.by_ref() {
                    let batch = batch.expect("clean stream");
                    std::hint::black_box(train_step(batch.seq, &batch.fields[0]));
                }
                consumer.samples_consumed() as f64 / started.elapsed().as_secs_f64()
            })
        })
        .collect();
    let rates: Vec<f64> = handles
        .into_iter()
        .map(|h| h.join().expect("trainer"))
        .collect();
    producer.join().expect("producer");
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// Runs the real-runtime comparison.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "runtime-validation",
        "REAL RUNTIME: shared vs non-shared on this machine (3 consumers, 3-worker budget)",
    );
    let ns = measure_nonshared();
    let ts = measure_shared();
    let mut t = Table::new(
        "per-model samples/s over real threads",
        &["Mode", "Samples/s per model", "Speedup"],
    );
    t.row(&[
        "Non-shared (1 worker each)".into(),
        fmt_num(ns),
        "1.00x".into(),
    ]);
    t.row(&[
        "TensorSocket (3 shared workers)".into(),
        fmt_num(ts),
        fmt_x(ts / ns),
    ]);
    report.table(t);
    report.note(
        "This is the threaded runtime itself, not the simulator: real decode work, real \
         ZeroMQ-style sockets, pointer payloads, acks and heartbeats. Under a CPU-bound \
         loading regime the shared producer serves every consumer at (nearly) the full \
         worker-budget rate — the paper's core claim, live.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_beats_split_workers_on_real_threads() {
        let ns = measure_nonshared();
        let ts = measure_shared();
        // 3 workers shared vs 1 worker each: expect close to 3x; accept
        // >= 1.5x to stay robust on loaded CI hosts.
        assert!(
            ts > ns * 1.5,
            "real-runtime sharing speedup too small: {ts:.0} vs {ns:.0}"
        );
    }
}
