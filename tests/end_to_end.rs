//! Cross-crate integration: full TensorSocket stack over real threads —
//! synthetic dataset → codec decode → augmentation → multi-worker loader →
//! producer → payload sharing → consumers, with GPU staging and traffic
//! accounting.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, ConsumerBuilder, PayloadMode, Producer, ProducerConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, Pipeline, RandomCrop, SyntheticImageDataset};
use ts_device::traffic::Channel;
use ts_device::DeviceId;
use ts_tensor::ops;

fn image_loader(n: usize, batch: usize, workers: usize) -> DataLoader {
    let dataset = Arc::new(SyntheticImageDataset::new(n, 40, 40, 77).with_encoded_len(2_048));
    let pipeline = Arc::new(Pipeline::new(5).with(RandomCrop {
        out_h: 32,
        out_w: 32,
    }));
    DataLoader::with_pipeline(
        dataset,
        pipeline,
        DataLoaderConfig {
            batch_size: batch,
            num_workers: workers,
            shuffle: true,
            seed: 13,
            ..Default::default()
        },
    )
}

fn producer_cfg(endpoint: &str) -> ProducerConfig {
    ProducerConfig {
        endpoint: endpoint.to_string(),
        epochs: 2,
        rubberband_cutoff: 1.0,
        ..Default::default()
    }
}

fn spawn(loader: DataLoader, ctx: &TsContext, cfg: ProducerConfig) -> Producer {
    Producer::builder()
        .context(ctx)
        .config(cfg)
        .spawn(loader)
        .unwrap()
}

fn consumer(ctx: &TsContext) -> ConsumerBuilder {
    Consumer::builder()
        .context(ctx)
        .heartbeat_interval(Duration::from_millis(50))
        .recv_timeout(Duration::from_secs(10))
}

#[test]
fn three_consumers_train_on_identical_augmented_batches() {
    let ctx = TsContext::host_only();
    let ep = "inproc://e2e-1";
    let producer = spawn(image_loader(96, 8, 3), &ctx, producer_cfg(ep));
    // connect all three before any consumption so nobody misses epoch 0
    let consumers: Vec<Consumer> = (0..3)
        .map(|_| consumer(&ctx).connect(ep).unwrap())
        .collect();
    let handles: Vec<_> = consumers
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                let mut checksums = Vec::new();
                for batch in c.by_ref().flatten() {
                    assert_eq!(batch.fields[0].shape(), &[8, 3, 32, 32]);
                    checksums.push(ops::checksum(&batch.fields[0]));
                }
                assert_eq!(
                    c.stop_reason(),
                    Some(tensorsocket::runtime::consumer::StopReason::End)
                );
                checksums
            })
        })
        .collect();
    let sums: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = producer.join().unwrap();
    // 2 epochs × 12 batches each
    assert_eq!(sums[0].len(), 24);
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[1], sums[2]);
    // per-epoch shuffling: epoch 0 and epoch 1 batches differ
    assert_ne!(sums[0][..12], sums[0][12..]);
    assert_eq!(stats.epochs_completed, 2);
    assert!(ctx.registry.is_empty());
}

#[test]
fn gpu_staged_pipeline_accounts_pcie_and_releases_vram() {
    let ctx = TsContext::with_gpus(2, 8 << 30, true);
    let ep = "inproc://e2e-2";
    let mut cfg = producer_cfg(ep);
    cfg.epochs = 1;
    cfg.device = DeviceId::Gpu(0);
    let producer = spawn(image_loader(64, 8, 2), &ctx, cfg);
    // Pinned to pointer-passing: the assertions are about where the shared
    // storage lives, which a streamed (host-rebuilt) batch cannot show.
    let mut consumer = consumer(&ctx)
        .payload_mode(PayloadMode::Shm)
        .connect(ep)
        .unwrap();
    let mut batches = 0u64;
    for batch in consumer.by_ref().flatten() {
        assert_eq!(batch.fields[0].device(), DeviceId::Gpu(0));
        assert!(batch.fields[0].is_contiguous());
        batches += 1;
    }
    assert_eq!(batches, 8);
    let stats = producer.join().unwrap();
    // image field: 8×3×32×32 u8 = 24576 B; labels 8×8 B; per batch
    let per_batch = (8 * 3 * 32 * 32 + 8 * 8) as u64;
    assert_eq!(stats.bytes_staged, 8 * per_batch);
    assert_eq!(ctx.devices.traffic().bytes(Channel::Pcie(0)), 8 * per_batch);
    assert_eq!(ctx.devices.memory(DeviceId::Gpu(0)).unwrap().in_use(), 0);
}

#[test]
fn two_independent_sockets_coexist_in_one_context() {
    let ctx = TsContext::host_only();
    let p1 = spawn(image_loader(32, 8, 2), &ctx, producer_cfg("inproc://a"));
    let p2 = spawn(image_loader(48, 8, 2), &ctx, producer_cfg("inproc://b"));
    let c1 = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            consumer(&ctx)
                .connect("inproc://a")
                .unwrap()
                .flatten()
                .count()
        })
    };
    let c2 = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            consumer(&ctx)
                .connect("inproc://b")
                .unwrap()
                .flatten()
                .count()
        })
    };
    assert_eq!(c1.join().unwrap(), 8); // 2 epochs × 4 batches
    assert_eq!(c2.join().unwrap(), 12); // 2 epochs × 6 batches
    p1.join().unwrap();
    p2.join().unwrap();
}

#[test]
fn consumers_with_different_speeds_see_every_batch() {
    let ctx = TsContext::host_only();
    let ep = "inproc://e2e-3";
    let producer = spawn(image_loader(64, 8, 2), &ctx, producer_cfg(ep));
    let mut fast_c = consumer(&ctx).connect(ep).unwrap();
    let mut slow_c = consumer(&ctx).connect(ep).unwrap();
    let fast = std::thread::spawn(move || {
        let mut seqs = BTreeSet::new();
        for b in fast_c.by_ref().flatten() {
            seqs.insert(b.seq);
        }
        seqs
    });
    let slow = std::thread::spawn(move || {
        let mut seqs = BTreeSet::new();
        for b in slow_c.by_ref().flatten() {
            seqs.insert(b.seq);
            std::thread::sleep(Duration::from_millis(3));
        }
        seqs
    });
    let fast_seqs = fast.join().unwrap();
    let slow_seqs = slow.join().unwrap();
    producer.join().unwrap();
    assert_eq!(fast_seqs, slow_seqs, "lockstep: identical batch sets");
    assert_eq!(fast_seqs.len(), 16);
}

#[test]
fn dropped_consumer_does_not_leak_memory() {
    let ctx = TsContext::host_only();
    let ep = "inproc://e2e-4";
    let mut cfg = producer_cfg(ep);
    cfg.epochs = 1;
    cfg.heartbeat_timeout = Duration::from_millis(300);
    let producer = spawn(image_loader(64, 8, 2), &ctx, cfg);
    let survivor = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            let mut c = consumer(&ctx).connect(ep).unwrap();
            let mut n = 0;
            for _ in c.by_ref().flatten() {
                n += 1;
            }
            n
        })
    };
    // this consumer takes two batches and leaves mid-epoch
    {
        let mut quitter = consumer(&ctx).connect(ep).unwrap();
        let _ = quitter.next().unwrap();
        let _ = quitter.next().unwrap();
    }
    assert_eq!(survivor.join().unwrap(), 8);
    producer.join().unwrap();
    assert!(
        ctx.registry.is_empty(),
        "{} leaked storages",
        ctx.registry.len()
    );
}
