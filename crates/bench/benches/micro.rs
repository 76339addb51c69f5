//! Microbenchmarks of the substrate hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::protocol::flex::plan_flex;
use tensorsocket::protocol::messages::{AnnounceContent, BatchAnnounce, DataMsg, StreamedTensor};
use ts_data::{codec, DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_device::DeviceId;
use ts_sim::ps::{PsResource, Sharing};
use ts_socket::{coalescing_cell, Context, Multipart, PubSocket, SubSocket};
use ts_tensor::{collate, DType, SharedRegistry, Tensor, TensorPayload};

/// Payload pack + wire encode + decode + registry unpack — the entire
/// per-batch sharing overhead (everything TensorSocket does *instead of*
/// copying the batch).
fn bench_payload_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("payload_path");
    let batch = Tensor::rand_u8(&[128, 3, 224, 224], DeviceId::Gpu(0), 1);
    let registry = SharedRegistry::new();
    registry.register(batch.storage());
    g.throughput(Throughput::Bytes(batch.view_bytes() as u64));
    g.bench_function("pack_encode_decode_unpack_128x3x224x224", |b| {
        b.iter(|| {
            let payload = TensorPayload::pack(&batch);
            let wire = payload.encode();
            let decoded = TensorPayload::decode(&wire).unwrap();
            std::hint::black_box(decoded.unpack(&registry).unwrap())
        })
    });
    // compare: what copying the same batch would cost
    g.bench_function("memcpy_equivalent_128x3x224x224", |b| {
        b.iter(|| std::hint::black_box(batch.gather_bytes()))
    });
    g.finish();
}

/// The flight recorder's hot path: one span claim/commit into the
/// lock-free trace ring, exactly what every instrumented pipeline stage
/// pays per batch — and the reason the recorder can stay always-on.
fn bench_trace_record(c: &mut Criterion) {
    use ts_metrics::{SpanKind, TraceRing};
    let mut g = c.benchmark_group("trace");
    let ring = TraceRing::new();
    let mut seq = 0u64;
    g.bench_function("record_claim_commit", |b| {
        b.iter(|| {
            seq = seq.wrapping_add(1);
            ring.record(1, 0, seq, SpanKind::Publish, 100, 200);
            std::hint::black_box(&ring);
        })
    });
    // The full per-batch producer-side stamp load: the span sequence one
    // batch accrues on its way out, plus the completion flip.
    let mut seq2 = 0u64;
    g.bench_function("record_full_batch_lifecycle", |b| {
        b.iter(|| {
            seq2 = seq2.wrapping_add(1);
            for kind in [
                SpanKind::Fetch,
                SpanKind::CopyWait,
                SpanKind::H2d,
                SpanKind::Publish,
                SpanKind::Announce,
                SpanKind::Ack,
            ] {
                ring.record(2, 0, seq2, kind, 100, 200);
            }
            ring.complete(2, 0, seq2);
            std::hint::black_box(&ring);
        })
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    let announce = DataMsg::Batch(BatchAnnounce {
        seq: 42,
        epoch: 1,
        index_in_epoch: 42,
        last_in_epoch: false,
        content: AnnounceContent::Shared {
            fields: vec![TensorPayload::pack(&Tensor::zeros(
                &[128, 3, 224, 224],
                DType::U8,
                DeviceId::Gpu(0),
            ))],
            labels: TensorPayload::pack(&Tensor::zeros(&[128], DType::I64, DeviceId::Gpu(0))),
        },
    });
    g.bench_function("announce_encode", |b| b.iter(|| announce.encode()));
    let wire = announce.encode();
    // The consumer's entry: the frame is decoded where the socket left it.
    g.bench_function("announce_decode", |b| {
        b.iter(|| DataMsg::decode_shared(&wire).unwrap())
    });
    g.finish();
}

fn bench_pubsub(c: &mut Criterion) {
    let mut g = c.benchmark_group("pubsub");
    for subs in [1usize, 4, 8] {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://bench").unwrap();
        let sockets: Vec<SubSocket> = (0..subs)
            .map(|_| {
                let s = SubSocket::connect(&ctx, "inproc://bench");
                s.subscribe(b"");
                s
            })
            .collect();
        let msg = Multipart::single(bytes::Bytes::from(vec![0u8; 128]));
        g.bench_with_input(BenchmarkId::new("fanout_drain", subs), &subs, |b, _| {
            b.iter(|| {
                publisher.send(b"t", msg.clone()).unwrap();
                for s in &sockets {
                    while let Ok(Some(_)) = s.try_recv() {}
                }
            })
        });
    }
    g.finish();
}

fn bench_collate(c: &mut Criterion) {
    let mut g = c.benchmark_group("collate");
    let samples: Vec<Tensor> = (0..128)
        .map(|i| Tensor::rand_u8(&[3, 64, 64], DeviceId::Cpu, i))
        .collect();
    let bytes: u64 = samples.iter().map(|t| t.view_bytes() as u64).sum();
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("stack0_128x3x64x64", |b| {
        b.iter(|| collate::stack0(&samples).unwrap())
    });
    let batches: Vec<Tensor> = (0..4)
        .map(|i| Tensor::rand_u8(&[32, 3, 64, 64], DeviceId::Cpu, i))
        .collect();
    g.bench_function("cat0_4x32x3x64x64", |b| {
        b.iter(|| collate::cat0(&batches).unwrap())
    });
    g.finish();
}

fn bench_flex_planning(c: &mut Criterion) {
    let mut g = c.benchmark_group("flex_planning");
    for (p, b_) in [(256usize, 96usize), (1024, 7), (4096, 224)] {
        g.bench_with_input(
            BenchmarkId::new("plan", format!("P{p}_b{b_}")),
            &(p, b_),
            |bench, &(p, b_)| bench.iter(|| plan_flex(p, b_, 17).unwrap()),
        );
    }
    g.finish();
}

fn bench_codec_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let encoded = codec::encode_stub(1, 2, 110_000);
    let out = 3 * 224 * 224;
    g.throughput(Throughput::Bytes(out as u64));
    g.bench_function("decode_imagenet_sample", |b| {
        b.iter(|| codec::decode_bytes(&encoded, out))
    });
    g.finish();
}

fn bench_dataloader(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataloader");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    for workers in [0usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("epoch_64x8_images", workers),
            &workers,
            |b, &workers| {
                b.iter_batched(
                    || {
                        DataLoader::new(
                            Arc::new(
                                SyntheticImageDataset::new(64, 32, 32, 1).with_encoded_len(4_096),
                            ),
                            DataLoaderConfig {
                                batch_size: 8,
                                num_workers: workers,
                                shuffle: false,
                                ..Default::default()
                            },
                        )
                    },
                    |loader| loader.epoch(0).count(),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();
}

fn bench_ps_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("ps_engine");
    g.bench_function("settle_64_jobs", |b| {
        b.iter_batched(
            || {
                let mut r: PsResource<usize> = PsResource::new("cpu", 16.0, Sharing::Fair);
                r.settle(0);
                for i in 0..64 {
                    r.add(0, (i + 1) as f64 * 0.001, 1.0, i);
                }
                r
            },
            |mut r| {
                let mut t = 0u64;
                while let Some(next) = r.next_completion(t) {
                    if next >= ts_sim::des::FOREVER {
                        break;
                    }
                    t = next;
                    if r.settle(t).is_empty() && r.active() == 0 {
                        break;
                    }
                    if r.active() == 0 {
                        break;
                    }
                }
                r
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Transport comparison (the new cross-process subsystem):
///
/// * announce (metadata) round-trip throughput over `inproc://` (a Unix
///   socket in the abstract namespace) and over an `ipc://` socket file;
/// * payload delivery, pointer-passing (tiny announce + shared-memory
///   arena read) vs copying the batch bytes through the socket.
///
/// Results also land in `BENCH_transport.json` at the repo root.
fn bench_transport(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport");
    let announce = DataMsg::Batch(BatchAnnounce {
        seq: 42,
        epoch: 1,
        index_in_epoch: 42,
        last_in_epoch: false,
        content: AnnounceContent::Shared {
            fields: vec![TensorPayload::pack(&Tensor::zeros(
                &[128, 3, 64, 64],
                DType::U8,
                DeviceId::Cpu,
            ))],
            labels: TensorPayload::pack(&Tensor::zeros(&[128], DType::I64, DeviceId::Cpu)),
        },
    })
    .encode();

    // --- announce throughput: inproc vs ipc --------------------------------
    {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://bench-transport").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://bench-transport");
        sub.subscribe(b"");
        let wire = announce.clone();
        g.bench_function("announce_inproc", |b| {
            b.iter(|| {
                publisher
                    .send(b"batch", Multipart::single(wire.clone()))
                    .unwrap();
                std::hint::black_box(sub.recv_timeout(Duration::from_secs(5)).unwrap())
            })
        });
    }
    {
        let ctx = Context::new();
        let endpoint = format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-bench-{}.sock", std::process::id()))
                .display()
        );
        let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
        let sub = SubSocket::connect(&ctx, &endpoint);
        sub.subscribe(b"");
        let wire = announce.clone();
        g.bench_function("announce_ipc", |b| {
            b.iter(|| {
                publisher
                    .send(b"batch", Multipart::single(wire.clone()))
                    .unwrap();
                std::hint::black_box(sub.recv_timeout(Duration::from_secs(5)).unwrap())
            })
        });
    }

    // --- payload delivery: arena pointer-passing vs socket byte-copy -------
    let batch = Tensor::rand_u8(&[128, 3, 64, 64], DeviceId::Cpu, 3);
    let batch_bytes = batch.gather_bytes();
    g.throughput(Throughput::Bytes(batch_bytes.len() as u64));
    {
        let ctx = Context::new();
        let endpoint = format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-bench-ptr-{}.sock", std::process::id()))
                .display()
        );
        let arena = ts_shm::ShmArena::create(
            std::env::temp_dir().join(format!("ts-bench-{}.arena", std::process::id())),
            4,
            batch_bytes.len(),
        )
        .unwrap();
        let handle = arena.alloc(&batch_bytes).unwrap();
        let registry = SharedRegistry::new();
        registry.bind_arena(arena.clone());
        let mut payload = TensorPayload::pack(&batch);
        payload.shm = Some(handle);
        let wire = payload.encode();
        let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
        let sub = SubSocket::connect(&ctx, &endpoint);
        sub.subscribe(b"");
        g.bench_function("payload_pointer_ipc", |b| {
            b.iter(|| {
                publisher
                    .send(b"batch", Multipart::single(wire.clone()))
                    .unwrap();
                let (_, msg) = sub.recv_timeout(Duration::from_secs(5)).unwrap();
                let decoded = TensorPayload::decode(&msg.frames()[0]).unwrap();
                let view = arena.attach(decoded.shm.unwrap()).unwrap();
                // the consumer's "training step" reads every byte
                std::hint::black_box(view.iter().map(|&b| b as u64).sum::<u64>())
            })
        });
    }
    {
        let ctx = Context::new();
        let endpoint = format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-bench-cp-{}.sock", std::process::id()))
                .display()
        );
        let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
        let sub = SubSocket::connect(&ctx, &endpoint);
        sub.subscribe(b"");
        let wire = bytes::Bytes::from(batch_bytes.clone());
        g.bench_function("payload_bytecopy_ipc", |b| {
            b.iter(|| {
                publisher
                    .send(b"batch", Multipart::single(wire.clone()))
                    .unwrap();
                let (_, msg) = sub.recv_timeout(Duration::from_secs(5)).unwrap();
                std::hint::black_box(msg.frames()[0].iter().map(|&b| b as u64).sum::<u64>())
            })
        });
    }
    {
        // The negotiated streamed mode: the full Streamed announce —
        // dtype, shape and length-prefixed bytes — shipped exactly as the
        // producer's `encode_streamed` ships it (segments that borrow the
        // tensor, one gather write) and ingested exactly as the consumer
        // does (decode in place, tensor over the frame's slice). Sits
        // next to the raw-bytecopy row: the same two kernel copies plus
        // the announce codec, and no arena needed on the consumer host.
        let ctx = Context::new();
        let endpoint = format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-bench-st-{}.sock", std::process::id()))
                .display()
        );
        let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
        let sub = SubSocket::connect(&ctx, &endpoint);
        sub.subscribe(b"");
        let labels = Tensor::zeros(&[128], DType::I64, DeviceId::Cpu);
        g.bench_function("payload_streamed_ipc", |b| {
            b.iter(|| {
                let announce = DataMsg::Batch(BatchAnnounce {
                    seq: 42,
                    epoch: 1,
                    index_in_epoch: 42,
                    last_in_epoch: false,
                    content: AnnounceContent::Streamed {
                        fields: vec![StreamedTensor::from_tensor(&batch)],
                        labels: StreamedTensor::from_tensor(&labels),
                    },
                });
                publisher
                    .send(b"batch", Multipart::chunked(announce.encode_segments()))
                    .unwrap();
                let (_, msg) = sub.recv_timeout(Duration::from_secs(5)).unwrap();
                let DataMsg::Batch(announce) = DataMsg::decode_shared(&msg.frames()[0]).unwrap()
                else {
                    unreachable!()
                };
                let AnnounceContent::Streamed { fields, .. } = announce.content else {
                    unreachable!()
                };
                let rebuilt = fields[0].to_tensor(DeviceId::Cpu).unwrap();
                // the consumer's "training step" reads every byte
                std::hint::black_box(
                    rebuilt
                        .bytes()
                        .unwrap()
                        .iter()
                        .map(|&b| b as u64)
                        .sum::<u64>(),
                )
            })
        });
    }
    // --- cursor announcements: coalesced vs per-publish backlog ------------
    // The producer's cursor channel is latest-wins: a publish storm
    // between two housekeeping flushes collapses to ONE Cursor frame on
    // the wire. The backlog row is the naive alternative — every publish
    // broadcast as its own frame, all of which a waking consumer must
    // drain. 64 publishes per iteration in both rows.
    {
        let ctx = Context::new();
        let endpoint = format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-bench-cur-{}.sock", std::process::id()))
                .display()
        );
        let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
        let sub = SubSocket::connect(&ctx, &endpoint);
        sub.subscribe(b"");
        let cursor = |seq: u64| {
            DataMsg::Cursor {
                shard: 0,
                epoch: 1,
                seq,
                index_in_epoch: seq,
            }
            .encode()
        };
        let (tx, rx) = coalescing_cell::<u64>();
        g.bench_function("announce_coalesced_ipc", |b| {
            b.iter(|| {
                for seq in 0..64u64 {
                    std::hint::black_box(tx.offer(seq));
                }
                let latest = rx.poll().expect("storm left a cursor");
                publisher
                    .send(b"cur", Multipart::single(cursor(latest)))
                    .unwrap();
                std::hint::black_box(sub.recv_timeout(Duration::from_secs(5)).unwrap())
            })
        });
        g.bench_function("announce_backlog_ipc", |b| {
            b.iter(|| {
                for seq in 0..64u64 {
                    publisher
                        .send(b"cur", Multipart::single(cursor(seq)))
                        .unwrap();
                }
                for _ in 0..64 {
                    std::hint::black_box(sub.recv_timeout(Duration::from_secs(5)).unwrap());
                }
            })
        });
    }
    g.finish();

    // Persist the transport numbers for tracking across PRs, in the
    // shared suite schema the CI bench gate compares against the
    // committed baseline.
    ts_bench::report::BenchReport::from_measurements(
        "transport",
        batch_bytes.len() as u64,
        c.measurements(),
        "transport/",
    )
    .write(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_transport.json"),
    );
}

criterion_group!(
    micro,
    bench_payload_path,
    bench_trace_record,
    bench_wire_codec,
    bench_pubsub,
    bench_collate,
    bench_flex_planning,
    bench_codec_decode,
    bench_dataloader,
    bench_ps_engine,
    bench_transport,
);
criterion_main!(micro);
