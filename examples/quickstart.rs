//! Quickstart: split a training script into a producer and consumers
//! (Figure 3 of the paper) — with the unified builder API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The conventional script iterates a `DataLoader` directly; with
//! TensorSocket the loader moves into a [`Producer`] and each training
//! process swaps its loop source for a [`Consumer`] — one line each way:
//!
//! ```no_run
//! # use tensorsocket::{Producer, Consumer};
//! # use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
//! # use std::sync::Arc;
//! # let loader = DataLoader::new(Arc::new(SyntheticImageDataset::imagenet_like(64, 0)), DataLoaderConfig::default());
//! // producer.py — owns the loader
//! let producer = Producer::builder().endpoint("ipc:///tmp/ts.sock").spawn(loader)?;
//!
//! // consumer.py — literally only the endpoint
//! for batch in Consumer::builder().connect("ipc:///tmp/ts.sock")? {
//!     let batch = batch?; // ... training step ...
//! }
//! # producer.join()?;
//! # Ok::<(), tensorsocket::TsError>(())
//! ```
//!
//! The consumer is *not* configured with the shard count, the arena path,
//! slot depths or the batch schema: a versioned HELLO/WELCOME handshake
//! reports all of it, and mismatches surface as typed `HandshakeError`s
//! instead of hangs. The handshake runs on the connection pair the
//! consumer keeps (a SUB and a PUSH socket to the endpoint — shard 0's
//! link; one more pair per further shard), so attaching sets up nothing
//! it throws away, and heartbeats share those sockets. The producer side
//! likewise auto-creates and auto-sizes its shared-memory arena and
//! recycling slot pool from the loader's own geometry (`.arena(path)`),
//! instead of asking you to compute slot counts.
//!
//! Every knob has a builder method; `.config(cfg)` seeds a builder from a
//! whole `ProducerConfig`. A `Producer` spawned from one source is a
//! plain pipeline; from `N` sources it is a sharded group in lockstep.
//!
//! # Endpoint URIs
//!
//! The endpoint passed to `.endpoint(..)` / `.connect(..)` selects the
//! transport; nothing else in the code changes. Every derived channel —
//! per-shard data/ctrl endpoints — comes from one scheme-aware
//! `ts_socket::EndpointMap`, which is also what the handshake's consumer
//! side uses, so the two sides cannot derive different layouts:
//!
//! | scheme                  | reaches                | data / ctrl channels      |
//! |-------------------------|------------------------|---------------------------|
//! | `inproc://name`         | threads in one process | `name/data`, `name/ctrl`  |
//! | `ipc:///path/to.sock`   | processes on one host  | `….sock.data`, `….sock.ctrl` |
//! | `tcp://host:port`       | other machines         | `port`, `port + 1`        |
//!
//! This example uses the default `inproc://tensorsocket` endpoint and runs
//! consumers as threads (sharing the producer's `TsContext` via
//! `.context(&ctx)`), which is the cheapest way to try the API. For
//! separate processes, see `examples/multi_process.rs`: an `ipc://`
//! endpoint plus `.arena(path)` on the producer — and *only* the
//! endpoint on the consumers.
//!
//! # Multi-host topologies and the wire contract
//!
//! Shards need not share a host: `.shard_endpoint(i, "tcp://other:port")`
//! pins shard `i` elsewhere and the WELCOME advertises the full map, so
//! consumers need no change (shard 0 is the handshake endpoint and comes
//! from the *base* endpoint — overriding it on a multi-shard group is a
//! config error). How payload bytes travel is negotiated per consumer: one
//! that cannot open the advertised arena falls back to length-prefixed
//! byte **streaming** on the same data socket, bit-identical to the shm
//! stream; `.payload_mode(PayloadMode::Stream)` or
//! `TS_FORCE_PAYLOAD_MODE=stream` forces that shape over any transport,
//! and a pinned `.payload_mode(Shm)` turns an unopenable arena into the
//! typed `HandshakeError::ArenaMissing` at attach.
//!
//! Everything on the sockets shares one version
//! (`tensorsocket::WIRE_VERSION`) and one rule: trailing bytes and unknown
//! tags or capability bits are counted and ignored; anything else bumps
//! the version, the producer answers in its own, and the client side
//! fails promptly with `HandshakeError::Version` (see the crate docs'
//! *Wire contract*).
//!
//! # Pipeline tuning
//!
//! The producer runs as a two-stage pipeline: a feeder stage loads,
//! decodes and collates batches *ahead of the publish cursor* while the
//! publish stage stages, registers and announces them. The builder derives
//! every depth from the loader's hints; override only when needed:
//!
//! * `DataLoaderConfig::num_workers` — loader worker threads (this
//!   example uses 4). `0` decodes on the feeder thread itself, one batch
//!   ahead; either way consumers see the identical batch stream.
//! * `DataLoaderConfig::prefetch_factor` — batches each worker keeps in
//!   flight; with `num_workers` it sizes the feeder's hand-off queue
//!   (`num_workers × prefetch_factor`, at least 1).
//! * `.arena(path)` — cross-process only: creates the shared-memory
//!   arena *and* the recycling slot pool, both sized from the loader's
//!   decoded sample geometry and the publish window, so steady-state
//!   publishing allocates nothing from the arena.
//!
//! # Multi-producer sharding
//!
//! On a many-GPU node one producer pipeline saturates one NUMA domain.
//! `.spawn_sharded(loaders)` runs N pipelines — one per disjoint dataset
//! shard (`DataLoader::sharded`), each with its own feeder and publisher —
//! in epoch lockstep, all stepped by one pump thread. Consumers need no
//! change at all: the handshake
//! advertises the shard count and the consumer subscribes to every shard.
//!
//! **Ordering contract:** batches are delivered sorted by
//! `(epoch, shard, seq)` — round-robin across shards aligned at an epoch
//! boundary, exhausted shards dropping out on uneven tails — so every
//! consumer sees one bit-stable stream for a given `(seed, shard count)`
//! no matter how the shards race each other. The second act of `main`
//! below runs the same dataset through a 2-shard group.
//!
//! # Device staging
//!
//! The paper's producer stages every batch on GPU 0 before sharing it.
//! Set `.device(gpu)` and the producer stages through the device staging
//! subsystem (`ts-staging`): a pre-allocated VRAM **slab rotation** sized
//! from the publish window — so warmed-up staging performs *zero device
//! allocations* (check `ctx.devices.memory(gpu).alloc_count()`) — with
//! the H2D copy running on its own pipeline stage, overlapping the copy
//! of batch *n* with collation of *n + 1* and publishing of *n − 1*.
//! That is the one staging shape and there is nothing to choose: rotation
//! size and copy-stage look-ahead follow from `buffer_size` and the
//! rubberband pin set, consumers receive the bytes a CPU producer would
//! have sent, and a device the context does not have fails the `spawn`.
//! The one field of `.staging_config(..)`, `h2d_bandwidth`, sets the
//! *simulated* backend's modeled link speed; the `BENCH_staging.json`
//! suite lowers it to show a staged epoch costs what a CPU-only one does.
//!
//! Staging health is exported through `ctx.metrics`: counter
//! `staging.h2d_bytes`, gauges `staging.slab_occupancy`,
//! `staging.copy_queue_depth` and `staging.h2d_bytes_per_sec`. The third
//! act below runs a GPU-staged epoch and prints them.
//!
//! # Zero-copy publish
//!
//! With an arena bound (`.arena(path)`), publishing a batch moves **no
//! payload bytes**: a loader worker leases an arena slot *before*
//! decoding and the dataset decodes every sample straight into its row of
//! it, so by the time the publish loop runs, the bytes are already where
//! consumers will map them — the announce is pure metadata (an arena
//! handle in a protocol frame). The contract behind it is the **slot
//! lease**: a leased slot is exclusively its writer's, the batch tensor
//! carries the lease until the publish loop adopts it into the shared
//! registry (`lease → write → adopt`), and an adopted slot frees only when the
//! last registration *and* the last consumer pin release it — epoch
//! replays refcount the same placement instead of re-placing bytes. A
//! lease dropped before adoption (an error path) returns its slot to the
//! pool automatically. A lease is the only way a payload byte enters the
//! arena — the publish loop has no copying path — so every batch a
//! consumer reads is the slot the loader wrote; the fifth act below
//! checks it live, and `stage.collate_copy_bytes` counts any byte the
//! feeder had to copy into a slot instead.
//!
//! Publishes are also announced on a side **cursor channel** — a
//! coalescing, latest-wins cell flushed at a bounded cadence (~25 ms).
//! Semantics for a consumer waking up mid-stream: `latest_cursor(shard)`
//! is guaranteed to be *recent* (no unbounded backlog to drain — stale
//! positions are displaced, never queued, metered by
//! `stage.cursor_coalesced`) but is **not** guaranteed to be every
//! position: it answers "where is the producer *now*?", not "what did I
//! miss?". The batch stream itself remains complete and ordered; the
//! cursor is for lag observability (`consumer.cursor_lag`), not flow
//! control.
//!
//! # Observability
//!
//! Every stage also records latency histograms (`stage.feeder_fetch_ns`,
//! `stage.publish_ack_ns`, `staging.h2d_ns`, `consumer.wait_ns`, … — see
//! the *Observability* section of the `tensorsocket` crate docs for the
//! full metric table with units) into the same registry, and any running
//! producer answers a stateless control-plane scrape with a snapshot of
//! all of it — no consumer attach needed. `tensorsocket::scrape_stats`
//! is the API; the `ts-top` binary is the CLI over it:
//!
//! ```text
//! ts-top ipc:///tmp/ts.sock            # live per-stage latency table
//! ts-top --json ipc:///tmp/ts.sock     # one-shot snapshot for scripts
//! ```
//!
//! The fourth act below scrapes a producer mid-training and prints the
//! publish→ack quantiles; `examples/observability.rs` is the full tour.
//!
//! # The batch flight recorder
//!
//! Histograms aggregate; the flight recorder *narrates*. Every batch is
//! stamped through a lock-free ring of per-batch trace records keyed by
//! `(epoch, shard, seq)`: `fetch`, `copy_wait`, `h2d`, `publish`,
//! `announce` and `ack` spans on the producer side, with `recv`,
//! `rebuild` and `release` stitched onto the same record by in-process
//! consumers. `tensorsocket::scrape_trace` pulls the last-N completed
//! records from a running producer (same stateless control-plane shape
//! as the stats scrape), and `ts-top --trace out.json <endpoint>` writes
//! them as a Chrome trace-event file for `chrome://tracing`/Perfetto. A
//! stall watchdog rides along in the producer: batches stuck past a
//! configurable multiple of the stage p99 are classified (loader-bound,
//! h2d-bound, ack-bound, or consumer-straggler with the offending
//! consumer id) into `watchdog.stalls.*` and the stats-snapshot verdict.
//! The sixth act below replays a batch's whole life from the recorder.
//!
//! # Crash-and-resume: the durable batch log
//!
//! Rubberband pins only reach back to the current epoch's start, and only
//! while the producer keeps them pinned. `.log(dir)` adds the durable
//! tier: a background spiller tees every published batch into an
//! append-only, CRC-framed segment log (`ts-log`) keyed by `(epoch,
//! shard, seq)` — off the hot path, so publishing still moves no payload
//! byte — and once a batch is durably logged its rubberband pin becomes
//! sheddable. A consumer that names a **group** (`.group("trainers")`)
//! gets a persisted cursor that advances with its acks; when a group
//! member dies — a clean drop here, `kill -9` in
//! `tests/log_replay_multi_process.rs` — the next consumer to attach
//! under the same group name replays everything from that cursor out of
//! the log (as streamed frames, bit-identical to the live wire shape)
//! and splices onto the live stream with no seam and no re-delivery of
//! acked work. `examples/replay_smoke.rs` runs the same machinery for a
//! *fresh* group attaching mid-run (full-from-offset replay). The
//! seventh act below kills and resumes a trainer mid-epoch.

use std::sync::Arc;
use std::time::Instant;
use tensorsocket::{Consumer, Producer, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_tensor::ops;

fn main() {
    // One machine: shared socket context + storage registry + device books.
    let ctx = TsContext::host_only();

    // ---- producer.py -------------------------------------------------------
    // data_loader = DataLoader(dataset)
    let dataset = Arc::new(SyntheticImageDataset::new(2_048, 64, 64, 7).with_encoded_len(4_096));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 4,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    // producer = TensorProducer(data_loader)
    let producer = Producer::builder()
        .context(&ctx)
        .epochs(2)
        .spawn(loader)
        .expect("spawn producer");

    // ---- consumer.py (two collocated training processes) ------------------
    let train = |name: &'static str| {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            let mut consumer = Consumer::builder()
                .context(&ctx)
                .connect("inproc://tensorsocket")
                .expect("connect");
            let started = Instant::now();
            let mut checksum = 0u64;
            // for batch in consumer: ... model training iteration ...
            for batch in consumer.by_ref() {
                let batch = batch.expect("clean stream");
                // a stand-in "training step": touch every byte of the batch
                checksum ^= ops::checksum(&batch.fields[0]);
            }
            let secs = started.elapsed().as_secs_f64();
            let samples = consumer.samples_consumed();
            println!(
                "[{name}] {} batches, {samples} samples in {secs:.2}s → {:.0} samples/s (checksum {checksum:016x})",
                consumer.batches_consumed(),
                samples as f64 / secs,
            );
            (consumer.samples_consumed(), checksum)
        })
    };
    let c1 = train("consumer-1");
    let c2 = train("consumer-2");

    let (n1, sum1) = c1.join().expect("consumer 1");
    let (n2, sum2) = c2.join().expect("consumer 2");
    let stats = producer.join().expect("producer");

    println!(
        "[producer] published {} batches over {} epochs, replayed {}, peak consumers {}",
        stats.batches_published,
        stats.epochs_completed,
        stats.batches_replayed,
        stats.peak_consumers
    );
    assert_eq!(n1, n2, "both consumers trained on every sample");
    assert_eq!(sum1, sum2, "and on identical bytes — shared, not copied");
    assert!(ctx.registry.is_empty(), "all shared memory was released");
    println!("ok: both consumers saw identical data; memory fully released");

    // ---- act two: the same dataset through a 2-shard producer group ----
    // Each shard pipeline owns half of every epoch's permutation; the
    // consumer interleaves both streams deterministically by
    // (epoch, shard, seq). Note the consumer code is UNCHANGED from act
    // one — it learns the shard count from the handshake.
    let ctx = TsContext::host_only();
    let dataset = Arc::new(SyntheticImageDataset::new(2_048, 64, 64, 7).with_encoded_len(4_096));
    let loaders = DataLoader::sharded(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
        2,
    );
    let group = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-sharded")
        .epochs(1)
        .spawn_sharded(loaders)
        .expect("spawn sharded group");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .connect("inproc://tensorsocket-sharded")
        .expect("connect sharded consumer");
    assert_eq!(consumer.num_shards(), 2, "learned over the handshake");
    let started = Instant::now();
    let mut per_shard = [0u64; 2];
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        per_shard[batch.shard] += 1;
        std::hint::black_box(batch.labels.view_bytes());
    }
    let secs = started.elapsed().as_secs_f64();
    let stats = group.join_shards().expect("group join");
    println!(
        "[sharded] {} samples via 2 shards ({} + {} batches) in {secs:.2}s → {:.0} samples/s",
        consumer.samples_consumed(),
        per_shard[0],
        per_shard[1],
        consumer.samples_consumed() as f64 / secs,
    );
    assert_eq!(per_shard[0], per_shard[1], "balanced shard partitions");
    assert_eq!(
        stats.iter().map(|s| s.batches_published).sum::<u64>(),
        per_shard[0] + per_shard[1]
    );
    assert!(ctx.registry.is_empty(), "sharded memory fully released");
    println!("ok: 2-shard group covered the dataset exactly once, in one stable stream");

    // ---- act three: GPU staging through the VRAM slab rotation ----
    // The same pipeline with the producer on (simulated) GPU 0: batches
    // are staged through pre-allocated VRAM slabs, the H2D copy of batch
    // n overlapping collation of n+1 — and after warm-up, staging
    // performs zero device allocations.
    let ctx = TsContext::with_gpus(1, 8 << 30, false);
    let dataset = Arc::new(SyntheticImageDataset::new(1_024, 64, 64, 7).with_encoded_len(4_096));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-staged")
        .epochs(1)
        .device(ts_device::DeviceId::Gpu(0)) // that is all staging takes
        .spawn(loader)
        .expect("spawn staged producer");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .connect("inproc://tensorsocket-staged")
        .expect("connect staged consumer");
    let started = Instant::now();
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        assert!(
            batch.fields[0].device().is_gpu(),
            "consumers see device tensors"
        );
        std::hint::black_box(batch.labels.view_bytes());
    }
    let secs = started.elapsed().as_secs_f64();
    let stats = producer.join().expect("staged producer");
    let book = ctx.devices.memory(ts_device::DeviceId::Gpu(0)).unwrap();
    println!(
        "[staged] {} batches on cuda:0 in {secs:.2}s — {} B over PCIe, VRAM peak {} B, \
         {} device allocations (warm-up only), 0 B still in use: {}",
        stats.batches_published,
        ctx.devices
            .traffic()
            .bytes(ts_device::traffic::Channel::Pcie(0)),
        book.peak(),
        book.alloc_count(),
        book.in_use(),
    );
    // The staging stats epilogue: every gauge/counter the subsystem
    // exports through the shared metrics registry.
    println!(
        "[staged] staging.h2d_bytes = {}",
        ctx.metrics.counter("staging.h2d_bytes").get()
    );
    for (name, value) in ctx.metrics.gauge_snapshot() {
        if name.starts_with("staging.") {
            println!("[staged] {name} = {value:.1}");
        }
    }
    assert_eq!(book.in_use(), 0, "slab rotation fully drained");
    assert!(ctx.registry.is_empty(), "staged memory fully released");
    println!("ok: staged epoch shared device-resident batches with zero steady-state allocations");

    // ---- act four: scrape a live producer, ts-top style ----
    // A consumer trains halfway through the stream and pauses; the
    // producer keeps serving control traffic, so a stats scrape — the
    // same stateless request ts-top sends — reads every stage histogram
    // mid-flight. (Over ipc:// or tcp:// this works from another
    // process; inproc:// keeps the example self-contained.)
    let ctx = TsContext::host_only();
    let dataset = Arc::new(SyntheticImageDataset::new(1_024, 64, 64, 7).with_encoded_len(4_096));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-observed")
        .epochs(2)
        .spawn(loader)
        .expect("spawn observed producer");
    let (paused_tx, paused_rx) = std::sync::mpsc::channel();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
    let trainer = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            let mut consumer = Consumer::builder()
                .context(&ctx)
                .connect("inproc://tensorsocket-observed")
                .expect("connect observed consumer");
            let mut consumed = 0u64;
            for batch in consumer.by_ref() {
                batch.expect("clean stream");
                consumed += 1;
                if consumed == 32 {
                    paused_tx.send(()).unwrap(); // snapshot point
                    resume_rx.recv().unwrap();
                }
            }
            consumed
        })
    };
    paused_rx
        .recv()
        .expect("trainer reached the snapshot point");
    let stats = tensorsocket::scrape_stats(
        &ctx,
        "inproc://tensorsocket-observed",
        std::time::Duration::from_secs(10),
    )
    .expect("scrape live producer");
    println!(
        "[observed] scraped {} histograms / {} counters (stats v{}) from the live producer:",
        stats.histograms.len(),
        stats.counters.len(),
        stats.version,
    );
    for name in [
        "stage.feeder_fetch_ns",
        "stage.publish_ack_ns",
        "consumer.wait_ns",
    ] {
        let h = stats.histogram(name).expect("stage histogram present");
        println!(
            "[observed] {name}: n={} p50={}us p99={}us max={}us",
            h.count,
            h.p50() / 1_000,
            h.p99() / 1_000,
            h.max / 1_000,
        );
        assert!(h.count > 0 && h.p50() > 0, "{name} must be warm");
    }
    resume_tx.send(()).unwrap();
    let consumed = trainer.join().expect("trainer");
    let stats = producer.join().expect("observed producer");
    assert_eq!(consumed, stats.batches_published);
    println!("ok: live scrape read every stage histogram without attaching a consumer");

    // ---- act five: zero-copy publish through a leased arena ----
    // `.arena(path)` flips publishing to the metadata-only shape: the
    // loader's workers lease each batch's slot up front and decode
    // straight into it, the publish loop adopts the placement, and the
    // announce carries a handle — no payload bytes move. The proof is what
    // the consumer holds: every batch it reads is a view of an arena slot.
    let ctx = TsContext::host_only();
    let arena_path =
        std::env::temp_dir().join(format!("ts-quickstart-{}.arena", std::process::id()));
    let dataset = Arc::new(SyntheticImageDataset::new(1_024, 64, 64, 7).with_encoded_len(4_096));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-leased")
        .epochs(2)
        .arena(&arena_path) // auto-sized arena + recycling slot pool
        .spawn(loader)
        .expect("spawn leased producer");
    let mut consumer = Consumer::builder()
        .context(&ctx)
        .connect("inproc://tensorsocket-leased")
        .expect("connect leased consumer");
    let mut in_arena = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        in_arena += u64::from(batch.fields[0].storage().is_shared_memory());
        // A slow-ish training step, so the publish cursor runs ahead and
        // the cursor channel crosses several of its ~25 ms flush windows.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let stats = producer.join().expect("leased producer");
    println!(
        "[leased] {} batches published, {in_arena} read from arena slots, \
         {} payload bytes collated by the feeder",
        stats.batches_published,
        ctx.metrics.counter("stage.collate_copy_bytes").get(),
    );
    assert_eq!(
        in_arena, stats.batches_published,
        "every batch lives in a slot"
    );
    // The cursor channel: latest-wins, so a late observer reads where
    // the producer IS — positions displaced while nobody looked are
    // counted, not queued.
    let (epoch, seq, index) = consumer
        .latest_cursor(0)
        .expect("at least one cursor flush crossed the stream");
    println!(
        "[leased] final cursor: epoch {epoch}, seq {seq} (index {index} in epoch), \
         {} stale positions coalesced away",
        ctx.metrics.counter("stage.cursor_coalesced").get(),
    );
    assert!(ctx.registry.is_empty(), "leased memory fully released");
    let _ = std::fs::remove_file(&arena_path);
    println!("ok: an epoch of batches crossed the socket as pure metadata — zero bytes copied at publish");

    // ---- act six: replay a batch's life from the flight recorder ----
    // A trainer pauses mid-stream; the trace scrape — the same stateless
    // request `ts-top --trace` sends — returns the last-N *completed*
    // per-batch records, each a little waterfall over one shared clock:
    // fetch → publish → announce → ack on the producer side, with the
    // in-process consumer's recv → rebuild → release stitched onto the
    // same (epoch, shard, seq) record.
    let ctx = TsContext::host_only();
    let dataset = Arc::new(SyntheticImageDataset::new(1_024, 64, 64, 7).with_encoded_len(4_096));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-recorded")
        .epochs(2)
        .spawn(loader)
        .expect("spawn recorded producer");
    let (paused_tx, paused_rx) = std::sync::mpsc::channel();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
    let trainer = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            let mut consumer = Consumer::builder()
                .context(&ctx)
                .connect("inproc://tensorsocket-recorded")
                .expect("connect recorded consumer");
            let mut consumed = 0u64;
            for batch in consumer.by_ref() {
                batch.expect("clean stream");
                consumed += 1;
                if consumed == 32 {
                    paused_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                }
            }
            consumed
        })
    };
    paused_rx.recv().expect("trainer reached the pause point");
    let trace = tensorsocket::scrape_trace(
        &ctx,
        "inproc://tensorsocket-recorded",
        16,
        std::time::Duration::from_secs(10),
    )
    .expect("scrape flight recorder");
    println!(
        "[recorder] scraped {} completed batch record(s) (trace v{})",
        trace.records.len(),
        trace.version,
    );
    let record = trace.records.first().expect("a completed record");
    let mut spans: Vec<(u8, u64, u64)> = record.spans.clone();
    spans.sort_by_key(|&(_, start, _)| start);
    let base = spans.first().map(|&(_, s, _)| s).unwrap_or(0);
    println!(
        "[recorder] batch (epoch {}, shard {}, seq {}):",
        record.epoch, record.shard, record.seq
    );
    for (kind, start, end) in spans {
        let name = tensorsocket::SpanKind::from_u8(kind)
            .map(|k| k.as_str())
            .unwrap_or("?");
        println!(
            "[recorder]   {name:>9} +{:>6}us for {:>6}us",
            (start - base) / 1_000,
            (end - start) / 1_000,
        );
    }
    assert!(record.complete, "only completed records are scraped");
    assert!(
        record.span(tensorsocket::SpanKind::Recv).is_some(),
        "in-process consumer spans stitch onto the producer's record"
    );
    resume_tx.send(()).unwrap();
    let consumed = trainer.join().expect("trainer");
    let stats = producer.join().expect("recorded producer");
    assert_eq!(consumed, stats.batches_published);
    println!(
        "ok: the flight recorder replayed a batch's whole life — run \
         `ts-top --trace out.json <endpoint>` for the Chrome-trace view"
    );

    // ---- act seven: crash-and-resume through the durable batch log ----
    // `.log(dir)` tees every published batch into the ts-log segments;
    // `.group("trainers")` gives a consumer a persisted cursor. A trainer
    // that dies mid-epoch is resumed by the next consumer attaching under
    // the same group name: the producer replays the un-acked range out of
    // the log and splices it onto the live stream, byte-identically.
    let ctx = TsContext::host_only();
    let log_dir = std::env::temp_dir().join(format!("ts-quickstart-{}.log", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let dataset = Arc::new(SyntheticImageDataset::new(512, 32, 32, 7).with_encoded_len(2_048));
    let loader = DataLoader::new(
        dataset,
        DataLoaderConfig {
            batch_size: 32,
            num_workers: 2,
            shuffle: true,
            seed: 42,
            ..Default::default()
        },
    );
    const ACT7_EPOCHS: u64 = 3;
    const ACT7_PER_EPOCH: u64 = 512 / 32;
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint("inproc://tensorsocket-logged")
        .epochs(ACT7_EPOCHS)
        .rubberband_cutoff(1.0) // admit the resumer mid-epoch, not at the boundary
        .log(&log_dir) // the durable tier
        .spawn(loader)
        .expect("spawn logged producer");

    // A second trainer stands in for the rest of the fleet: it keeps the
    // run alive across the crash, pausing just past the victim's exit so
    // the producer cannot finish before the group resumes. It is attached
    // before the doomed trainer starts, so it sees the whole run.
    let successor_up = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (attached, fleet_up) = std::sync::mpsc::channel();
    let fleet = {
        let ctx = ctx.clone();
        let successor_up = successor_up.clone();
        std::thread::spawn(move || {
            let mut consumer = Consumer::builder()
                .context(&ctx)
                .connect("inproc://tensorsocket-logged")
                .expect("connect fleet consumer");
            let _ = attached.send(());
            let mut stream = Vec::new();
            for batch in consumer.by_ref() {
                let batch = batch.expect("clean stream");
                stream.push((batch.seq, ops::checksum(&batch.fields[0])));
                while stream.len() as u64 > ACT7_PER_EPOCH * 3 / 2
                    && !successor_up.load(std::sync::atomic::Ordering::Acquire)
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            stream
        })
    };

    fleet_up.recv().expect("fleet consumer attached");

    // The doomed trainer: consumes one and a half epochs, then "crashes"
    // (drops mid-stream — see tests/log_replay_multi_process.rs for the
    // real SIGKILL variant; the cursor machinery is identical).
    let mut victim = Consumer::builder()
        .context(&ctx)
        .group("trainers")
        .connect("inproc://tensorsocket-logged")
        .expect("connect doomed trainer");
    let mut victim_stream = Vec::new();
    for batch in victim.by_ref() {
        let batch = batch.expect("clean stream");
        victim_stream.push((batch.seq, ops::checksum(&batch.fields[0])));
        if victim_stream.len() as u64 >= ACT7_PER_EPOCH * 3 / 2 {
            break;
        }
    }
    drop(victim);
    println!(
        "[logged] trainer died after {} batches — resuming group \"trainers\"",
        victim_stream.len()
    );

    // Same group, new consumer: picks up at the persisted cursor.
    let mut successor = Consumer::builder()
        .context(&ctx)
        .group("trainers")
        .connect("inproc://tensorsocket-logged")
        .expect("connect resuming trainer");
    successor_up.store(true, std::sync::atomic::Ordering::Release);
    let mut resumed = Vec::new();
    for batch in successor.by_ref() {
        let batch = batch.expect("clean stream");
        resumed.push((batch.seq, ops::checksum(&batch.fields[0])));
    }
    drop(successor);
    let full = fleet.join().expect("fleet consumer");
    producer.join().expect("logged producer");

    // Victim prefix + successor tail, deduplicated on seq, is exactly the
    // uninterrupted stream — no holes, identical payload bytes.
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &(seq, sum) in victim_stream.iter().chain(resumed.iter()) {
        let prev = merged.insert(seq, sum);
        assert!(
            prev.is_none_or(|p| p == sum),
            "re-delivered batch diverged at seq {seq}"
        );
    }
    assert_eq!(
        merged,
        full.into_iter().collect(),
        "crash + resume must reproduce the uninterrupted stream exactly"
    );
    println!(
        "[logged] resumed at seq {} — {} batches replayed from the log, group made whole",
        resumed.first().map(|&(s, _)| s).unwrap_or(0),
        ctx.metrics.counter("replay.log_batches").get(),
    );
    let _ = std::fs::remove_dir_all(&log_dir);
    println!("ok: a dead trainer's group resumed from its durable cursor with zero lost batches");
}
