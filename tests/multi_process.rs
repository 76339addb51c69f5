//! The paper's headline scenario as a real OS-process topology: one
//! producer process (this test) + two consumer processes (fork/exec of
//! this same test binary) collocated on one machine, talking over
//! `ipc://` sockets with batch bytes in a shared-memory arena.
//!
//! Verifies the acceptance criteria of the transport subsystem:
//!
//! * both consumer processes receive identical batch sequences (for every
//!   epoch both participated in from the start);
//! * payload bytes are read from the shared-memory arena, not the socket —
//!   every rebuilt tensor in the consumers is backed by an arena mapping
//!   (`is_shared_memory`), and the consumers' local registries are empty;
//! * releases are acked back so the arena recycles slots: a deliberately
//!   small arena survives `epochs × batches` allocations, and is fully
//!   free after the run.
//!
//! The producer binds an arena it sized by hand (deliberately small); the
//! consumer processes attach with `Consumer::builder().connect(endpoint)`
//! and **nothing else** — no arena path, no configuration: the attach
//! handshake carries the arena advertisement.

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, ProducerConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::Tensor;

const BATCHES_PER_EPOCH: usize = 8;
const BATCH_SIZE: usize = 4;
const EPOCHS: u64 = 3;

/// `label == index`, field encodes the index: batches are deterministic
/// and checksummable across processes.
struct IndexDataset {
    len: usize,
}

impl Dataset for IndexDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::from(vec![index as u8; 4]),
            label: index as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        4
    }

    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        let field = Tensor::from_f32(
            &[raw.index as f32, raw.index as f32 * 2.0],
            &[2],
            DeviceId::Cpu,
        )?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![field],
            label: raw.label,
        })
    }

    fn name(&self) -> &str {
        "mp-index"
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a, stable across processes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Consumer-process body: attach with NOTHING but the endpoint URI — the
/// handshake advertises the arena, which the builder maps before joining
/// — consume everything, write one line per batch to the result file.
fn run_consumer() {
    let endpoint = std::env::var("TS_MP_ENDPOINT").expect("TS_MP_ENDPOINT");
    let arena_path = std::env::var("TS_MP_ARENA").expect("TS_MP_ARENA");
    let out_path = std::env::var("TS_MP_OUT").expect("TS_MP_OUT");

    let mut consumer = Consumer::builder()
        .recv_timeout(Duration::from_secs(30))
        .connect(&endpoint)
        .expect("consumer connect");
    // The handshake advertised the arena this topology shares.
    let ad = consumer
        .welcome()
        .arena
        .clone()
        .expect("arena must be advertised");
    assert_eq!(
        ad.path, arena_path,
        "advertised path matches the producer's"
    );
    let joined_epoch = consumer.joined_epoch();

    let mut out = std::fs::File::create(&out_path).expect("result file");
    writeln!(out, "joined {joined_epoch}").unwrap();
    let mut consumed = 0u64;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        if batch.epoch == EPOCHS - 1 {
            // The last join window there is: the other process must be
            // attached before this one lets the producer past it.
            common::wait_for_go("TS_MP_GO");
        }
        // The whole point: payload bytes came from the mapped arena, not
        // the socket.
        assert!(
            batch.fields[0].storage().is_shared_memory(),
            "field bytes must be arena-backed"
        );
        assert!(
            batch.labels.storage().is_shared_memory(),
            "label bytes must be arena-backed"
        );
        let field_sum = checksum(&batch.fields[0].gather_bytes());
        let label_sum = checksum(&batch.labels.gather_bytes());
        writeln!(
            out,
            "batch {} {} {} {:016x} {:016x}",
            batch.epoch, batch.seq, batch.index_in_epoch, field_sum, label_sum
        )
        .unwrap();
        consumed += 1;
    }
    assert_eq!(
        consumer.stop_reason(),
        Some(tensorsocket::runtime::consumer::StopReason::End),
        "consumer must stop on a clean End"
    );
    assert!(consumed > 0, "consumed nothing");
    writeln!(out, "done {consumed}").unwrap();
}

#[derive(Debug, PartialEq, Eq, Clone)]
struct Line {
    seq: u64,
    index: u64,
    field_sum: String,
    label_sum: String,
}

fn parse_results(path: &std::path::Path) -> (u64, BTreeMap<u64, Vec<Line>>) {
    let text = std::fs::read_to_string(path).expect("consumer results");
    let mut joined = 0u64;
    let mut by_epoch: BTreeMap<u64, Vec<Line>> = BTreeMap::new();
    let mut done = false;
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["joined", e] => joined = e.parse().unwrap(),
            ["batch", epoch, seq, index, fsum, lsum] => {
                by_epoch
                    .entry(epoch.parse().unwrap())
                    .or_default()
                    .push(Line {
                        seq: seq.parse().unwrap(),
                        index: index.parse().unwrap(),
                        field_sum: fsum.to_string(),
                        label_sum: lsum.to_string(),
                    });
            }
            ["done", _] => done = true,
            _ => panic!("unparsable result line: {line}"),
        }
    }
    assert!(done, "consumer did not finish cleanly: {text}");
    (joined, by_epoch)
}

#[test]
fn multi_process_ipc_shared_arena() {
    if std::env::var("TS_MP_ROLE").as_deref() == Ok("consumer") {
        run_consumer();
        return;
    }

    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let endpoint = format!("ipc://{}", tmp.join(format!("ts-mp-{tag}.sock")).display());
    let arena_path = tmp.join(format!("ts-mp-{tag}.arena"));
    let out_paths: Vec<_> = (0..2)
        .map(|i| tmp.join(format!("ts-mp-{tag}-consumer{i}.txt")))
        .collect();
    let go_path = tmp.join(format!("ts-mp-{tag}.go"));

    // Deliberately small arena: 3 epochs x 8 announces x 2 storages = 48
    // allocations must recycle through 12 slots, proving acked releases
    // keep it bounded.
    let ctx = TsContext::host_only();
    let arena = ctx
        .create_arena(&arena_path, 12, 4096)
        .expect("create arena");

    let loader = DataLoader::new(
        Arc::new(IndexDataset {
            len: BATCHES_PER_EPOCH * BATCH_SIZE,
        }),
        DataLoaderConfig {
            batch_size: BATCH_SIZE,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    );
    let producer = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: endpoint.clone(),
            epochs: EPOCHS,
            // Wide join window so the second process usually rubberbands
            // into epoch 0; if it still misses, it waits for epoch 1 and
            // the comparison below starts there.
            rubberband_cutoff: 0.5,
            heartbeat_timeout: Duration::from_secs(5),
            first_consumer_timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        })
        .spawn(loader)
        .expect("spawn producer");

    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = out_paths
        .iter()
        .map(|out| {
            std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "multi_process_ipc_shared_arena",
                    "--test-threads=1",
                ])
                .env("TS_MP_ROLE", "consumer")
                .env("TS_MP_ENDPOINT", &endpoint)
                .env("TS_MP_ARENA", &arena_path)
                .env("TS_MP_OUT", out)
                .env("TS_MP_GO", &go_path)
                .spawn()
                .expect("spawn consumer process")
        })
        .collect();
    common::go_once_attached(&out_paths, &go_path);

    for mut child in children {
        let status = child.wait().expect("wait consumer");
        assert!(status.success(), "consumer process failed: {status}");
    }
    let stats = producer.join().expect("producer join");
    assert_eq!(stats.epochs_completed, EPOCHS);
    assert_eq!(stats.peak_consumers, 2, "both processes were admitted");

    // Releases were acked back from both processes: every slot is free and
    // nothing is left registered.
    assert_eq!(arena.slots_in_use(), 0, "arena must fully drain");
    assert!(ctx.registry.is_empty(), "registry must fully drain");

    // Identical batch sequences for every epoch both consumers saw from
    // the start.
    let (joined_a, results_a) = parse_results(&out_paths[0]);
    let (joined_b, results_b) = parse_results(&out_paths[1]);
    let first_common = joined_a.max(joined_b);
    assert!(
        first_common < EPOCHS,
        "no epoch was shared by both consumers (joined {joined_a}/{joined_b})"
    );
    for epoch in first_common..EPOCHS {
        let a = results_a.get(&epoch).expect("consumer 0 missing epoch");
        let b = results_b.get(&epoch).expect("consumer 1 missing epoch");
        assert_eq!(
            a.len(),
            BATCHES_PER_EPOCH,
            "epoch {epoch} incomplete for consumer 0"
        );
        assert_eq!(a, b, "sequences diverge in epoch {epoch}");
    }
    for path in out_paths.iter().chain([&go_path]) {
        let _ = std::fs::remove_file(path);
    }
}

/// A trainer that stops early — drops its consumer and exits at once —
/// must have LEFT: its last ack and its LEAVE are on the wire when `drop`
/// returns, not in a queue the exiting process takes along. Otherwise the
/// producer keeps the publish window open for a dead member until its
/// heartbeat runs out, stalling everybody else.
#[test]
fn a_process_exiting_right_after_drop_has_said_leave() {
    if std::env::var("TS_MP_ROLE").as_deref() == Ok("leaver") {
        let endpoint = std::env::var("TS_MP_ENDPOINT").expect("TS_MP_ENDPOINT");
        let mut consumer = Consumer::builder().connect(&endpoint).expect("connect");
        consumer.next().expect("a batch").expect("clean batch");
        drop(consumer);
        std::process::exit(0); // not even the test harness's epilogue
    }
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let endpoint = format!(
        "ipc://{}",
        tmp.join(format!("ts-mp-leave-{tag}.sock")).display()
    );
    let ctx = TsContext::host_only();
    let loader = DataLoader::new(
        Arc::new(IndexDataset { len: 4096 }),
        DataLoaderConfig {
            batch_size: BATCH_SIZE,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    );
    let timeout = Duration::from_millis(500);
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(endpoint.as_str())
        .heartbeat_timeout(timeout)
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .arena(tmp.join(format!("ts-mp-leave-{tag}.arena")))
        .spawn(loader)
        .expect("spawn producer");
    let exe = std::env::current_exe().expect("test binary path");
    for round in 0..20 {
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "a_process_exiting_right_after_drop_has_said_leave",
            ])
            .env("TS_MP_ROLE", "leaver")
            .env("TS_MP_ENDPOINT", &endpoint)
            .status()
            .expect("run leaver process");
        assert!(status.success(), "leaver {round} failed: {status}");
    }
    // A member that did not leave is detached once its heartbeat runs out.
    std::thread::sleep(timeout + timeout / 2);
    producer.abort();
    let stats = producer.join().expect("producer join");
    assert_eq!(stats.peak_consumers, 1, "one leaver at a time");
    assert_eq!(stats.consumers_detached, 0, "a LEAVE was lost at exit");
    let strays = ctx.metrics.counter("producer.ctrl_unknown_consumer").get();
    assert_eq!(strays, 0, "a frame from outside a membership");
}

/// `label == index`, one 2 MiB field per sample: a batch of four is an
/// 8 MiB streamed frame, twice what a Unix socket buffer is allowed to
/// hold here (`net.core.wmem_max`, 4 MiB).
struct WideDataset;

impl Dataset for WideDataset {
    fn len(&self) -> usize {
        2 * BATCH_SIZE
    }

    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::from(vec![index as u8; 4]),
            label: index as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        4
    }

    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        let field = Tensor::from_f32(
            &vec![raw.index as f32; 512 << 10],
            &[512 << 10],
            DeviceId::Cpu,
        )?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![field],
            label: raw.label,
        })
    }

    fn name(&self) -> &str {
        "mp-wide"
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// "The pump never blocks in a send", from outside: a stream-mode consumer
/// process is stopped cold (SIGSTOP: its reader thread and its heartbeat
/// stop with it) while frames larger than its socket buffer are in flight
/// to it. Its writer thread then sits in `write` for good. The producer
/// must go on answering its control plane meanwhile, evict the silent
/// member when its heartbeat runs out, and keep feeding the other one.
#[test]
fn a_stopped_stream_consumer_with_a_full_socket_does_not_stall_the_pump() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use tensorsocket::PayloadMode;
    let streamed = || {
        Consumer::builder()
            .payload_mode(PayloadMode::Stream)
            .heartbeat_interval(Duration::from_millis(50))
            .recv_timeout(Duration::from_secs(30))
    };
    if std::env::var("TS_MP_ROLE").as_deref() == Ok("stalled") {
        let endpoint = std::env::var("TS_MP_ENDPOINT").expect("TS_MP_ENDPOINT");
        let consumer = streamed().connect(&endpoint).expect("connect");
        std::fs::write(std::env::var("TS_MP_OUT").expect("TS_MP_OUT"), "joined\n").unwrap();
        // Until the parent stops, and later kills, this process.
        for batch in consumer {
            batch.expect("clean batch");
        }
        return;
    }
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let endpoint = format!(
        "ipc://{}",
        tmp.join(format!("ts-mp-stop-{tag}.sock")).display()
    );
    let out = tmp.join(format!("ts-mp-stop-{tag}.txt"));
    let go = tmp.join(format!("ts-mp-stop-{tag}.go"));
    let loader = DataLoader::new(
        Arc::new(WideDataset),
        DataLoaderConfig {
            batch_size: BATCH_SIZE,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
    );
    let heartbeat_timeout = Duration::from_secs(1);
    let producer = Producer::builder()
        .endpoint(endpoint.as_str())
        .epochs(u64::MAX)
        .heartbeat_timeout(heartbeat_timeout)
        .first_consumer_timeout(Some(Duration::from_secs(60)))
        .spawn(loader)
        .expect("spawn producer");
    let exe = std::env::current_exe().expect("test binary path");
    let mut stalled = std::process::Command::new(&exe)
        .args([
            "--exact",
            "a_stopped_stream_consumer_with_a_full_socket_does_not_stall_the_pump",
        ])
        .env("TS_MP_ROLE", "stalled")
        .env("TS_MP_ENDPOINT", &endpoint)
        .env("TS_MP_OUT", &out)
        .spawn()
        .expect("spawn consumer process");
    let (received, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let wait_for = |what: &str, n: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while received.load(Ordering::SeqCst) < n {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut witness = streamed().connect(&endpoint).expect("witness attaches");
            while !done.load(Ordering::SeqCst) {
                witness
                    .next()
                    .expect("the stream goes on")
                    .expect("clean batch");
                received.fetch_add(1, Ordering::SeqCst);
            }
        });
        common::go_once_attached(std::slice::from_ref(&out), &go);
        // Both are members and the window moves for both.
        wait_for("the stream never started", 8);
        // Safety: a signal to a child this test spawned and still owns.
        assert_eq!(
            unsafe {
                kill(stalled.id() as i32, 19 /* SIGSTOP */)
            },
            0
        );
        // The window closes on the stopped member within two batches; its
        // writer is stuck mid-frame from then on. The pump is not: it
        // answers a scrape, and the member is still on its books.
        std::thread::sleep(heartbeat_timeout / 4);
        let ctx = TsContext::host_only();
        let stats = tensorsocket::scrape_stats(&ctx, endpoint.as_str(), Duration::from_secs(10))
            .expect("the pump answers while a writer is blocked");
        assert_eq!(stats.counter("producer.detached").unwrap_or(0), 0);
        // Evicted by heartbeat, and the other consumer keeps receiving.
        let stopped_at = received.load(Ordering::SeqCst);
        wait_for(
            "the witness starved behind a stopped member",
            stopped_at + 16,
        );
        done.store(true, Ordering::SeqCst);
    });
    producer.abort();
    let stats = producer.join().expect("producer join");
    assert_eq!(
        stats.consumers_detached, 1,
        "the stopped member was evicted"
    );
    assert_eq!(stats.peak_consumers, 2);
    let _ = stalled.kill();
    let _ = stalled.wait();
    for path in [&out, &go] {
        let _ = std::fs::remove_file(path);
    }
}
