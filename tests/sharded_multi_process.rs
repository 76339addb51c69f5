//! The sharded producer group as a real OS-process topology: one producer
//! process (this test) hosting **two sharded producer pipelines** under
//! one epoch coordinator, plus two consumer processes (fork/exec of this
//! same test binary), all collocated and talking over `ipc://` sockets
//! with batch bytes in a shared-memory arena.
//!
//! Verifies the acceptance criteria of multi-producer sharding:
//!
//! * every consumer process sees the **full dataset exactly once per
//!   epoch** — the union of the two shards' disjoint partitions — in the
//!   deterministic `(epoch, shard, seq)` interleave order;
//! * both consumer processes see identical batch sequences for every
//!   epoch both participated in from the start;
//! * the batch order is **bit-identical across independent runs** of the
//!   whole topology (same seed → same permutation → same shard split →
//!   same interleave), asserted by running the topology twice and
//!   comparing transcripts including payload checksums;
//! * payload bytes come from the shared-memory arena (zero-copy) and the
//!   arena fully drains.
//!
//! The whole topology runs through the **unified builder facade**: the
//! group spawns via `Producer::builder()…spawn_sharded`, and each
//! consumer process attaches with `Consumer::builder().connect(endpoint)`
//! and *nothing else* — shard count and arena geometry arrive over the
//! attach handshake, not the environment.

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, ProducerConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::Tensor;

const SAMPLES: usize = 32;
const BATCH_SIZE: usize = 4;
const SHARDS: usize = 2;
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
        "sharded-mp-index"
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

/// Consumer-process body: attach with only the endpoint URI — the shard
/// count and arena location arrive over the handshake — consume
/// everything, write one transcript line per batch.
fn run_consumer() {
    let endpoint = std::env::var("TS_SMP_ENDPOINT").expect("TS_SMP_ENDPOINT");
    let arena_path = std::env::var("TS_SMP_ARENA").expect("TS_SMP_ARENA");
    let out_path = std::env::var("TS_SMP_OUT").expect("TS_SMP_OUT");

    let consumer = Consumer::builder()
        .recv_timeout(Duration::from_secs(30))
        .connect(&endpoint)
        .expect("consumer connect");
    // Topology and arena were learned, not configured.
    assert_eq!(consumer.num_shards(), SHARDS);
    assert_eq!(consumer.welcome().shards as usize, SHARDS);
    let ad = consumer.welcome().arena.clone().expect("arena advertised");
    assert_eq!(ad.path, arena_path);
    let joined_epoch = consumer.joined_epoch();

    let mut out = std::fs::File::create(&out_path).expect("result file");
    writeln!(out, "joined {joined_epoch}").unwrap();
    let mut consumed = 0u64;
    let mut consumer = consumer;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        if batch.epoch == EPOCHS - 1 {
            // The last join window there is: the other process must be
            // attached before this one lets the producers past it.
            common::wait_for_go("TS_SMP_GO");
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
        let labels: Vec<String> = batch
            .labels
            .to_vec_i64()
            .unwrap()
            .iter()
            .map(|l| l.to_string())
            .collect();
        let field_sum = checksum(&batch.fields[0].gather_bytes());
        let label_sum = checksum(&batch.labels.gather_bytes());
        writeln!(
            out,
            "batch {} {} {} {} {} {:016x} {:016x}",
            batch.epoch,
            batch.shard,
            batch.seq,
            batch.index_in_epoch,
            labels.join(","),
            field_sum,
            label_sum
        )
        .unwrap();
        consumed += 1;
    }
    assert_eq!(
        consumer.stop_reason(),
        Some(tensorsocket::runtime::consumer::StopReason::End),
        "consumer must stop on a clean End from every shard"
    );
    assert!(consumed > 0, "consumed nothing");
    writeln!(out, "done {consumed}").unwrap();
}

#[derive(Debug, PartialEq, Eq, Clone)]
struct Line {
    shard: usize,
    seq: u64,
    index: u64,
    labels: Vec<i64>,
    field_sum: String,
    label_sum: String,
}

type Transcript = BTreeMap<u64, Vec<Line>>;

fn parse_results(path: &std::path::Path) -> (u64, Transcript) {
    let text = std::fs::read_to_string(path).expect("consumer results");
    let mut joined = 0u64;
    let mut by_epoch: Transcript = BTreeMap::new();
    let mut done = false;
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["joined", e] => joined = e.parse().unwrap(),
            ["batch", epoch, shard, seq, index, labels, fsum, lsum] => {
                by_epoch
                    .entry(epoch.parse().unwrap())
                    .or_default()
                    .push(Line {
                        shard: shard.parse().unwrap(),
                        seq: seq.parse().unwrap(),
                        index: index.parse().unwrap(),
                        labels: labels.split(',').map(|l| l.parse().unwrap()).collect(),
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

/// Runs the full topology once (group of 2 shard pipelines in this
/// process, 2 forked consumer processes) and returns both transcripts.
fn run_topology(tag: &str) -> Vec<(u64, Transcript)> {
    let tmp = std::env::temp_dir();
    let endpoint = format!("ipc://{}", tmp.join(format!("ts-smp-{tag}.sock")).display());
    let arena_path = tmp.join(format!("ts-smp-{tag}.arena"));
    let out_paths: Vec<_> = (0..2)
        .map(|i| tmp.join(format!("ts-smp-{tag}-consumer{i}.txt")))
        .collect();
    let go_path = tmp.join(format!("ts-smp-{tag}.go"));

    let ctx = TsContext::host_only();
    let loaders = DataLoader::sharded(
        Arc::new(IndexDataset { len: SAMPLES }),
        DataLoaderConfig {
            batch_size: BATCH_SIZE,
            num_workers: 0,
            shuffle: true,
            seed: 11,
            drop_last: true,
            ..Default::default()
        },
        SHARDS,
    );
    // The builder provisions the arena (explicit geometry here, to keep
    // the deliberately small recycle-proving arena of the original test)
    // and binds one recycling slot pool per shard.
    let group = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: endpoint.clone(),
            epochs: EPOCHS,
            // Whole-epoch join window so the second process rubberbands
            // into epoch 0 even under fork/exec latency; if it still
            // misses, the comparison below starts at its joined epoch.
            rubberband_cutoff: 1.0,
            heartbeat_timeout: Duration::from_secs(5),
            first_consumer_timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        })
        .arena_sized(&arena_path, 64, 4096)
        .spawn_sharded(loaders)
        .expect("spawn sharded group");
    let arena = group.arena().expect("builder provisioned arena").clone();

    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = out_paths
        .iter()
        .map(|out| {
            std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "sharded_multi_process_ipc_exactly_once",
                    "--test-threads=1",
                ])
                .env("TS_SMP_ROLE", "consumer")
                .env("TS_SMP_ENDPOINT", &endpoint)
                .env("TS_SMP_ARENA", &arena_path)
                .env("TS_SMP_OUT", out)
                .env("TS_SMP_GO", &go_path)
                .spawn()
                .expect("spawn consumer process")
        })
        .collect();
    common::go_once_attached(&out_paths, &go_path);

    for mut child in children {
        let status = child.wait().expect("wait consumer");
        assert!(status.success(), "consumer process failed: {status}");
    }
    let stats = group.join_shards().expect("group join");
    assert_eq!(stats.len(), SHARDS);
    for (shard, st) in stats.iter().enumerate() {
        assert_eq!(st.epochs_completed, EPOCHS, "shard {shard}");
        assert_eq!(st.peak_consumers, 2, "shard {shard} admitted both");
        assert_eq!(
            st.batches_published,
            EPOCHS * (SAMPLES / SHARDS / BATCH_SIZE) as u64,
            "shard {shard} published its partition"
        );
    }

    // Releases were acked back from both processes, the builder-bound
    // per-shard pools recycled slots in place, and join drained them.
    for shard in 0..SHARDS as u32 {
        let pool = ctx
            .registry
            .shard_slot_pool(shard)
            .expect("builder bound a per-shard pool");
        assert!(pool.stats().hits > 0, "shard {shard} recycled slots");
    }
    assert_eq!(arena.slots_in_use(), 0, "arena must fully drain");
    assert!(ctx.registry.is_empty(), "registry must fully drain");

    let results = out_paths.iter().map(|p| parse_results(p)).collect();
    for path in out_paths.iter().chain([&go_path]) {
        let _ = std::fs::remove_file(path);
    }
    results
}

#[test]
fn sharded_multi_process_ipc_exactly_once() {
    if std::env::var("TS_SMP_ROLE").as_deref() == Ok("consumer") {
        run_consumer();
        return;
    }
    let tag = std::process::id();

    // Two independent runs of the identical topology: order must be
    // bit-identical across them.
    let runs: Vec<Vec<(u64, Transcript)>> = (0..2)
        .map(|r| run_topology(&format!("{tag}-r{r}")))
        .collect();

    for (r, consumers) in runs.iter().enumerate() {
        let (joined_a, results_a) = &consumers[0];
        let (joined_b, results_b) = &consumers[1];
        let first_common = *joined_a.max(joined_b);
        assert!(
            first_common < EPOCHS,
            "run {r}: no epoch shared by both consumers (joined {joined_a}/{joined_b})"
        );
        for epoch in first_common..EPOCHS {
            let a = results_a.get(&epoch).expect("consumer 0 missing epoch");
            let b = results_b.get(&epoch).expect("consumer 1 missing epoch");
            // Full dataset exactly once per epoch: the union of both
            // shards' batches covers every sample exactly once.
            let mut labels: Vec<i64> = a.iter().flat_map(|l| l.labels.clone()).collect();
            labels.sort_unstable();
            assert_eq!(
                labels,
                (0..SAMPLES as i64).collect::<Vec<i64>>(),
                "run {r} epoch {epoch}: not exactly-once"
            );
            assert_eq!(
                a.len(),
                SAMPLES / BATCH_SIZE,
                "run {r} epoch {epoch} incomplete"
            );
            // Both shards contributed their partitions.
            assert!(a.iter().any(|l| l.shard == 0) && a.iter().any(|l| l.shard == 1));
            // Deterministic interleave: sorted by (index, shard) within
            // the epoch.
            let keys: Vec<(u64, usize)> = a.iter().map(|l| (l.index, l.shard)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "run {r} epoch {epoch}: interleave order");
            // Identical sequences (incl. payload checksums) across the
            // two consumer processes.
            assert_eq!(a, b, "run {r}: consumers diverge in epoch {epoch}");
        }
    }

    // Bit-identical batch order across runs, for every epoch that both
    // runs fully observed.
    let first_common = runs
        .iter()
        .map(|consumers| consumers.iter().map(|(j, _)| *j).max().unwrap())
        .max()
        .unwrap();
    assert!(first_common < EPOCHS, "no epoch observed fully by all runs");
    for epoch in first_common..EPOCHS {
        let a = runs[0][0].1.get(&epoch).unwrap();
        let b = runs[1][0].1.get(&epoch).unwrap();
        assert_eq!(
            a, b,
            "batch order not bit-identical across runs (epoch {epoch})"
        );
    }
}
