//! Crash-and-resume over real OS processes: a **logged** sharded producer
//! in this process, three consumer processes (fork/exec of this test
//! binary) over `ipc://` sockets and a shared-memory arena —
//!
//! * a **witness** with no group, attached from the start: its transcript
//!   is the uninterrupted reference stream (and it proves live batches
//!   stay arena-backed, zero-copy);
//! * a **victim** in consumer group `trainers`, attached from the start,
//!   `SIGKILL`ed mid-epoch-1 — no Leave, no Drop, no flush: the worst
//!   case the durable log exists for;
//! * a **resume** process joining the *same group* after the kill: the
//!   producer replays from the group's persisted cursor (what it serves
//!   out of the log — the logged gap and shed pins — it copies into arena
//!   slots and announces as pointers) and splices it onto the live stream.
//!
//! Acceptance (ISSUE): victim + resume transcripts, deduplicated on
//! `(epoch, shard, seq)`, must equal the witness transcript **exactly**
//! — same identities, same payload checksums, no holes — while
//! rubberband pins for logged batches are shed (arena occupancy stays
//! well under the whole-epoch pin footprint).

mod common;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, Producer, ProducerConfig, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, Dataset, DecodedSample, RawSample};
use ts_device::DeviceId;
use ts_tensor::Tensor;

const SAMPLES: usize = 160;
const BATCH_SIZE: usize = 4;
const SHARDS: usize = 2;
const EPOCHS: u64 = 3;
/// Batches per epoch across both shards.
const PER_EPOCH: u64 = (SAMPLES / BATCH_SIZE) as u64; // 40
/// Kill the victim once it has written this many batch lines: one full
/// epoch plus half of epoch 1.
const KILL_AFTER: u64 = PER_EPOCH + PER_EPOCH / 2; // 60
/// Arena slots in use at most while no catch-up out of the log runs: with
/// logged pins shed it stays here; epoch-deep pinning (20 batches × 2
/// shards, a slot each: fields and labels share it) would reach ~40.
const LIVE_PEAK: usize = 30;
/// Slots the resume's catch-up may hold at once. Its frames out of the log
/// are copied into slots (one 4 KiB slot each, fields and labels packed)
/// and held until acked; the 4 MiB catch-up window is 1024 such frames,
/// more than the catch-up has. That is at most one epoch of shed pins plus
/// the logged gap before them, which starts at the victim's cursor inside
/// the previous epoch: under 2 epochs × 20 batches per shard × 2 shards.
const CATCH_UP: usize = 2 * PER_EPOCH as usize;

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
        "log-replay-mp-index"
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

/// Consumer-process body. Role knobs: `group` attaches as that consumer
/// group; `require_shm` asserts every payload is arena-backed (live
/// batches, pins and — for a pointer consumer — frames out of the log,
/// which the producer copies into slots); `hold_for_witness` keeps the
/// first `next()` back until the witness is attached. Every line is
/// flushed so the parent can observe progress (and kill mid-write) and
/// nothing is lost to stdio buffers on SIGKILL.
fn run_consumer(group: Option<&str>, require_shm: bool, hold_for_witness: bool) {
    let endpoint = std::env::var("TS_LRMP_ENDPOINT").expect("TS_LRMP_ENDPOINT");
    let out_path = std::env::var("TS_LRMP_OUT").expect("TS_LRMP_OUT");

    let mut builder = Consumer::builder()
        .recv_timeout(Duration::from_secs(30))
        .heartbeat_interval(Duration::from_millis(50));
    if let Some(g) = group {
        builder = builder.group(g);
    }
    let consumer = builder.connect(&endpoint).expect("consumer connect");
    assert_eq!(consumer.num_shards(), SHARDS);
    assert!(
        consumer.welcome().log.is_some(),
        "logged producer must advertise the log over ipc"
    );
    let joined_epoch = consumer.joined_epoch();

    let mut out = std::fs::File::create(&out_path).expect("result file");
    writeln!(out, "joined {joined_epoch}").unwrap();
    out.flush().unwrap();
    if hold_for_witness {
        // Nothing is acked, so no pin is shed, before the witness is in:
        // it is replayed pointers, whichever of the two attached first.
        common::wait_for_go("TS_LRMP_GO");
    }
    let mut consumed = 0u64;
    let mut consumer = consumer;
    for batch in consumer.by_ref() {
        let batch = batch.expect("clean stream");
        if require_shm {
            assert!(
                batch.fields[0].storage().is_shared_memory(),
                "live field bytes must be arena-backed"
            );
            assert!(
                batch.labels.storage().is_shared_memory(),
                "live label bytes must be arena-backed"
            );
        }
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
        out.flush().unwrap();
        consumed += 1;
        // Pace the stream so the producer's housekeeping sweeps (pin
        // shedding, retention) interleave with publishing instead of a
        // whole epoch landing between two sweeps.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        consumer.stop_reason(),
        Some(tensorsocket::runtime::consumer::StopReason::End),
        "consumer must stop on a clean End from every shard"
    );
    assert!(consumed > 0, "consumed nothing");
    writeln!(out, "done {consumed}").unwrap();
    out.flush().unwrap();
}

/// One transcript line, keyed by identity, carrying the payload digests.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Line {
    labels: Vec<i64>,
    index: u64,
    field_sum: String,
    label_sum: String,
}

type Key = (u64, usize, u64); // (epoch, shard, seq)

/// Parses a transcript; `complete` additionally requires the trailing
/// `done` marker (the killed victim never writes one, and its final line
/// may be torn — torn lines are dropped, not errors).
fn parse_results(path: &std::path::Path, complete: bool) -> (u64, BTreeMap<Key, Line>) {
    let text = std::fs::read_to_string(path).expect("consumer results");
    let mut joined = 0u64;
    let mut lines: BTreeMap<Key, Line> = BTreeMap::new();
    let mut done = false;
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["joined", e] => joined = e.parse().unwrap(),
            ["batch", epoch, shard, seq, index, labels, fsum, lsum] => {
                lines.insert(
                    (
                        epoch.parse().unwrap(),
                        shard.parse().unwrap(),
                        seq.parse().unwrap(),
                    ),
                    Line {
                        labels: labels.split(',').map(|l| l.parse().unwrap()).collect(),
                        index: index.parse().unwrap(),
                        field_sum: fsum.to_string(),
                        label_sum: lsum.to_string(),
                    },
                );
            }
            ["done", _] => done = true,
            _ if !complete => {} // torn tail of a SIGKILLed writer
            _ => panic!("unparsable result line: {line}"),
        }
    }
    if complete {
        assert!(done, "consumer did not finish cleanly: {text}");
    }
    (joined, lines)
}

fn count_batch_lines(path: &std::path::Path) -> u64 {
    match std::fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| l.starts_with("batch ")).count() as u64,
        Err(_) => 0,
    }
}

#[test]
fn log_replay_multi_process_kill9_group_resume() {
    match std::env::var("TS_LRMP_ROLE").as_deref() {
        Ok("witness") => return run_consumer(None, true, false),
        Ok("victim") => return run_consumer(Some("trainers"), false, true),
        Ok("resume") => return run_consumer(Some("trainers"), true, false),
        _ => {}
    }
    let tag = std::process::id();
    let tmp = std::env::temp_dir();
    let endpoint = format!(
        "ipc://{}",
        tmp.join(format!("ts-lrmp-{tag}.sock")).display()
    );
    let arena_path = tmp.join(format!("ts-lrmp-{tag}.arena"));
    let log_dir = tmp.join(format!("ts-lrmp-{tag}.log"));
    let _ = std::fs::remove_dir_all(&log_dir);
    let out_witness = tmp.join(format!("ts-lrmp-{tag}-witness.txt"));
    let out_victim = tmp.join(format!("ts-lrmp-{tag}-victim.txt"));
    let out_resume = tmp.join(format!("ts-lrmp-{tag}-resume.txt"));
    let go_path = tmp.join(format!("ts-lrmp-{tag}.go"));

    let ctx = TsContext::host_only();
    let loaders = DataLoader::sharded(
        Arc::new(IndexDataset { len: SAMPLES }),
        DataLoaderConfig {
            batch_size: BATCH_SIZE,
            num_workers: 0,
            shuffle: true,
            seed: 17,
            drop_last: true,
            ..Default::default()
        },
        SHARDS,
    );
    // The arena holds the run's live set (pins shed, so at most
    // `LIVE_PEAK`) plus the resume's whole catch-up in slots (`CATCH_UP`),
    // with the victim's residue to spare — well below a whole run.
    let group = Producer::builder()
        .context(&ctx)
        .config(ProducerConfig {
            endpoint: endpoint.clone(),
            epochs: EPOCHS,
            rubberband_cutoff: 1.0,
            // Fast kill detection: the victim dies with no Leave; only a
            // missed heartbeat removes it from the ack window.
            heartbeat_timeout: Duration::from_millis(1500),
            first_consumer_timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        })
        .arena_sized(&arena_path, LIVE_PEAK + CATCH_UP + 16, 4096)
        .log(&log_dir)
        .spawn_sharded(loaders)
        .expect("spawn logged sharded group");
    let arena = group.arena().expect("builder provisioned arena").clone();

    // Sample arena occupancy for the whole run: the high-water mark is
    // the pin-shedding acceptance signal.
    let stop_sampling = Arc::new(AtomicBool::new(false));
    let max_in_use = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let arena = arena.clone();
        let stop = stop_sampling.clone();
        let max = max_in_use.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                max.fetch_max(arena.slots_in_use(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let spawn_role = |role: &str, out: &std::path::Path| {
        common::child_test("log_replay_multi_process_kill9_group_resume")
            .env("TS_LRMP_ROLE", role)
            .env("TS_LRMP_ENDPOINT", &endpoint)
            .env("TS_LRMP_OUT", out)
            .env("TS_LRMP_GO", &go_path)
            .spawn()
            .expect("spawn consumer process")
    };
    let witness = spawn_role("witness", &out_witness);
    let mut victim = spawn_role("victim", &out_victim);
    common::go_once_attached(std::slice::from_ref(&out_witness), &go_path);

    // Let the victim get one epoch plus half of the next, then SIGKILL:
    // no Leave, no Drop, un-acked tail, torn final write all allowed.
    let kill_deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        if count_batch_lines(&out_victim) >= KILL_AFTER {
            victim.kill().expect("SIGKILL victim");
            break;
        }
        assert!(
            std::time::Instant::now() < kill_deadline,
            "victim never reached {KILL_AFTER} batches"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let victim_status = victim.wait().expect("wait victim");
    assert!(
        !victim_status.success(),
        "victim was SIGKILLed; its exit must not be clean"
    );

    // Same group, new process: resumes from the persisted cursor. Until
    // now no catch-up out of the log has run.
    let live_peak = max_in_use.load(Ordering::Relaxed);
    let resume = spawn_role("resume", &out_resume);

    common::wait_ok(witness, "witness");
    common::wait_ok(resume, "resume");

    let stats = group.join_shards().expect("group join");
    stop_sampling.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    assert_eq!(stats.len(), SHARDS);
    for (shard, st) in stats.iter().enumerate() {
        assert_eq!(st.epochs_completed, EPOCHS, "shard {shard}");
        assert_eq!(
            st.batches_published,
            EPOCHS * PER_EPOCH / SHARDS as u64,
            "shard {shard} published its partition"
        );
    }

    // --- Acceptance: byte-identical splice across the crash. ---
    let (joined_w, witness_lines) = parse_results(&out_witness, true);
    let (_, victim_lines) = parse_results(&out_victim, false);
    let (_, resume_lines) = parse_results(&out_resume, true);
    assert_eq!(joined_w, 0, "witness must observe the run from epoch 0");
    assert_eq!(witness_lines.len() as u64, EPOCHS * PER_EPOCH);
    assert!(
        victim_lines.len() as u64 >= KILL_AFTER,
        "victim transcript too short"
    );
    assert!(!resume_lines.is_empty(), "resume consumed nothing");

    // Merge victim + resume on (epoch, shard, seq). Overlap is legal
    // (the un-acked tail is re-delivered) but must be value-identical.
    let mut merged: BTreeMap<Key, Line> = BTreeMap::new();
    for (key, line) in victim_lines.iter().chain(resume_lines.iter()) {
        if let Some(prev) = merged.get(key) {
            assert_eq!(prev, line, "re-delivered batch diverged at {key:?}");
        } else {
            merged.insert(*key, line.clone());
        }
    }
    assert_eq!(
        merged, witness_lines,
        "victim + resume must reproduce the witness stream exactly \
         (no holes, identical payload checksums)"
    );

    // --- Producer-side invariants. ---
    assert!(
        ctx.metrics.counter("producer.replay_requests").get() >= 1,
        "the resuming group member must have requested a replay plan"
    );
    assert!(
        ctx.metrics.counter("replay.log_batches").get() > 0,
        "part of the catch-up must have been served from the durable log"
    );
    assert_eq!(ctx.metrics.counter("log.append_errors").get(), 0);
    for shard in 0..SHARDS {
        assert!(
            ctx.metrics
                .counter(&format!("stage.s{shard}.log_append_bytes"))
                .get()
                > 0,
            "shard {shard}: spiller appended nothing"
        );
    }
    // The resume's frames out of the log went through arena slots, every
    // one of them (the resume asserted each batch it got is arena-backed).
    let replay_counter = |name: &str| -> u64 {
        let counter = |shard| format!("replay.s{shard}.{name}");
        (0..SHARDS)
            .map(|s| ctx.metrics.counter(&counter(s)).get())
            .sum()
    };
    assert!(replay_counter("slot_frames") > 0, "no slot-backed frame");
    assert_eq!(replay_counter("slot_fallbacks"), 0);
    // Pin shedding: whole-epoch pinning would hold ~40 slots; logged
    // batches must have been shed well below that. Measured before the
    // resume's catch-up, and over the whole run with it in.
    assert!(
        live_peak <= LIVE_PEAK,
        "arena peak {live_peak} slots before the catch-up — logged rubberband \
         pins were not shed (whole-epoch pinning is ~40)"
    );
    let peak = max_in_use.load(Ordering::Relaxed);
    assert!(
        peak <= LIVE_PEAK + CATCH_UP,
        "arena peak {peak} slots — more than the live set and the catch-up's \
         slots can account for"
    );
    // The arena refcounts are cross-process: a SIGKILLed consumer takes
    // its in-flight mapped batch's references to the grave (2 slots per
    // batch, at most the one being read plus one being materialized).
    // That bounded residue is the victim's, not a producer leak — anything
    // beyond it is.
    let residue = arena.slots_in_use();
    assert!(
        residue <= 4,
        "{residue} slots still referenced — more than the killed victim's \
         in-flight batches can account for"
    );

    for path in [&out_witness, &out_victim, &out_resume, &go_path] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&log_dir);
}
