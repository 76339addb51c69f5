//! The roles the benchmark binary re-executes itself as: a consumer
//! process attached to the driver's producer, and a non-shared trainer
//! iterating a private loader. Each reports progress as flushed lines on
//! stdout (the driver reads them live) and its measurements as files in
//! the run's work directory when it ends.

use crate::procstat::{cpu_self, pss_self_mib, CpuMs};
use crate::trace::{block_traced, write_jsonl, Recorder, NO_BATCH};
use crate::util::{now_ns, Args, Json};
use crate::workloads::{self, step, TranscriptLine};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tensorsocket::protocol::messages::PayloadMode;
use tensorsocket::runtime::consumer::StopReason;
use tensorsocket::Consumer;

/// Prints one progress line and flushes it: the driver acts on these
/// while the child is still running.
fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Files a child leaves in the work directory, by child name.
pub struct ChildFiles {
    pub result: PathBuf,
    pub waits: PathBuf,
    pub transcript: PathBuf,
    pub spans: PathBuf,
}

impl ChildFiles {
    pub fn new(dir: &Path, name: &str) -> Self {
        Self {
            result: dir.join(format!("{name}.result.json")),
            waits: dir.join(format!("{name}.waits.bin")),
            transcript: dir.join(format!("{name}.transcript")),
            spans: dir.join(format!("{name}.spans.jsonl")),
        }
    }
}

fn write_waits(path: &Path, waits_ns: &[u64]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for w in waits_ns {
        out.write_all(&w.to_le_bytes())?;
    }
    out.flush()
}

pub fn read_waits(path: &Path) -> Vec<u64> {
    std::fs::read(path)
        .map(|bytes| {
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect()
        })
        .unwrap_or_default()
}

/// What the closed loop measured, epoch by timed epoch: the driver
/// reports a quartile over the epochs, so disturbed epochs (a replay
/// stall, a noisy neighbour) do not move a run's numbers.
#[derive(Default)]
struct Timed {
    start_ns: u64,
    cpu_start: CpuMs,
    batches: u64,
    samples: u64,
    pss_mib: f64,
    /// Clock and CPU reading when each timed epoch's last batch was done.
    epoch_ends: Vec<(u64, CpuMs)>,
}

impl Timed {
    fn start(&mut self, at_ns: u64) {
        self.start_ns = at_ns;
        self.cpu_start = cpu_self();
    }

    fn end_epoch(&mut self) {
        self.epoch_ends.push((now_ns(), cpu_self()));
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let starts =
            std::iter::once((self.start_ns, self.cpu_start)).chain(self.epoch_ends.iter().copied());
        let epochs: Vec<(u64, CpuMs)> = starts
            .zip(&self.epoch_ends)
            .map(|((t0, c0), (t1, c1))| (t1.saturating_sub(t0), c1.since(&c0)))
            .collect();
        let per_epoch =
            |f: &dyn Fn(&(u64, CpuMs)) -> Json| Json::Arr(epochs.iter().map(f).collect());
        vec![
            ("timed_batches", Json::Int(self.batches)),
            ("timed_samples", Json::Int(self.samples)),
            ("pss_mib", Json::Num(self.pss_mib)),
            ("epoch_ns", per_epoch(&|e| Json::Int(e.0))),
            ("epoch_cpu_user_ms", per_epoch(&|e| Json::Num(e.1.user))),
            ("epoch_cpu_sys_ms", per_epoch(&|e| Json::Num(e.1.sys))),
        ]
    }
}

/// `--role consumer`: attach with nothing but the endpoint, run the
/// closed loop until `End`, leave the measurements behind.
pub fn consumer_main(args: &Args) -> Result<(), String> {
    let endpoint = args.value("--endpoint").ok_or("--endpoint missing")?;
    let name = args.value("--name").ok_or("--name missing")?;
    let out_dir = PathBuf::from(args.value("--out-dir").ok_or("--out-dir missing")?);
    let last_epoch: u64 = args.parsed("--last-epoch")?.ok_or("--last-epoch missing")?;
    let join_target: Option<u64> = args.parsed("--join-target")?;
    let notify_at: Option<u64> = args.parsed("--notify-at")?;
    let probe_only = args.has("--probe");
    // Batches per tracing block; 0 (or absent) is an untraced run.
    let trace_block: u64 = args.parsed("--trace-block")?.unwrap_or(0);
    let mut rec = Recorder::new(trace_block > 0, name);
    let files = ChildFiles::new(&out_dir, name);

    let mut builder = Consumer::builder().recv_timeout(Duration::from_secs(20));
    if args.value("--mode") == Some("stream") {
        builder = builder.payload_mode(PayloadMode::Stream);
    }
    if let Some(group) = args.value("--group") {
        builder = builder.group(group);
    }
    let connect_start = now_ns();
    let mut consumer = builder
        .connect(endpoint)
        .map_err(|e| format!("connect {endpoint}: {e}"))?;
    let connect_end = now_ns();
    rec.record("connect", connect_start, connect_end, 0, NO_BATCH);

    let mut waits_ns: Vec<u64> = Vec::new();
    let mut transcript: Vec<TranscriptLine> = Vec::new();
    let mut timed = Timed::default();
    let (mut batches, mut samples, mut errors, mut arena_backed) = (0u64, 0u64, 0u64, 0u64);
    let mut first_seq: Option<u64> = None;
    // `connect()` start to the receipt of batch `--join-target`, where a
    // late joiner is level with the stream.
    let mut join_ns: Option<u64> = None;
    // Traced runs: `(spans were on, duration)` of each full block of
    // `trace_block` timed batches, in stream order.
    let mut blocks: Vec<(bool, u64)> = Vec::new();
    let (mut block_start, mut block_batches) = (0u64, 0u64);
    let mut acc = 0u64;
    loop {
        let t0 = now_ns();
        let Some(item) = consumer.next() else { break };
        let t1 = now_ns();
        let batch = match item {
            Ok(b) => b,
            Err(e) => {
                eprintln!("[{name}] stream error: {e}");
                errors += 1;
                continue;
            }
        };
        let id = (batch.epoch, batch.shard as u32, batch.index_in_epoch);
        let spans_on = block_traced(batch.epoch, batch.index_in_epoch, trace_block);
        batches += 1;
        samples += batch.batch_size() as u64;
        if first_seq.is_none() {
            first_seq = Some(batch.seq);
            say(&format!("first {t1}"));
            if probe_only {
                return Ok(());
            }
        }
        if join_target == Some(batches) {
            join_ns = Some(t1 - connect_start);
        }
        if notify_at == Some(batches) {
            say(&format!("progress {batches}"));
        }
        if batch.fields[0].storage().is_shared_memory() {
            arena_backed += 1;
        }
        if batch.epoch == 0 {
            // Warm-up: the full-payload checksums the driver compares
            // against the reference and the other consumers.
            transcript.push(TranscriptLine::of(
                batch.epoch,
                batch.index_in_epoch,
                &batch.fields[0],
                &batch.labels,
            ));
        } else {
            if timed.batches == 0 {
                timed.start(t0);
            }
            timed.batches += 1;
            timed.samples += batch.batch_size() as u64;
            waits_ns.push(t1 - t0);
            if trace_block > 0 {
                if block_batches == 0 {
                    block_start = t0;
                }
                block_batches += 1;
            }
        }
        let epoch_done = batch.last_in_epoch && batch.epoch > 0;
        let last = batch.last_in_epoch && batch.epoch == last_epoch;
        if spans_on {
            rec.record("next_wait", t0, t1, 0, id);
            acc ^= step(&batch.fields[0], &batch.labels);
            let t2 = now_ns();
            rec.record("step", t1, t2, 0, id);
            drop(batch);
            rec.record("release", t2, now_ns(), 0, id);
        } else {
            acc ^= step(&batch.fields[0], &batch.labels);
            drop(batch);
        }
        if block_batches == trace_block && trace_block > 0 {
            blocks.push((spans_on, now_ns() - block_start));
            block_batches = 0;
        } else if epoch_done {
            block_batches = 0; // a block never straddles two epochs
        }
        if epoch_done && timed.batches > 0 {
            timed.end_epoch();
        }
        if last && timed.batches > 0 {
            timed.pss_mib = pss_self_mib();
        }
    }
    std::hint::black_box(acc);
    let clean_end = consumer.stop_reason() == Some(StopReason::End);
    drop(consumer);

    let mut result = timed.to_json();
    result.extend([
        ("batches", Json::Int(batches)),
        ("samples", Json::Int(samples)),
        ("errors", Json::Int(errors)),
        ("clean_end", Json::Bool(clean_end)),
        ("arena_backed", Json::Int(arena_backed)),
        ("first_seq", first_seq.map_or(Json::Null, Json::Int)),
        ("join_ns", join_ns.map_or(Json::Null, Json::Int)),
        (
            "block_traced",
            Json::Arr(blocks.iter().map(|b| Json::Bool(b.0)).collect()),
        ),
        (
            "block_ns",
            Json::Arr(blocks.iter().map(|b| Json::Int(b.1)).collect()),
        ),
    ]);
    let io = |e: std::io::Error| format!("[{name}] writing results: {e}");
    write_waits(&files.waits, &waits_ns).map_err(io)?;
    let lines: Vec<String> = transcript.iter().map(TranscriptLine::render).collect();
    std::fs::write(&files.transcript, lines.join("\n")).map_err(io)?;
    if rec.enabled() {
        write_jsonl(&files.spans, rec.spans()).map_err(io)?;
    }
    std::fs::write(&files.result, Json::obj(result).render()).map_err(io)?;
    say(if clean_end {
        "done clean"
    } else {
        "done broken"
    });
    Ok(())
}

/// `--role nonshared`: the baseline the paper compares against — this
/// process owns a private loader over the same dataset and runs the same
/// step on every batch.
pub fn nonshared_main(args: &Args) -> Result<(), String> {
    let name = args.value("--name").ok_or("--name missing")?;
    let out_dir = PathBuf::from(args.value("--out-dir").ok_or("--out-dir missing")?);
    let workload = args
        .value("--workload")
        .and_then(workloads::find)
        .ok_or("--workload missing or unknown")?;
    let workload = match args.parsed("--batches-per-epoch")? {
        Some(batches) => workload.with_batches_per_epoch(batches),
        None => *workload,
    };
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed missing")?;
    let workers: usize = args.parsed("--workers")?.ok_or("--workers missing")?;
    let timed_epochs: u64 = args.parsed("--epochs")?.ok_or("--epochs missing")?;
    let files = ChildFiles::new(&out_dir, name);

    let loader = workload.loader(seed, workers);
    let mut timed = Timed::default();
    let mut acc = 0u64;
    for epoch in 0..=timed_epochs {
        if epoch == 1 {
            timed.start(now_ns());
        }
        for batch in loader.epoch(epoch) {
            acc ^= step(&batch.fields[0], &batch.labels);
            if epoch > 0 {
                timed.batches += 1;
                timed.samples += batch.batch_size() as u64;
            }
        }
        if epoch > 0 {
            timed.end_epoch();
        }
    }
    timed.pss_mib = pss_self_mib();
    std::hint::black_box(acc);
    std::fs::write(&files.result, Json::obj(timed.to_json()).render())
        .map_err(|e| format!("[{name}] writing results: {e}"))?;
    say("done");
    Ok(())
}
