//! Runs one workload: the driver process hosts the producer, fork/execs
//! the consumer processes, watches them against a deadline, and collects
//! what every party measured into a [`RunOutcome`].

use crate::child::{read_waits, ChildFiles};
use crate::procstat::{cpu_self, pss_self_mib, CpuMs};
use crate::trace::{block_pair_overheads, block_traced, read_jsonl, Recorder, Span, NO_BATCH};
use crate::util::{median, now_ns, percentile_sorted, quiet_high, quiet_low, Json};
use crate::workloads::{
    reference_transcript, transcript_mismatches, Kind, Sizing, TranscriptLine, Workload, CONSUMERS,
};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tensorsocket::{EpochSource, Producer, SampleGeometry};
use ts_data::{Batch, DataLoader};

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Run length the epoch counts are derived from.
    pub seconds: f64,
    /// Further shrink factor (`--check`: 0.05, the run under the allocator's
    /// defaults: 0.25).
    pub scale: f64,
    /// Bench-side spans on, for every other block of batches.
    pub traced: bool,
    /// Cold bring-ups measured for `setup_s` (the last one is the run's).
    pub setups: usize,
    /// Whether to run the non-shared phase after the shared one.
    pub nonshared: bool,
    pub work_root: PathBuf,
}

impl RunConfig {
    /// Batches per tracing block handed to the feeder wrapper and the
    /// consumers; 0 in an untraced run.
    fn trace_block(&self) -> u64 {
        if self.traced {
            self.workload.trace_block_len()
        } else {
            0
        }
    }
}

/// A pid-tagged directory under `--work-dir` holding one run's sockets,
/// arena, log, transcripts and span files; removed when dropped, on
/// success and on failure alike.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let path = root.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// The loader wrapper handed to `spawn()`
// ---------------------------------------------------------------------------

/// What the wrapper saw from inside the producer's feeder.
#[derive(Default)]
pub struct SourceProbe {
    pub batches: u64,
    pub decoded_bytes: u64,
    /// Time the feeder waited in the loader's `next()`, per batch, ns
    /// (timed epochs only).
    pub waits_ns: Vec<u64>,
    /// Producer-process PSS sampled at the last batch of the last epoch.
    pub pss_mib: f64,
    /// Producer-process CPU read when the feeder fetched the first batch
    /// of each timed epoch, and once more at the last batch of the last:
    /// consecutive readings bracket one epoch (a few batches ahead of the
    /// consumers, whom the feeder leads by its prefetch).
    pub cpu_marks: Vec<CpuMs>,
    pub spans: Vec<Span>,
}

/// The loader as the producer sees it: delegates everything, and times
/// how long the feeder waits for each batch.
struct ProbedSource {
    inner: DataLoader,
    last_epoch: u64,
    /// Batches per tracing block; 0 records no spans.
    trace_block: u64,
    probe: Arc<Mutex<SourceProbe>>,
}

impl EpochSource for ProbedSource {
    fn batches_per_epoch(&self) -> usize {
        self.inner.batches_per_epoch()
    }

    fn batch_size(&self) -> usize {
        EpochSource::batch_size(&self.inner)
    }

    fn epoch(&self, epoch: u64) -> Box<dyn Iterator<Item = Batch> + Send + '_> {
        let mut it = self.inner.epoch(epoch);
        let pid = std::process::id();
        Box::new(std::iter::from_fn(move || {
            let t0 = now_ns();
            let batch = it.next()?;
            let t1 = now_ns();
            let mut probe = self.probe.lock().expect("probe mutex poisoned");
            probe.batches += 1;
            probe.decoded_bytes += batch
                .fields
                .iter()
                .map(|f| f.view_bytes() as u64)
                .sum::<u64>();
            if epoch > 0 {
                probe.waits_ns.push(t1 - t0);
                if batch.index == 0 {
                    probe.cpu_marks.push(cpu_self());
                }
            }
            if block_traced(epoch, batch.index as u64, self.trace_block) {
                probe.spans.push(Span {
                    name: "source.next".into(),
                    start_ns: t0,
                    end_ns: t1,
                    parent: 0,
                    batch: (epoch, 0, batch.index as u64),
                    pid,
                    lane: "feeder".into(),
                });
            }
            if epoch == self.last_epoch && batch.last_in_epoch {
                probe.pss_mib = pss_self_mib();
                probe.cpu_marks.push(cpu_self());
            }
            Some(batch)
        }))
    }

    fn pipeline_hint(&self) -> (usize, usize) {
        self.inner.pipeline_hint()
    }

    fn sample_geometry(&self) -> Option<SampleGeometry> {
        EpochSource::sample_geometry(&self.inner)
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

/// What a child's stdout reader passes on: `(child index, line)`, and
/// `None` once when the pipe closes — the child has exited, cleanly or
/// not.
type ChildLine = (usize, Option<String>);

struct ChildProc {
    /// The index this child's lines carry, whatever its position in a list.
    index: usize,
    name: String,
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The child said `done` and its files are complete.
    done: bool,
    /// The child's stream ended on the producer's `End`.
    clean: bool,
}

impl ChildProc {
    /// Starts this binary again with `args`.
    fn spawn(
        index: usize,
        name: &str,
        args: &[String],
        tx: &Sender<ChildLine>,
    ) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        Self::spawn_exe(&exe, index, name, args, tx)
    }

    /// Starts `exe <args>` with stdout piped into `tx`, line by line.
    fn spawn_exe(
        exe: &Path,
        index: usize,
        name: &str,
        args: &[String],
        tx: &Sender<ChildLine>,
    ) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
            {
                if tx.send((index, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((index, None));
        });
        Ok(Self {
            index,
            name: name.to_string(),
            child,
            reader: Some(reader),
            done: false,
            clean: false,
        })
    }

    /// Kills the child if it still runs and reaps it and its reader.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }

    /// Takes one message from the child's reader: `done ...` marks it
    /// finished, and so does the end of its output — a child that exits
    /// without saying `done` (a connect error, a crash) is finished and
    /// broken, not something to wait out the deadline for. Returns the
    /// line if it was anything else.
    fn note(&mut self, line: Option<String>) -> Option<String> {
        match line {
            Some(line) => match line.strip_prefix("done") {
                Some(how) => {
                    self.done = true;
                    self.clean = how.trim() == "clean";
                    None
                }
                None => Some(line),
            },
            None => {
                self.done = true;
                None
            }
        }
    }

    /// Reaps a child expected to exit by itself, killing it at `deadline`.
    fn reap(&mut self, deadline: Instant) -> bool {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(r) = self.reader.take() {
                        let _ = r.join();
                    }
                    return status.success();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    self.stop();
                    return false;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// What one consumer (or non-shared trainer) process reported.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    pub timed_batches: u64,
    pub timed_samples: u64,
    /// Duration and CPU of each timed epoch.
    pub epoch_ns: Vec<u64>,
    pub epoch_cpu: Vec<CpuMs>,
    pub pss_mib: f64,
    pub batches: u64,
    pub errors: u64,
    pub clean_end: bool,
    pub arena_backed: u64,
    pub first_seq: Option<u64>,
    /// `connect()` start to the receipt of the batch that brings a late
    /// joiner level with the stream (`--join-target`).
    pub join_ns: Option<u64>,
    /// Traced runs: `(spans were on, duration)` of each block of timed
    /// batches, in stream order.
    pub blocks: Vec<(bool, u64)>,
}

impl ChildResult {
    fn load(files: &ChildFiles) -> Option<Self> {
        let v = Json::parse(&std::fs::read_to_string(&files.result).ok()?).ok()?;
        let u = |k: &str| v.get(k).and_then(Json::as_u64);
        let nums = |k: &str| -> Option<Vec<f64>> {
            v.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        let (user, sys) = (nums("epoch_cpu_user_ms")?, nums("epoch_cpu_sys_ms")?);
        let block_traced = v.get("block_traced").and_then(Json::as_arr).unwrap_or(&[]);
        let block_ns = v.get("block_ns").and_then(Json::as_arr).unwrap_or(&[]);
        Some(Self {
            timed_batches: u("timed_batches")?,
            timed_samples: u("timed_samples")?,
            epoch_ns: nums("epoch_ns")?.into_iter().map(|ns| ns as u64).collect(),
            epoch_cpu: user
                .into_iter()
                .zip(sys)
                .map(|(user, sys)| CpuMs { user, sys })
                .collect(),
            pss_mib: v.get("pss_mib").and_then(Json::as_f64)?,
            batches: u("batches").unwrap_or(0),
            errors: u("errors").unwrap_or(0),
            clean_end: v.get("clean_end") == Some(&Json::Bool(true)),
            arena_backed: u("arena_backed").unwrap_or(0),
            first_seq: u("first_seq"),
            join_ns: u("join_ns"),
            blocks: block_traced
                .iter()
                .zip(block_ns)
                .filter_map(|(on, ns)| Some((*on == Json::Bool(true), ns.as_u64()?)))
                .collect(),
        })
    }

    pub fn window_s(&self) -> f64 {
        self.epoch_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn cpu(&self) -> CpuMs {
        self.epoch_cpu
            .iter()
            .fold(CpuMs::default(), |acc, c| acc.plus(c))
    }

    /// Samples delivered in one timed epoch (all are the same size).
    pub fn samples_per_epoch(&self) -> f64 {
        self.timed_samples as f64 / self.epoch_ns.len().max(1) as f64
    }

    /// Upper quartile over the timed epochs of the epoch's delivered
    /// samples per second.
    pub fn samples_per_s(&self) -> f64 {
        let per_epoch = self.samples_per_epoch();
        let rates: Vec<f64> = self
            .epoch_ns
            .iter()
            .filter(|&&ns| ns > 0)
            .map(|&ns| per_epoch / (ns as f64 / 1e9))
            .collect();
        quiet_high(&rates)
    }
}

/// Everything one run of one workload measured.
#[derive(Default)]
pub struct RunOutcome {
    pub sizing: Sizing,
    /// The consumers attached from the start.
    pub consumers: Vec<ChildResult>,
    /// The late group (`logged_replay`).
    pub late: Option<ChildResult>,
    /// Timed `next()` waits of each consumer attached from the start, in
    /// stream order (same order as `consumers`).
    pub waits_ns: Vec<Vec<u64>>,
    pub setup_s: Vec<f64>,
    /// Producer-process CPU of each timed epoch.
    pub producer_epoch_cpu: Vec<CpuMs>,
    pub producer_pss_mib: f64,
    pub join_drain_ms: f64,
    pub slots_in_use_end: u64,
    pub publish_copy_bytes: u64,
    pub stream_tx_bytes: u64,
    pub log_append_bytes: u64,
    pub replays: u64,
    pub replayed_from_log: u64,
    pub publish_ack_p50_ns: u64,
    pub feeder_fetch_p50_ns: u64,
    pub source_batches: u64,
    pub source_decoded_bytes: u64,
    pub source_waits_sorted_ns: Vec<u64>,
    pub nonshared: Vec<ChildResult>,
    pub spans: Vec<Span>,
    /// Operations attempted: batches every consumer process should have
    /// received, plus the non-shared trainers' batches.
    pub attempted: u64,
    /// Operations failed: missing batches, checksum mismatches, consumer
    /// errors, unclean ends, leaked arena slots, broken invariants.
    pub failed: u64,
    /// Human-readable reasons behind `failed`.
    pub notes: Vec<String>,
}

impl RunOutcome {
    fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(why);
        }
    }

    /// Mean over the consumers attached from the start of each one's
    /// upper-quartile-epoch delivered samples per second.
    pub fn samples_per_s(&self) -> f64 {
        mean(self.consumers.iter().map(ChildResult::samples_per_s))
    }

    pub fn nonshared_samples_per_s(&self) -> f64 {
        mean(self.nonshared.iter().map(ChildResult::samples_per_s))
    }

    pub fn stream_timed_batches(&self) -> u64 {
        self.consumers
            .iter()
            .map(|c| c.timed_batches)
            .max()
            .unwrap_or(0)
    }

    /// CPU of the producer process over the timed epochs.
    pub fn producer_cpu(&self) -> CpuMs {
        self.producer_epoch_cpu
            .iter()
            .fold(CpuMs::default(), |acc, c| acc.plus(c))
    }

    /// CPU of the consumers attached from the start over the timed epochs.
    pub fn consumer_cpu(&self) -> CpuMs {
        self.consumers
            .iter()
            .fold(CpuMs::default(), |acc, c| acc.plus(&c.cpu()))
    }

    /// Lower quartile over the timed epochs of the CPU the producer and
    /// the consumers attached from the start used in that epoch, per
    /// thousand samples of the stream counted once.
    pub fn cpu_ms_per_ksample(&self) -> f64 {
        let Some(first) = self.consumers.first() else {
            return 0.0;
        };
        let ksamples = first.samples_per_epoch() / 1e3;
        let per_epoch: Vec<f64> = (0..first.epoch_ns.len())
            .map(|e| {
                let consumers: f64 = self
                    .consumers
                    .iter()
                    .filter_map(|c| c.epoch_cpu.get(e))
                    .map(CpuMs::total)
                    .sum();
                let producer = self.producer_epoch_cpu.get(e).map_or(0.0, CpuMs::total);
                (producer + consumers) / ksamples
            })
            .collect();
        quiet_low(&per_epoch)
    }

    /// Lower quartile over the timed epochs of percentile `q` of that epoch's
    /// `next()` waits, consumers attached from the start pooled; with the
    /// number of waits one epoch pools.
    pub fn wait_percentile_us(&self, q: f64) -> (f64, usize) {
        let epochs = self.consumers.first().map_or(0, |c| c.epoch_ns.len());
        let mut pooled_per_epoch = 0;
        let per_epoch: Vec<f64> = (0..epochs)
            .map(|e| {
                let mut pooled: Vec<u64> = self
                    .waits_ns
                    .iter()
                    .flat_map(|w| {
                        let n = w.len() / epochs.max(1);
                        w.get(e * n..(e + 1) * n).unwrap_or(&[]).iter().copied()
                    })
                    .collect();
                pooled.sort_unstable();
                pooled_per_epoch = pooled.len();
                percentile_sorted(&pooled, q) as f64 / 1e3
            })
            .collect();
        (quiet_low(&per_epoch), pooled_per_epoch)
    }

    /// Samples per second at which a joiner is served what it missed. With
    /// a log: the late group's batches off the log over the time from the
    /// start of its `connect()` to the receipt of the last of them.
    /// Without one nothing is missed — both consumers are attached before
    /// the stream is under way — and a joiner is served at the live rate.
    pub fn replay_samples_per_s(&self, w: &Workload) -> f64 {
        if w.kind != Kind::LoggedReplay {
            return self.samples_per_s();
        }
        let samples = (self.sizing.late_replay_batches * w.batch_size as u64) as f64;
        match self.late.as_ref().and_then(|late| late.join_ns) {
            Some(ns) if ns > 0 => samples / (ns as f64 / 1e9),
            _ => 0.0,
        }
    }

    /// Traced runs: the tracing overhead of every adjacent pair of one
    /// traced and one untraced block, consumers attached from the start
    /// pooled.
    pub fn trace_pair_overheads(&self) -> Vec<f64> {
        self.consumers
            .iter()
            .flat_map(|c| block_pair_overheads(&c.blocks))
            .collect()
    }

    /// Traced runs: median duration of the blocks with spans on (`true`)
    /// or off, consumers attached from the start pooled, in nanoseconds.
    pub fn block_median_ns(&self, traced: bool) -> f64 {
        let ns: Vec<f64> = self
            .consumers
            .iter()
            .flat_map(|c| &c.blocks)
            .filter(|b| b.0 == traced)
            .map(|b| b.1 as f64)
            .collect();
        median(&ns)
    }

    /// PSS of every process — the late group included — each sampled at
    /// its last timed batch.
    pub fn mem_pss_mib(&self) -> f64 {
        self.producer_pss_mib
            + self
                .consumers
                .iter()
                .chain(self.late.iter())
                .map(|c| c.pss_mib)
                .sum::<f64>()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

// ---------------------------------------------------------------------------
// Bring-up and run
// ---------------------------------------------------------------------------

struct Session {
    producer: Producer,
    probe: Arc<Mutex<SourceProbe>>,
    children: Vec<ChildProc>,
    rx: Receiver<ChildLine>,
    tx: Sender<ChildLine>,
    endpoint: String,
    /// Producer spawn to the last consumer's first batch.
    setup_s: f64,
}

impl Session {
    /// Tears a session down without waiting for its stream to finish.
    fn abandon(mut self) {
        for c in &mut self.children {
            c.stop();
        }
        self.producer.abort();
        let _ = self.producer.join();
    }
}

fn consumer_args(
    cfg: &RunConfig,
    endpoint: &str,
    dir: &Path,
    name: &str,
    last_epoch: u64,
    extra: &[&str],
) -> Vec<String> {
    let mut args: Vec<String> = [
        "--role",
        "consumer",
        "--name",
        name,
        "--endpoint",
        endpoint,
        "--out-dir",
        &dir.display().to_string(),
        "--last-epoch",
        &last_epoch.to_string(),
        "--trace-block",
        &cfg.trace_block().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if cfg.workload.kind == Kind::StreamedBytes {
        args.extend(["--mode".to_string(), "stream".to_string()]);
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Consumers attached from the start: the late group joins later.
fn initial_consumers(w: &Workload) -> usize {
    match w.kind {
        Kind::LoggedReplay => 1,
        _ => CONSUMERS,
    }
}

/// One cold bring-up: spawn the producer (arena created, loader workers
/// started), fork the consumers, and wait until the last of them holds
/// its first batch. `probe_only` consumers leave right after it.
fn bring_up(
    cfg: &RunConfig,
    dir: &Path,
    loader: DataLoader,
    total_epochs: u64,
    launch_late_at: u64,
    probe_only: bool,
    rec: &mut Recorder,
) -> Result<Session, String> {
    let w = cfg.workload;
    let endpoint = format!("ipc://{}", dir.join("p.sock").display());
    let probe = Arc::new(Mutex::new(SourceProbe::default()));
    let source = ProbedSource {
        inner: loader,
        last_epoch: total_epochs - 1,
        trace_block: if probe_only { 0 } else { cfg.trace_block() },
        probe: probe.clone(),
    };
    let parent = rec.current();
    let t0 = now_ns();
    let builder = Producer::builder()
        .endpoint(endpoint.as_str())
        .epochs(total_epochs);
    let builder = if w.kind == Kind::LoggedReplay {
        // One consumer attaches at the start, so the join window stays at
        // its default: the late group is parked until the next epoch
        // boundary and everything before it comes off the log. (With the
        // window held open over a logged epoch, a replayed pointer
        // announce can race the pin shedding and wedge the stream.) A
        // batch's slots are held until the spiller has logged it, so the
        // arena gets an epoch of slack instead of the auto-sized window.
        let slots = 2 * (w.batches_per_epoch + 16);
        builder.log(dir.join("log")).arena_sized(
            dir.join("p.arena"),
            slots,
            w.batch_bytes().next_multiple_of(4096),
        )
    } else {
        // Both consumers attach inside epoch 0 wherever they land in it.
        builder.arena(dir.join("p.arena")).rubberband_cutoff(1.0)
    };
    let producer = builder
        .spawn(source)
        .map_err(|e| format!("spawn producer: {e}"))?;
    let t_spawned = now_ns();
    rec.record("spawn_producer", t0, t_spawned, parent, NO_BATCH);

    let (tx, rx) = channel();
    let mut session = Session {
        producer,
        probe,
        children: Vec::new(),
        rx,
        tx,
        endpoint,
        setup_s: 0.0,
    };
    for i in 0..initial_consumers(&w) {
        let name = format!("c{i}");
        let notify = launch_late_at.to_string();
        let extra: &[&str] = if probe_only {
            &["--probe"]
        } else if w.kind == Kind::LoggedReplay {
            &["--notify-at", &notify]
        } else {
            &[]
        };
        let args = consumer_args(cfg, &session.endpoint, dir, &name, total_epochs - 1, extra);
        match ChildProc::spawn(i, &name, &args, &session.tx) {
            Ok(c) => session.children.push(c),
            Err(e) => {
                session.abandon();
                return Err(e);
            }
        }
    }
    rec.record("fork_consumers", t_spawned, now_ns(), parent, NO_BATCH);

    // Handshake + first batch, per consumer.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut first_ns: Vec<Option<u64>> = vec![None; session.children.len()];
    while first_ns.iter().any(Option::is_none) {
        let left = deadline.saturating_duration_since(Instant::now());
        match session.rx.recv_timeout(left) {
            Ok((i, Some(line))) => {
                if let Some(ns) = line.strip_prefix("first ").and_then(|v| v.parse().ok()) {
                    first_ns[i] = Some(ns);
                }
            }
            // A probe-only consumer leaves right after its first batch.
            Ok((i, None)) if first_ns[i].is_some() => {}
            Ok((_, None)) | Err(_) => {
                session.abandon();
                return Err("a consumer never received its first batch".into());
            }
        }
    }
    let last_first = first_ns.iter().flatten().copied().max().unwrap_or(t0);
    session.setup_s = last_first.saturating_sub(t0) as f64 / 1e9;
    Ok(session)
}

fn load_transcript(path: &Path) -> Vec<TranscriptLine> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().filter_map(TranscriptLine::parse).collect())
        .unwrap_or_default()
}

/// Runs the workload once. Never panics on a misbehaving stream: every
/// shortfall lands in `failed` with a note, and a blown deadline kills
/// the children and reports the rest of the stream as failed.
pub fn run(cfg: &RunConfig) -> Result<RunOutcome, String> {
    let w = cfg.workload;
    let sizing = w.sizing(cfg.seconds, cfg.scale);
    let total_epochs = 1 + sizing.timed_epochs;
    let bpe = w.batches_per_epoch as u64;
    let mut out = RunOutcome {
        sizing,
        ..Default::default()
    };
    let mut rec = Recorder::new(cfg.traced, "driver");
    let reference = reference_transcript(&w.loader(cfg.seed, 0));

    // --- cold bring-ups; the last one carries the run ---------------------
    let mut live: Option<(Session, WorkDir)> = None;
    let setups = cfg.setups.max(1);
    for round in 0..setups {
        let is_run = round + 1 == setups;
        let dir = WorkDir::create(&cfg.work_root, &format!("{}-{round}", w.name))?;
        let loader = w.loader(cfg.seed, w.workers);
        let epochs = if is_run { total_epochs } else { 2 };
        let session = rec.scope("setup", |rec| {
            bring_up(
                cfg,
                dir.path(),
                loader,
                epochs,
                sizing.late_launch_batches,
                !is_run,
                rec,
            )
        })?;
        out.setup_s.push(session.setup_s);
        if is_run {
            live = Some((session, dir));
        } else {
            session.abandon();
        }
    }
    let (mut session, dir) = live.expect("the last bring-up is the run");

    // --- the stream, against a deadline -----------------------------------
    // Three times the calibrated run length (plus slack for tiny runs).
    let deadline = Instant::now() + Duration::from_secs_f64(3.0 * cfg.seconds * cfg.scale + 20.0);
    let mut late_launched = false;
    let mut timed_out = false;
    while session.children.iter().any(|c| !c.done) {
        let left = deadline.saturating_duration_since(Instant::now());
        match session.rx.recv_timeout(left) {
            Ok((i, line)) => {
                let line = session
                    .children
                    .iter_mut()
                    .find(|c| c.index == i)
                    .and_then(|c| c.note(line));
                let progress = line
                    .as_deref()
                    .and_then(|l| l.strip_prefix("progress "))
                    .and_then(|v| v.parse::<u64>().ok());
                let due = w.kind == Kind::LoggedReplay
                    && !late_launched
                    && i == 0
                    && progress.is_some_and(|n| n >= sizing.late_launch_batches);
                if due {
                    late_launched = true;
                    let target = sizing.late_replay_batches.to_string();
                    let args = consumer_args(
                        cfg,
                        &session.endpoint,
                        dir.path(),
                        "late",
                        total_epochs - 1,
                        &["--group", "late", "--join-target", &target],
                    );
                    let index = session.children.len();
                    match ChildProc::spawn(index, "late", &args, &session.tx) {
                        Ok(c) => session.children.push(c),
                        Err(e) => out.fail(1, e),
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                timed_out = true;
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let reap_by = Instant::now() + Duration::from_secs(5);
    for c in &mut session.children {
        if timed_out || !c.done {
            c.stop();
        } else if !c.reap(reap_by) {
            out.notes.push(format!("{} exited abnormally", c.name));
        }
    }
    if timed_out {
        out.notes
            .push(format!("{}: deadline passed, children killed", w.name));
        session.producer.abort();
    }

    // --- producer teardown -------------------------------------------------
    let Session {
        producer,
        probe,
        children,
        ..
    } = session;
    let ctx = producer.context().clone();
    let arena = producer.arena().cloned();
    // A consumer that did not see `End` means the producer may still be
    // waiting on a window nobody will advance: stop it rather than join
    // forever, and bound the join itself either way.
    if children.iter().any(|c| !c.clean) {
        producer.abort();
    }
    let t_join = now_ns();
    let (join_tx, join_rx) = channel();
    std::thread::spawn(move || {
        let _ = join_tx.send(producer.join());
    });
    let joined = join_rx.recv_timeout(Duration::from_secs(15));
    let t_joined = now_ns();
    rec.record("join", t_join, t_joined, 0, NO_BATCH);
    out.join_drain_ms = (t_joined - t_join) as f64 / 1e6;
    out.replays = match joined {
        Ok(Ok(stats)) => stats.batches_replayed,
        Ok(Err(e)) => {
            out.fail(1, format!("producer join: {e}"));
            0
        }
        Err(_) => {
            out.fail(
                1,
                "producer join timed out (wedged producer left behind)".into(),
            );
            0
        }
    };
    out.slots_in_use_end = arena.as_ref().map_or(0, |a| a.slots_in_use() as u64);
    drop(arena);
    let counter = |name: &str| ctx.metrics.counter(name).get();
    out.publish_copy_bytes = counter("stage.publish_copy_bytes");
    out.stream_tx_bytes = counter("stage.stream_tx_bytes");
    out.log_append_bytes = counter("stage.log_append_bytes");
    out.replayed_from_log = counter("replay.log_batches");
    out.publish_ack_p50_ns = ctx
        .metrics
        .histogram("stage.publish_ack_ns")
        .snapshot()
        .p50();
    out.feeder_fetch_p50_ns = ctx
        .metrics
        .histogram("stage.feeder_fetch_ns")
        .snapshot()
        .p50();
    {
        let mut p = probe.lock().expect("probe mutex poisoned");
        out.source_batches = p.batches;
        out.source_decoded_bytes = p.decoded_bytes;
        out.producer_pss_mib = p.pss_mib;
        out.producer_epoch_cpu = p.cpu_marks.windows(2).map(|w| w[1].since(&w[0])).collect();
        out.source_waits_sorted_ns = std::mem::take(&mut p.waits_ns);
        out.source_waits_sorted_ns.sort_unstable();
        out.spans.append(&mut p.spans);
    }

    // --- what the consumers left behind ------------------------------------
    let expected = total_epochs * bpe;
    for c in &children {
        let files = ChildFiles::new(dir.path(), &c.name);
        out.attempted += expected;
        let Some(result) = ChildResult::load(&files) else {
            out.fail(
                expected,
                format!("{}: no result (killed or crashed)", c.name),
            );
            continue;
        };
        out.fail(
            expected.saturating_sub(result.batches),
            format!("{}: {} of {expected} batches", c.name, result.batches),
        );
        out.fail(result.errors, format!("{}: stream errors", c.name));
        out.fail(
            u64::from(!result.clean_end),
            format!("{}: did not stop on End", c.name),
        );
        out.fail(
            transcript_mismatches(&reference, &load_transcript(&files.transcript)),
            format!("{}: warm-up transcript differs from the reference", c.name),
        );
        if cfg.traced {
            match read_jsonl(&files.spans) {
                Ok(mut s) => out.spans.append(&mut s),
                Err(e) => out.notes.push(e),
            }
        }
        if c.name == "late" {
            out.fail(
                u64::from(result.first_seq != Some(0)),
                format!("late group started at seq {:?}, not 0", result.first_seq),
            );
            out.late = Some(result);
        } else {
            if w.kind != Kind::StreamedBytes {
                out.fail(
                    result.batches - result.arena_backed.min(result.batches),
                    format!("{}: batches not arena-backed", c.name),
                );
            }
            out.waits_ns.push(read_waits(&files.waits));
            out.consumers.push(result);
        }
    }
    if w.kind == Kind::LoggedReplay && out.late.is_none() {
        out.attempted += expected;
        out.fail(expected, "late group never launched".into());
    }
    out.fail(
        out.slots_in_use_end,
        "arena slots still in use after join()".into(),
    );
    if w.kind != Kind::StreamedBytes {
        out.fail(
            u64::from(out.publish_copy_bytes > 0),
            format!("publish loop copied {} bytes", out.publish_copy_bytes),
        );
    }

    // --- the non-shared baseline: private loaders, same worker budget ------
    if cfg.nonshared && !timed_out {
        run_nonshared(cfg, &sizing, dir.path(), &mut out);
    }
    out.spans.extend(rec.into_spans());
    Ok(out)
}

/// Trainer processes the non-shared phase starts one pair after another.
/// Identical trainers run up to a fifth apart on this kind of machine
/// depending on where a process lands (each steady within itself), so the
/// phase's rate is the mean over three pairs, not the luck of one.
const NONSHARED_ROUNDS: u64 = 3;

/// Pairs of processes, each iterating a private loader over the same
/// dataset with its share of the shared producer's worker budget.
fn run_nonshared(cfg: &RunConfig, sizing: &Sizing, dir: &Path, out: &mut RunOutcome) {
    let w = cfg.workload;
    // The shared producer's worker budget split among the trainers; with
    // nothing left to split, each trainer loads on its own thread.
    let workers = w.workers / CONSUMERS;
    let epochs = sizing.nonshared_epochs.div_ceil(NONSHARED_ROUNDS);
    let expected = epochs * w.batches_per_epoch as u64;
    for round in 0..NONSHARED_ROUNDS {
        let (tx, rx) = channel();
        let mut procs = Vec::new();
        for i in 0..CONSUMERS {
            let name = format!("n{round}-{i}");
            let args: Vec<String> = [
                "--role",
                "nonshared",
                "--name",
                &name,
                "--out-dir",
                &dir.display().to_string(),
                "--workload",
                w.name,
                "--seed",
                &cfg.seed.to_string(),
                "--workers",
                &workers.to_string(),
                "--epochs",
                &epochs.to_string(),
                "--batches-per-epoch",
                &w.batches_per_epoch.to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            match ChildProc::spawn(i, &name, &args, &tx) {
                Ok(c) => procs.push(c),
                Err(e) => out.fail(1, e),
            }
        }
        let deadline =
            Instant::now() + Duration::from_secs_f64(3.0 * cfg.seconds * cfg.scale + 20.0);
        while procs.iter().any(|c| !c.done) {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((i, line)) => {
                    if let Some(c) = procs.iter_mut().find(|c| c.index == i) {
                        c.note(line);
                    }
                }
                Err(_) => break,
            }
        }
        for c in &mut procs {
            out.attempted += expected;
            if c.done && c.reap(Instant::now() + Duration::from_secs(5)) {
                match ChildResult::load(&ChildFiles::new(dir, &c.name)) {
                    Some(r) => {
                        out.fail(
                            expected.saturating_sub(r.timed_batches),
                            format!("{}: {} of {expected} batches", c.name, r.timed_batches),
                        );
                        out.nonshared.push(r);
                    }
                    None => out.fail(expected, format!("{}: no result", c.name)),
                }
            } else {
                c.stop();
                out.fail(
                    expected,
                    format!("{}: crashed, or killed at the deadline", c.name),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_that_exits_without_done_is_finished_and_broken() {
        let (tx, rx) = channel();
        let script = |s: &str| vec!["-c".to_string(), s.to_string()];
        let sh = Path::new("/bin/sh");
        // index 7 on purpose: lines carry the index, not a list position
        let mut crashed =
            ChildProc::spawn_exe(sh, 7, "crashed", &script("echo progress 5; exit 2"), &tx)
                .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            (7, Some("progress 5".to_string()))
        );
        let (i, end) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((i, &end), (7, &None), "the closed pipe is reported once");
        assert_eq!(
            crashed.note(Some("progress 5".into())).as_deref(),
            Some("progress 5")
        );
        assert!(!crashed.done);
        assert_eq!(crashed.note(end), None);
        assert!(crashed.done && !crashed.clean);
        assert!(!crashed.reap(Instant::now() + Duration::from_secs(5)));

        let mut fine =
            ChildProc::spawn_exe(sh, 0, "fine", &script("echo done clean"), &tx).unwrap();
        let (_, line) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(fine.note(line), None);
        assert!(fine.done && fine.clean);
        let (_, end) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        fine.note(end);
        assert!(fine.clean, "the end of output after `done` changes nothing");
        assert!(fine.reap(Instant::now() + Duration::from_secs(5)));
    }
}
