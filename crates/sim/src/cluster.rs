//! The cluster world: loader pipelines, trainers, and the four data-loading
//! disciplines of the paper's evaluation.
//!
//! One [`SimConfig`] describes a node (CPU pool, GPUs, disk), a set of
//! training processes, a loader cost profile, and a [`Strategy`]:
//!
//! * [`Strategy::NonShared`] — the conventional baseline of Figure 2a: one
//!   loader per training process, the worker budget split across them;
//! * [`Strategy::TensorSocket`] — one producer with the full worker budget;
//!   consumers receive *pointers*; data crosses PCIe once and fans out over
//!   NVLink; the publish window and release are the very
//!   [`tensorsocket::Cursors`] the threaded runtime runs;
//! * [`Strategy::CoorDL`] — coordinated loading in rigid lockstep
//!   (window = 1) with per-consumer CPU distribution work and per-consumer
//!   PCIe delivery (CoorDL cannot use NVLink fan-out or collocate on one
//!   GPU);
//! * [`Strategy::Joader`] — a shared loading server whose per-sample CPU
//!   cost grows with the number of jobs (dependent-sampling intersections
//!   + per-job delivery), plus a consumer-side tensor-conversion stage.
//!
//! The simulation is event-driven over virtual time and fully
//! deterministic; a full experiment runs in milliseconds.

use crate::des::{Scheduler, Time, FOREVER};
use crate::ps::{PsResource, Sharing};
use tensorsocket::protocol::cursors::Cursors;

/// GPU collocation primitive (§4.1): MPS shares SMs cleanly; multi-streams
/// pay a context penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuSharing {
    /// NVIDIA Multi-Process Service: fair SM sharing.
    Mps,
    /// Multi-stream sharing with a per-extra-process efficiency penalty.
    Streams {
        /// Penalty per extra collocated process (e.g. `0.08`).
        penalty: f64,
    },
}

/// One GPU in the simulated node.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Throughput relative to an A100 (H100 ≈ 2.0, A10G ≈ 0.4).
    pub relative_throughput: f64,
    /// VRAM capacity in bytes.
    pub vram_bytes: u64,
}

/// The simulated node.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Display name.
    pub name: String,
    /// CPU cores available to loading and training.
    pub vcpus: f64,
    /// GPUs.
    pub gpus: Vec<GpuConfig>,
    /// Collocation primitive for processes sharing one GPU.
    pub gpu_sharing: GpuSharing,
    /// Sequential read bandwidth of storage, bytes/s.
    pub disk_read_bps: f64,
    /// Whether GPUs are NVLink-connected (A100 server: yes; g5: n/a).
    pub nvlink: bool,
}

impl ClusterSpec {
    /// Builds a simulator spec from a `ts-device` server description.
    pub fn from_server(s: &ts_device::ServerSpec) -> Self {
        Self {
            name: s.name.to_string(),
            vcpus: s.vcpus as f64,
            gpus: (0..s.gpu_count)
                .map(|_| GpuConfig {
                    relative_throughput: s.gpu.relative_throughput,
                    vram_bytes: s.gpu.vram_bytes,
                })
                .collect(),
            gpu_sharing: GpuSharing::Mps,
            disk_read_bps: s.disk_read_bps,
            nvlink: s.gpu.has_nvlink && s.gpu_count > 1,
        }
    }
}

/// One training process.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Display name (model).
    pub name: String,
    /// GPU index the process trains on.
    pub gpu: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// GPU time per sample in milliseconds on an A100-class GPU
    /// (scaled by the GPU's `relative_throughput`).
    pub gpu_ms_per_sample: f64,
    /// Serial host-side CPU stage per sample before the GPU step
    /// (e.g. Joader's NumPy→tensor conversion).
    pub pre_gpu_cpu_ms_per_sample: f64,
    /// Static VRAM for weights/activations.
    pub model_vram: u64,
    /// Extra PCIe bytes per sample unrelated to data loading (gradient
    /// all-reduce etc.; reproduces Table 4's 48 MB/s rows).
    pub extra_pcie_bytes_per_sample: u64,
    /// Relative batch-to-batch jitter of the GPU step time in `[0, 1)`:
    /// each step's work is scaled by a deterministic pseudo-random factor
    /// in `[1-jitter, 1+jitter]`. Real training fluctuates ("a training
    /// process falling behind during a batch", §3.1); this is what the
    /// consumer batch buffer absorbs.
    pub gpu_jitter_frac: f64,
}

impl WorkloadSpec {
    /// A simple workload on `gpu` with the given costs.
    pub fn new(name: &str, gpu: usize, batch_size: usize, gpu_ms_per_sample: f64) -> Self {
        Self {
            name: name.to_string(),
            gpu,
            batch_size,
            gpu_ms_per_sample,
            pre_gpu_cpu_ms_per_sample: 0.0,
            model_vram: 6_000_000_000,
            extra_pcie_bytes_per_sample: 0,
            gpu_jitter_frac: 0.0,
        }
    }
}

/// Loader cost profile (per dataset).
#[derive(Debug, Clone)]
pub struct LoaderSpec {
    /// Pre-processing CPU per sample (decode + augment), milliseconds.
    pub cpu_ms_per_sample: f64,
    /// Encoded bytes read from storage per sample.
    pub disk_bytes_per_sample: u64,
    /// Decoded bytes shipped host→device per sample.
    pub h2d_bytes_per_sample: u64,
    /// Total data-loading worker budget on the node.
    pub num_workers: usize,
    /// Prefetch queue capacity per loader, in batches.
    pub prefetch_batches: usize,
}

/// The data-loading discipline.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// One loader per training process; workers split across them.
    NonShared,
    /// One shared TensorSocket producer.
    TensorSocket {
        /// Consumer batch buffer N (paper default 2).
        buffer: usize,
        /// GPU the producer stages batches on.
        producer_gpu: usize,
        /// Producer-side GPU work per sample (e.g. frozen CLIP inference
        /// for DALL-E, Figure 7/12), milliseconds on an A100-class GPU.
        producer_gpu_ms_per_sample: f64,
        /// Producer CPU overhead per batch per consumer (ack handling,
        /// payload packing), milliseconds.
        producer_cpu_ms_per_batch_per_consumer: f64,
        /// Serial per-batch publish latency in milliseconds (payload
        /// packing + socket hop + host→device transfer issue). This is the
        /// latency the batch buffer exists to hide (§3.2.5): with N = 1 it
        /// lands on the critical path; with N ≥ 2 prefetch overlaps it
        /// with training.
        publish_latency_ms: f64,
    },
    /// CoorDL-like coordination.
    CoorDL {
        /// CPU cost of distributing one sample to one consumer, ms.
        dist_cpu_ms_per_sample_per_consumer: f64,
    },
    /// Joader-like shared server with dependent sampling.
    Joader {
        /// Server-side CPU per sample *per job* (intersection computation
        /// and per-job delivery), milliseconds.
        server_cpu_ms_per_sample_per_job: f64,
        /// Consumer-side tensor-conversion CPU per sample, milliseconds.
        convert_cpu_ms_per_sample: f64,
    },
}

impl Strategy {
    /// Convenience: TensorSocket with paper defaults on GPU 0.
    pub fn tensorsocket() -> Self {
        Strategy::TensorSocket {
            buffer: 2,
            producer_gpu: 0,
            producer_gpu_ms_per_sample: 0.0,
            producer_cpu_ms_per_batch_per_consumer: 0.05,
            publish_latency_ms: 1.0,
        }
    }

    /// True for strategies with one shared loader.
    pub fn is_shared(&self) -> bool {
        !matches!(self, Strategy::NonShared)
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The node.
    pub cluster: ClusterSpec,
    /// Loader cost profile.
    pub loader: LoaderSpec,
    /// Training processes.
    pub trainers: Vec<WorkloadSpec>,
    /// Data-loading discipline.
    pub strategy: Strategy,
    /// Samples each trainer must consume before the run ends.
    pub samples_per_trainer: u64,
    /// Hard stop in simulated seconds.
    pub max_sim_seconds: f64,
    /// Time-series sampling interval in seconds (0 disables).
    pub series_interval_s: f64,
    /// Per-process CUDA context VRAM.
    pub cuda_context_bytes: u64,
}

impl SimConfig {
    /// Sensible defaults around a cluster + workloads + strategy.
    pub fn new(
        cluster: ClusterSpec,
        loader: LoaderSpec,
        trainers: Vec<WorkloadSpec>,
        strategy: Strategy,
    ) -> Self {
        Self {
            cluster,
            loader,
            trainers,
            strategy,
            samples_per_trainer: 50_000,
            max_sim_seconds: 36_000.0,
            series_interval_s: 0.0,
            cuda_context_bytes: 500_000_000,
        }
    }
}

/// Per-trainer outcome.
#[derive(Debug, Clone)]
pub struct TrainerResult {
    /// Workload name.
    pub name: String,
    /// GPU trained on.
    pub gpu: usize,
    /// Samples consumed.
    pub samples: u64,
    /// Mean training throughput.
    pub samples_per_s: f64,
    /// Cumulative samples over time, `(seconds, samples)`.
    pub series: Vec<(f64, f64)>,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall-clock (virtual) duration in seconds.
    pub duration_s: f64,
    /// True when every trainer hit its sample target before the time cap.
    pub completed: bool,
    /// Per-trainer results.
    pub trainers: Vec<TrainerResult>,
    /// Mean busy CPU cores.
    pub cpu_busy_cores: f64,
    /// Mean CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Mean per-GPU utilization in `[0, 1]`.
    pub gpu_util: Vec<f64>,
    /// Total bytes read from storage.
    pub disk_bytes: u64,
    /// Average disk read rate, bytes/s.
    pub disk_bps: f64,
    /// Average PCIe rate per GPU, bytes/s.
    pub pcie_bps: Vec<f64>,
    /// Average NVLink rate per GPU (receive side), bytes/s.
    pub nvlink_bps: Vec<f64>,
    /// Peak VRAM per GPU, bytes.
    pub vram_peak: Vec<u64>,
    /// Whether any GPU exceeded its VRAM capacity.
    pub vram_exceeded: bool,
}

impl SimResult {
    /// Sum of per-trainer throughputs.
    pub fn aggregate_samples_per_s(&self) -> f64 {
        self.trainers.iter().map(|t| t.samples_per_s).sum()
    }

    /// Mean of per-trainer throughputs.
    pub fn mean_samples_per_s(&self) -> f64 {
        if self.trainers.is_empty() {
            return 0.0;
        }
        self.aggregate_samples_per_s() / self.trainers.len() as f64
    }
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    CpuTick,
    DiskTick,
    GpuTick(usize),
    /// The producer's serial publish stage finished.
    PublishDone,
    Series,
}

#[derive(Debug, Clone, Copy)]
enum CpuTag {
    /// Loader worker finished pre-processing one batch.
    WorkerPre { loader: usize, worker: usize },
    /// Trainer finished its serial host stage; GPU step next.
    TrainerPre { t: usize },
    /// CoorDL distribution of a batch to consumer `t` completed.
    Dist { t: usize },
    /// Fire-and-forget overhead (producer ack handling).
    Overhead,
}

#[derive(Debug, Clone, Copy)]
enum DiskTag {
    WorkerRead { loader: usize, worker: usize },
}

#[derive(Debug, Clone, Copy)]
enum GpuTag {
    Step { t: usize },
    ProducerStage,
}

#[derive(Debug)]
struct LoaderRt {
    /// Batches still to generate.
    to_produce: u64,
    /// Batch size this loader produces.
    batch_size: usize,
    /// Effective CPU ms per sample (strategy-adjusted).
    cpu_ms_per_sample: f64,
    /// Ready batches.
    queue: usize,
    queue_cap: usize,
    /// Workers holding a finished batch because the queue is full.
    blocked: Vec<usize>,
    num_workers: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrainerState {
    /// Waiting for a batch from its source.
    Waiting,
    /// Running the serial host stage.
    HostStage,
    /// Running the GPU step.
    Step,
    /// Consumed its sample target.
    Done,
}

#[derive(Debug)]
struct TrainerRt {
    state: TrainerState,
    batches_done: u64,
    target_batches: u64,
    samples: u64,
    /// Next global seq to ack (shared strategies).
    next_ack: u64,
    /// When this trainer hit its sample target.
    finished_at: Option<Time>,
    series: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProducerState {
    Idle,
    GpuStage,
    Publishing,
}

struct Hub {
    cursors: Cursors,
    /// Delivered-but-unconsumed batches per consumer.
    ports: Vec<u64>,
    producer_state: ProducerState,
    published: u64,
    to_publish: u64,
    /// VRAM bytes held per published-but-unreleased batch (producer GPU).
    batch_bytes: u64,
}

/// The simulation world.
struct World {
    cfg: SimConfig,
    sched: Scheduler<Ev>,
    cpu: PsResource<CpuTag>,
    disk: PsResource<DiskTag>,
    gpus: Vec<PsResource<GpuTag>>,
    loaders: Vec<LoaderRt>,
    trainers: Vec<TrainerRt>,
    hub: Option<Hub>,
    // traffic + memory books
    disk_bytes: u64,
    pcie_bytes: Vec<u64>,
    nvlink_bytes: Vec<u64>,
    vram_now: Vec<u64>,
    vram_peak: Vec<u64>,
    // tick tokens per resource
    cpu_token: Option<u64>,
    disk_token: Option<u64>,
    gpu_tokens: Vec<Option<u64>>,
    end_time: Option<Time>,
}

/// Runs a configuration to completion (or the time cap) and reports.
pub fn run(cfg: SimConfig) -> SimResult {
    World::new(cfg).run()
}

/// Deterministic hash of `(a, b)` mapped to `[0, 1)`.
fn unit_hash(a: u64, b: u64) -> f64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b.wrapping_mul(0xD1B54A32D192ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl World {
    fn new(cfg: SimConfig) -> Self {
        let n = cfg.trainers.len();
        assert!(n > 0, "at least one trainer");
        for t in &cfg.trainers {
            assert!(
                t.gpu < cfg.cluster.gpus.len(),
                "trainer {} on missing GPU {}",
                t.name,
                t.gpu
            );
        }
        let sharing = match cfg.cluster.gpu_sharing {
            GpuSharing::Mps => Sharing::Fair,
            GpuSharing::Streams { penalty } => Sharing::Penalized { penalty },
        };
        let gpus: Vec<PsResource<GpuTag>> = cfg
            .cluster
            .gpus
            .iter()
            .enumerate()
            .map(|(i, _)| PsResource::new(format!("gpu{i}"), 1.0, sharing))
            .collect();
        let cpu = PsResource::new("cpu", cfg.cluster.vcpus, Sharing::Fair);
        let disk = PsResource::new("disk", 1.0, Sharing::Fair);

        // Build loaders + hub per strategy.
        let mut loaders = Vec::new();
        let mut hub = None;
        match &cfg.strategy {
            Strategy::NonShared => {
                assert!(
                    cfg.loader.num_workers >= n,
                    "need at least one worker per non-shared trainer"
                );
                // Split the worker budget as evenly as possible (uneven
                // remainders go to the first trainers, as in §4.7).
                let base = cfg.loader.num_workers / n;
                let extra = cfg.loader.num_workers % n;
                for (i, t) in cfg.trainers.iter().enumerate() {
                    let workers = base + usize::from(i < extra);
                    loaders.push(LoaderRt {
                        to_produce: cfg.samples_per_trainer.div_ceil(t.batch_size as u64),
                        batch_size: t.batch_size,
                        cpu_ms_per_sample: cfg.loader.cpu_ms_per_sample,
                        queue: 0,
                        queue_cap: cfg.loader.prefetch_batches.max(1),
                        blocked: Vec::new(),
                        num_workers: workers,
                    });
                }
            }
            shared => {
                let batch_size = cfg.trainers[0].batch_size;
                assert!(
                    cfg.trainers.iter().all(|t| t.batch_size == batch_size),
                    "shared strategies require a uniform batch size in the simulator"
                );
                let cpu_ms = match shared {
                    Strategy::Joader {
                        server_cpu_ms_per_sample_per_job,
                        ..
                    } => cfg.loader.cpu_ms_per_sample + server_cpu_ms_per_sample_per_job * n as f64,
                    _ => cfg.loader.cpu_ms_per_sample,
                };
                let to_publish = cfg.samples_per_trainer.div_ceil(batch_size as u64);
                loaders.push(LoaderRt {
                    to_produce: to_publish,
                    batch_size,
                    cpu_ms_per_sample: cpu_ms,
                    queue: 0,
                    queue_cap: cfg.loader.prefetch_batches.max(1),
                    blocked: Vec::new(),
                    num_workers: cfg.loader.num_workers,
                });
                let buffer = match shared {
                    Strategy::TensorSocket { buffer, .. } => *buffer,
                    // CoorDL's DALI pipelines prefetch too; its rigidity is
                    // the all-consumers coordination (identical here) plus
                    // the per-consumer distribution/PCIe costs below.
                    Strategy::CoorDL { .. } => 2,
                    Strategy::Joader { .. } => 2,
                    Strategy::NonShared => unreachable!(),
                };
                let mut cursors = Cursors::new(buffer);
                for t in 0..n {
                    cursors.add(t as u64, 0);
                }
                hub = Some(Hub {
                    cursors,
                    ports: vec![0; n],
                    producer_state: ProducerState::Idle,
                    published: 0,
                    to_publish,
                    batch_bytes: cfg.loader.h2d_bytes_per_sample * batch_size as u64,
                });
            }
        }

        let trainers: Vec<TrainerRt> = cfg
            .trainers
            .iter()
            .map(|t| TrainerRt {
                state: TrainerState::Waiting,
                batches_done: 0,
                target_batches: cfg.samples_per_trainer.div_ceil(t.batch_size as u64),
                samples: 0,
                next_ack: 0,
                finished_at: None,
                series: vec![(0.0, 0.0)],
            })
            .collect();

        let g = cfg.cluster.gpus.len();
        let mut w = World {
            sched: Scheduler::new(),
            cpu,
            disk,
            gpus,
            loaders,
            trainers,
            hub,
            disk_bytes: 0,
            pcie_bytes: vec![0; g],
            nvlink_bytes: vec![0; g],
            vram_now: vec![0; g],
            vram_peak: vec![0; g],
            cpu_token: None,
            disk_token: None,
            gpu_tokens: vec![None; g],
            end_time: None,
            cfg,
        };
        w.account_static_vram();
        w
    }

    fn account_static_vram(&mut self) {
        let ctx_bytes = self.cfg.cuda_context_bytes;
        for t in &self.cfg.trainers {
            self.vram_now[t.gpu] += t.model_vram + ctx_bytes;
        }
        if let Strategy::TensorSocket { producer_gpu, .. } = &self.cfg.strategy {
            // The producer process holds a CUDA context of its own plus the
            // buffered batches (accounted dynamically on publish) — the
            // Table 3/4 "producer" rows.
            self.vram_now[*producer_gpu] += ctx_bytes + ctx_bytes; // context + allocator pool
        }
        for g in 0..self.vram_now.len() {
            self.vram_peak[g] = self.vram_now[g];
        }
    }

    fn alloc_vram(&mut self, gpu: usize, bytes: u64) {
        self.vram_now[gpu] += bytes;
        if self.vram_now[gpu] > self.vram_peak[gpu] {
            self.vram_peak[gpu] = self.vram_now[gpu];
        }
    }

    fn free_vram(&mut self, gpu: usize, bytes: u64) {
        self.vram_now[gpu] = self.vram_now[gpu].saturating_sub(bytes);
    }

    // ---- loader mechanics -------------------------------------------------

    /// Starts worker `w` of loader `l` on its next batch, if any remain.
    fn worker_start(&mut self, l: usize, w: usize) {
        let now = self.sched.now();
        let loader = &mut self.loaders[l];
        if loader.to_produce == 0 {
            return;
        }
        loader.to_produce -= 1;
        let bytes = self.cfg.loader.disk_bytes_per_sample * loader.batch_size as u64;
        self.disk_bytes += bytes;
        let read_s = bytes as f64 / self.cfg.cluster.disk_read_bps;
        self.disk.add(
            now,
            read_s,
            1.0,
            DiskTag::WorkerRead {
                loader: l,
                worker: w,
            },
        );
    }

    fn on_worker_read_done(&mut self, l: usize, w: usize) {
        let now = self.sched.now();
        let loader = &self.loaders[l];
        let work_s = loader.cpu_ms_per_sample * loader.batch_size as f64 / 1e3;
        self.cpu.add(
            now,
            work_s,
            1.0,
            CpuTag::WorkerPre {
                loader: l,
                worker: w,
            },
        );
    }

    fn on_worker_pre_done(&mut self, l: usize, w: usize) {
        let loader = &mut self.loaders[l];
        if loader.queue < loader.queue_cap {
            loader.queue += 1;
            self.worker_start(l, w);
            self.notify_batch_ready(l);
        } else {
            loader.blocked.push(w);
        }
    }

    /// Consumes one ready batch from loader `l`, unblocking a worker.
    fn pop_batch(&mut self, l: usize) {
        let loader = &mut self.loaders[l];
        debug_assert!(loader.queue > 0);
        loader.queue -= 1;
        if let Some(w) = self.loaders[l].blocked.pop() {
            self.loaders[l].queue += 1;
            self.worker_start(l, w);
        }
    }

    fn notify_batch_ready(&mut self, l: usize) {
        if self.hub.is_some() {
            self.producer_try();
        } else {
            // non-shared: loader l feeds trainer l
            self.trainer_try_consume(l);
        }
    }

    // ---- shared hub mechanics ----------------------------------------------

    fn producer_try(&mut self) {
        loop {
            let Some(hub) = self.hub.as_ref() else {
                return;
            };
            if hub.producer_state != ProducerState::Idle {
                return;
            }
            if hub.published >= hub.to_publish {
                return;
            }
            if !hub.cursors.can_publish() {
                return;
            }
            if self.loaders[0].queue == 0 {
                return;
            }
            self.pop_batch(0);
            let producer_gpu_work = match &self.cfg.strategy {
                Strategy::TensorSocket {
                    producer_gpu,
                    producer_gpu_ms_per_sample,
                    ..
                } if *producer_gpu_ms_per_sample > 0.0 => {
                    Some((*producer_gpu, *producer_gpu_ms_per_sample))
                }
                _ => None,
            };
            match producer_gpu_work {
                Some((gpu, ms)) => {
                    let now = self.sched.now();
                    let rel = self.cfg.cluster.gpus[gpu].relative_throughput;
                    let work_s = ms * self.loaders[0].batch_size as f64 / 1e3 / rel;
                    self.gpus[gpu].add(now, work_s, 1.0, GpuTag::ProducerStage);
                    self.hub.as_mut().unwrap().producer_state = ProducerState::GpuStage;
                    return;
                }
                None => {
                    if self.start_publish() {
                        return; // serial publish latency in flight
                    }
                    // loop: maybe more can be published right away
                }
            }
        }
    }

    /// Begins the serial publish stage. Returns true when latency was
    /// scheduled (the publish completes at `Ev::PublishDone`); false when
    /// the publish happened synchronously.
    fn start_publish(&mut self) -> bool {
        let latency_ms = match &self.cfg.strategy {
            Strategy::TensorSocket {
                publish_latency_ms, ..
            } => *publish_latency_ms,
            _ => 0.0,
        };
        if latency_ms > 0.0 {
            self.hub.as_mut().unwrap().producer_state = ProducerState::Publishing;
            self.sched
                .schedule_after((latency_ms * 1e6) as Time, Ev::PublishDone);
            true
        } else {
            self.publish();
            false
        }
    }

    fn on_publish_done(&mut self) {
        self.hub.as_mut().unwrap().producer_state = ProducerState::Idle;
        self.publish();
        self.producer_try();
    }

    fn on_producer_stage_done(&mut self) {
        self.hub.as_mut().unwrap().producer_state = ProducerState::Idle;
        if !self.start_publish() {
            self.producer_try();
        }
    }

    fn publish(&mut self) {
        let now = self.sched.now();
        let n = self.trainers.len();
        let batch = self.loaders[0].batch_size;
        let h2d = self.cfg.loader.h2d_bytes_per_sample * batch as u64;
        let strategy = self.cfg.strategy.clone();
        let hub = self.hub.as_mut().expect("publish requires a hub");
        hub.cursors.published();
        hub.published += 1;
        match &strategy {
            Strategy::TensorSocket {
                producer_gpu,
                producer_cpu_ms_per_batch_per_consumer,
                ..
            } => {
                let producer_gpu = *producer_gpu;
                // Stage once over PCIe onto the producer GPU...
                self.pcie_bytes[producer_gpu] += h2d;
                self.alloc_vram(producer_gpu, h2d);
                // ...fan out over NVLink to each distinct consumer GPU.
                let consumer_gpus: Vec<usize> = self.cfg.trainers.iter().map(|t| t.gpu).collect();
                let mut seen = vec![false; self.cfg.cluster.gpus.len()];
                for g in consumer_gpus {
                    if g != producer_gpu && !seen[g] {
                        seen[g] = true;
                        self.nvlink_bytes[g] += h2d;
                        self.alloc_vram(g, h2d);
                    }
                }
                // Small producer-side CPU overhead per consumer.
                let overhead_s = producer_cpu_ms_per_batch_per_consumer * n as f64 / 1e3;
                if overhead_s > 0.0 {
                    self.cpu.add(now, overhead_s, 1.0, CpuTag::Overhead);
                }
                let hub = self.hub.as_mut().unwrap();
                for p in hub.ports.iter_mut() {
                    *p += 1;
                }
                for t in 0..n {
                    self.trainer_try_consume(t);
                }
            }
            Strategy::CoorDL {
                dist_cpu_ms_per_sample_per_consumer,
            } => {
                // Distribution: one CPU job per consumer; the consumer's
                // batch becomes available when its job completes.
                let work_s = dist_cpu_ms_per_sample_per_consumer * batch as f64 / 1e3;
                for t in 0..n {
                    self.cpu.add(now, work_s, 1.0, CpuTag::Dist { t });
                }
            }
            Strategy::Joader { .. } => {
                let hub = self.hub.as_mut().unwrap();
                for p in hub.ports.iter_mut() {
                    *p += 1;
                }
                for t in 0..n {
                    self.trainer_try_consume(t);
                }
            }
            Strategy::NonShared => unreachable!(),
        }
    }

    fn on_dist_done(&mut self, t: usize) {
        let h2d = {
            let batch = self.loaders[0].batch_size;
            self.cfg.loader.h2d_bytes_per_sample * batch as u64
        };
        // CoorDL delivers over the consumer's own PCIe link.
        let gpu = self.cfg.trainers[t].gpu;
        self.pcie_bytes[gpu] += h2d;
        self.alloc_vram(gpu, h2d);
        self.hub.as_mut().unwrap().ports[t] += 1;
        self.trainer_try_consume(t);
    }

    // ---- trainer mechanics --------------------------------------------------

    fn trainer_try_consume(&mut self, t: usize) {
        if self.trainers[t].state != TrainerState::Waiting {
            return;
        }
        let has_batch = match &self.hub {
            Some(hub) => hub.ports[t] > 0,
            None => self.loaders[t].queue > 0,
        };
        if !has_batch {
            return;
        }
        let spec = self.cfg.trainers[t].clone();
        match self.hub.as_mut() {
            Some(hub) => {
                hub.ports[t] -= 1;
            }
            None => {
                self.pop_batch(t);
                // Non-shared: every trainer ships its own copy over PCIe.
                let h2d = self.cfg.loader.h2d_bytes_per_sample * spec.batch_size as u64;
                self.pcie_bytes[spec.gpu] += h2d;
            }
        }
        if matches!(self.cfg.strategy, Strategy::Joader { .. }) {
            // Joader delivers NumPy arrays; the consumer converts and ships
            // to its GPU itself.
            let h2d = self.cfg.loader.h2d_bytes_per_sample * spec.batch_size as u64;
            self.pcie_bytes[spec.gpu] += h2d;
        }
        let now = self.sched.now();
        let convert_ms = match &self.cfg.strategy {
            Strategy::Joader {
                convert_cpu_ms_per_sample,
                ..
            } => *convert_cpu_ms_per_sample,
            _ => 0.0,
        } + spec.pre_gpu_cpu_ms_per_sample;
        if convert_ms > 0.0 {
            let work_s = convert_ms * spec.batch_size as f64 / 1e3;
            self.trainers[t].state = TrainerState::HostStage;
            self.cpu.add(now, work_s, 1.0, CpuTag::TrainerPre { t });
        } else {
            self.start_gpu_step(t);
        }
    }

    fn start_gpu_step(&mut self, t: usize) {
        let now = self.sched.now();
        let spec = &self.cfg.trainers[t];
        let rel = self.cfg.cluster.gpus[spec.gpu].relative_throughput;
        let mut work_s = spec.gpu_ms_per_sample * spec.batch_size as f64 / 1e3 / rel;
        if spec.gpu_jitter_frac > 0.0 {
            // Deterministic per-(trainer, batch) factor in [1-j, 1+j]; the
            // mean is 1 so long-run rates stay calibrated.
            let u = unit_hash(t as u64, self.trainers[t].batches_done);
            work_s *= 1.0 + spec.gpu_jitter_frac * (2.0 * u - 1.0);
        }
        self.trainers[t].state = TrainerState::Step;
        self.gpus[spec.gpu].add(now, work_s, 1.0, GpuTag::Step { t });
    }

    fn on_step_done(&mut self, t: usize) {
        let spec = self.cfg.trainers[t].clone();
        self.pcie_bytes[spec.gpu] += spec.extra_pcie_bytes_per_sample * spec.batch_size as u64;
        let rt = &mut self.trainers[t];
        rt.batches_done += 1;
        rt.samples += spec.batch_size as u64;
        rt.state = TrainerState::Waiting;
        // Acknowledge to the hub (shared strategies) and release memory once
        // everyone acked — the ack cursors from the real protocol.
        let mut released = 0..0;
        if let Some(hub) = self.hub.as_mut() {
            let seq = self.trainers[t].next_ack;
            self.trainers[t].next_ack += 1;
            released = hub.cursors.ack(t as u64, seq).unwrap_or_default();
        }
        for _seq in released {
            let (bytes, producer_gpu) = {
                let hub = self.hub.as_ref().unwrap();
                let pg = match &self.cfg.strategy {
                    Strategy::TensorSocket { producer_gpu, .. } => Some(*producer_gpu),
                    _ => None,
                };
                (hub.batch_bytes, pg)
            };
            let trainer_gpus: Vec<usize> = self.cfg.trainers.iter().map(|tr| tr.gpu).collect();
            if let Some(pg) = producer_gpu {
                self.free_vram(pg, bytes);
                let mut seen = vec![false; self.cfg.cluster.gpus.len()];
                for g in trainer_gpus {
                    if g != pg && !seen[g] {
                        seen[g] = true;
                        self.free_vram(g, bytes);
                    }
                }
            } else if matches!(self.cfg.strategy, Strategy::CoorDL { .. }) {
                let mut seen = vec![false; self.cfg.cluster.gpus.len()];
                for g in trainer_gpus {
                    if !seen[g] {
                        seen[g] = true;
                        self.free_vram(g, bytes);
                    }
                }
            }
        }
        if self.trainers[t].batches_done >= self.trainers[t].target_batches {
            self.trainers[t].state = TrainerState::Done;
            self.trainers[t].finished_at = Some(self.sched.now());
        } else {
            self.trainer_try_consume(t);
        }
        // A freed window slot may let the producer move.
        if self.hub.is_some() {
            self.producer_try();
        }
        if self.trainers.iter().all(|x| x.state == TrainerState::Done) {
            self.end_time = Some(self.sched.now());
        }
    }

    // ---- event loop ----------------------------------------------------------

    fn reschedule_ticks(&mut self) {
        let now = self.sched.now();
        if let Some(tok) = self.cpu_token.take() {
            self.sched.cancel(tok);
        }
        if let Some(t) = self.cpu.next_completion(now) {
            if t < FOREVER {
                self.cpu_token = Some(self.sched.schedule_at(t, Ev::CpuTick));
            }
        }
        if let Some(tok) = self.disk_token.take() {
            self.sched.cancel(tok);
        }
        if let Some(t) = self.disk.next_completion(now) {
            if t < FOREVER {
                self.disk_token = Some(self.sched.schedule_at(t, Ev::DiskTick));
            }
        }
        for g in 0..self.gpus.len() {
            if let Some(tok) = self.gpu_tokens[g].take() {
                self.sched.cancel(tok);
            }
            if let Some(t) = self.gpus[g].next_completion(now) {
                if t < FOREVER {
                    self.gpu_tokens[g] = Some(self.sched.schedule_at(t, Ev::GpuTick(g)));
                }
            }
        }
    }

    fn settle_and_dispatch(&mut self) {
        let now = self.sched.now();
        loop {
            // Settle every resource to `now` *first*: handlers may add jobs
            // to any resource, which requires it to be settled already.
            let cpu_tags = self.cpu.settle(now);
            let disk_tags = self.disk.settle(now);
            let mut gpu_tags = Vec::with_capacity(self.gpus.len());
            for g in self.gpus.iter_mut() {
                gpu_tags.push(g.settle(now));
            }
            let fired = !cpu_tags.is_empty()
                || !disk_tags.is_empty()
                || gpu_tags.iter().any(|v| !v.is_empty());
            if !fired {
                break;
            }
            for tag in cpu_tags {
                match tag {
                    CpuTag::WorkerPre { loader, worker } => self.on_worker_pre_done(loader, worker),
                    CpuTag::TrainerPre { t } => self.start_gpu_step(t),
                    CpuTag::Dist { t } => self.on_dist_done(t),
                    CpuTag::Overhead => {}
                }
            }
            for DiskTag::WorkerRead { loader, worker } in disk_tags {
                self.on_worker_read_done(loader, worker);
            }
            for tags in gpu_tags {
                for tag in tags {
                    match tag {
                        GpuTag::Step { t } => self.on_step_done(t),
                        GpuTag::ProducerStage => self.on_producer_stage_done(),
                    }
                }
            }
        }
    }

    fn record_series(&mut self) {
        let now_s = self.sched.now() as f64 / 1e9;
        for rt in self.trainers.iter_mut() {
            rt.series.push((now_s, rt.samples as f64));
        }
    }

    fn run(mut self) -> SimResult {
        // Prime everything at t=0.
        self.cpu.settle(0);
        self.disk.settle(0);
        for g in 0..self.gpus.len() {
            self.gpus[g].settle(0);
        }
        for l in 0..self.loaders.len() {
            for w in 0..self.loaders[l].num_workers {
                self.worker_start(l, w);
            }
        }
        if self.cfg.series_interval_s > 0.0 {
            let dt = (self.cfg.series_interval_s * 1e9) as Time;
            self.sched.schedule_after(dt, Ev::Series);
        }
        let horizon = (self.cfg.max_sim_seconds * 1e9) as Time;
        self.reschedule_ticks();
        while let Some((now, ev)) = self.sched.pop() {
            if now > horizon {
                break;
            }
            match ev {
                Ev::Series => {
                    self.settle_and_dispatch();
                    self.record_series();
                    if self.end_time.is_none() {
                        let dt = (self.cfg.series_interval_s * 1e9) as Time;
                        self.sched.schedule_after(dt, Ev::Series);
                    }
                }
                Ev::PublishDone => {
                    self.settle_and_dispatch();
                    self.on_publish_done();
                }
                Ev::CpuTick | Ev::DiskTick | Ev::GpuTick(_) => {
                    self.settle_and_dispatch();
                }
            }
            if self.end_time.is_some() {
                break;
            }
            self.reschedule_ticks();
        }
        self.finish()
    }

    fn finish(mut self) -> SimResult {
        let end = self.end_time.unwrap_or(self.sched.now()).max(1);
        self.record_series();
        let duration_s = end as f64 / 1e9;
        let trainers: Vec<TrainerResult> = self
            .cfg
            .trainers
            .iter()
            .zip(&self.trainers)
            .map(|(spec, rt)| {
                // Throughput over the trainer's own active span: a trainer
                // that hit its target early must not be diluted by slower
                // peers still running (the paper reports per-model rates).
                let own_s = rt.finished_at.unwrap_or(end).max(1) as f64 / 1e9;
                TrainerResult {
                    name: spec.name.clone(),
                    gpu: spec.gpu,
                    samples: rt.samples,
                    samples_per_s: rt.samples as f64 / own_s,
                    series: rt.series.clone(),
                }
            })
            .collect();
        let vram_exceeded = self
            .vram_peak
            .iter()
            .zip(&self.cfg.cluster.gpus)
            .any(|(used, g)| *used > g.vram_bytes);
        SimResult {
            duration_s,
            completed: self.end_time.is_some(),
            trainers,
            cpu_busy_cores: self.cpu.mean_busy(end),
            cpu_util: self.cpu.utilization(end),
            gpu_util: self.gpus.iter().map(|g| g.utilization(end)).collect(),
            disk_bytes: self.disk_bytes,
            disk_bps: self.disk_bytes as f64 / duration_s,
            pcie_bps: self
                .pcie_bytes
                .iter()
                .map(|b| *b as f64 / duration_s)
                .collect(),
            nvlink_bps: self
                .nvlink_bytes
                .iter()
                .map(|b| *b as f64 / duration_s)
                .collect(),
            vram_peak: self.vram_peak,
            vram_exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(rel: f64) -> GpuConfig {
        GpuConfig {
            relative_throughput: rel,
            vram_bytes: 40_000_000_000,
        }
    }

    fn cluster(vcpus: f64, gpus: usize, rel: f64) -> ClusterSpec {
        ClusterSpec {
            name: "test".to_string(),
            vcpus,
            gpus: (0..gpus).map(|_| gpu(rel)).collect(),
            gpu_sharing: GpuSharing::Mps,
            disk_read_bps: 10e9,
            nvlink: true,
        }
    }

    fn loader(cpu_ms: f64, workers: usize) -> LoaderSpec {
        LoaderSpec {
            cpu_ms_per_sample: cpu_ms,
            disk_bytes_per_sample: 100_000,
            h2d_bytes_per_sample: 150_000,
            num_workers: workers,
            prefetch_batches: 2,
        }
    }

    fn quick(cfg: &mut SimConfig) {
        cfg.samples_per_trainer = 4096;
        cfg.max_sim_seconds = 10_000.0;
    }

    #[test]
    fn cpu_bound_nonshared_matches_analytic_rate() {
        // 8 workers, 5 ms/sample → 1600 samples/s loading capacity;
        // GPU can do 10000/s → loader-bound.
        let mut cfg = SimConfig::new(
            cluster(8.0, 1, 1.0),
            loader(5.0, 8),
            vec![WorkloadSpec::new("m", 0, 64, 0.1)],
            Strategy::NonShared,
        );
        quick(&mut cfg);
        let r = run(cfg);
        assert!(r.completed);
        let rate = r.trainers[0].samples_per_s;
        assert!((rate - 1600.0).abs() < 80.0, "rate {rate}");
        // CPU saturated
        assert!(r.cpu_util > 0.95, "cpu util {}", r.cpu_util);
        assert!(r.gpu_util[0] < 0.35);
    }

    #[test]
    fn gpu_bound_nonshared_matches_analytic_rate() {
        // GPU: 1 ms/sample → 1000 samples/s; loader capacity 3200/s.
        let mut cfg = SimConfig::new(
            cluster(16.0, 1, 1.0),
            loader(5.0, 16),
            vec![WorkloadSpec::new("m", 0, 64, 1.0)],
            Strategy::NonShared,
        );
        quick(&mut cfg);
        cfg.samples_per_trainer = 65_536; // long enough to amortize warmup
        let r = run(cfg);
        let rate = r.trainers[0].samples_per_s;
        assert!((rate - 1000.0).abs() < 20.0, "rate {rate}");
        assert!(r.gpu_util[0] > 0.9, "gpu util {:?}", r.gpu_util);
    }

    #[test]
    fn sharing_removes_the_cpu_bottleneck() {
        // 2 trainers on 2 GPUs, 8 workers, heavy preprocess: non-shared
        // splits workers (800/s each); shared loads once (1600/s capacity,
        // GPU-bound at 1000/s each).
        let trainers = vec![
            WorkloadSpec::new("a", 0, 64, 1.0),
            WorkloadSpec::new("b", 1, 64, 1.0),
        ];
        let mut ns = SimConfig::new(
            cluster(8.0, 2, 1.0),
            loader(5.0, 8),
            trainers.clone(),
            Strategy::NonShared,
        );
        quick(&mut ns);
        ns.samples_per_trainer = 65_536;
        let mut ts = SimConfig::new(
            cluster(8.0, 2, 1.0),
            loader(5.0, 8),
            trainers,
            Strategy::tensorsocket(),
        );
        quick(&mut ts);
        ts.samples_per_trainer = 65_536;
        let r_ns = run(ns);
        let r_ts = run(ts);
        let ns_rate = r_ns.trainers[0].samples_per_s;
        let ts_rate = r_ts.trainers[0].samples_per_s;
        assert!((ns_rate - 800.0).abs() < 60.0, "non-shared {ns_rate}");
        assert!((ts_rate - 1000.0).abs() < 60.0, "shared {ts_rate}");
        // Shared does the preprocessing once → lower CPU use despite the
        // higher throughput.
        assert!(r_ts.cpu_busy_cores < r_ns.cpu_busy_cores);
        // Shared moves data once over PCIe and fans out over NVLink.
        assert!(r_ts.nvlink_bps[1] > 0.0);
        assert_eq!(r_ns.nvlink_bps[1], 0.0);
        assert!(r_ts.pcie_bps[1] < 1.0);
        assert!(r_ns.pcie_bps[1] > 0.0);
        // Disk read once instead of twice.
        assert!(
            r_ts.disk_bytes * 2 <= r_ns.disk_bytes + 1_000_000_000,
            "disk {} vs {}",
            r_ts.disk_bytes,
            r_ns.disk_bytes
        );
    }

    #[test]
    fn mps_collocation_shares_gpu_fairly() {
        // 2 identical trainers on ONE GPU: each gets half the SMs.
        let trainers = vec![
            WorkloadSpec::new("a", 0, 64, 1.0),
            WorkloadSpec::new("b", 0, 64, 1.0),
        ];
        let mut cfg = SimConfig::new(
            cluster(16.0, 1, 1.0),
            loader(1.0, 16),
            trainers,
            Strategy::tensorsocket(),
        );
        quick(&mut cfg);
        let r = run(cfg);
        for t in &r.trainers {
            assert!(
                (t.samples_per_s - 500.0).abs() < 40.0,
                "{}",
                t.samples_per_s
            );
        }
        assert!(r.gpu_util[0] > 0.95);
    }

    #[test]
    fn streams_sharing_is_slower_than_mps() {
        let trainers = vec![
            WorkloadSpec::new("a", 0, 64, 1.0),
            WorkloadSpec::new("b", 0, 64, 1.0),
        ];
        let mut mps = SimConfig::new(
            cluster(16.0, 1, 1.0),
            loader(1.0, 16),
            trainers.clone(),
            Strategy::tensorsocket(),
        );
        quick(&mut mps);
        let mut streams = SimConfig::new(
            ClusterSpec {
                gpu_sharing: GpuSharing::Streams { penalty: 0.1 },
                ..cluster(16.0, 1, 1.0)
            },
            loader(1.0, 16),
            trainers,
            Strategy::tensorsocket(),
        );
        quick(&mut streams);
        let r_mps = run(mps);
        let r_streams = run(streams);
        assert!(
            r_streams.trainers[0].samples_per_s < r_mps.trainers[0].samples_per_s * 0.95,
            "streams {} vs mps {}",
            r_streams.trainers[0].samples_per_s,
            r_mps.trainers[0].samples_per_s
        );
    }

    #[test]
    fn lockstep_balances_mixed_models() {
        // A light and a heavy model on one GPU share a TensorSocket: the
        // window forces equal rates; PS gives the heavy model more SM time.
        let trainers = vec![
            WorkloadSpec::new("light", 0, 64, 0.5),
            WorkloadSpec::new("heavy", 0, 64, 1.5),
        ];
        let mut cfg = SimConfig::new(
            cluster(16.0, 1, 1.0),
            loader(1.0, 16),
            trainers,
            Strategy::tensorsocket(),
        );
        quick(&mut cfg);
        let r = run(cfg);
        let light = r.trainers[0].samples_per_s;
        let heavy = r.trainers[1].samples_per_s;
        assert!(
            (light - heavy).abs() / heavy < 0.05,
            "lockstep rates diverge: {light} vs {heavy}"
        );
        // equilibrium: r*(0.5+1.5)ms = 1s → r = 500/s each
        assert!((heavy - 500.0).abs() < 40.0, "heavy {heavy}");
    }

    #[test]
    fn coordl_costs_cpu_per_consumer_and_uses_pcie() {
        let trainers = vec![
            WorkloadSpec::new("a", 0, 64, 1.0),
            WorkloadSpec::new("b", 1, 64, 1.0),
        ];
        let mut ts = SimConfig::new(
            cluster(16.0, 2, 1.0),
            loader(2.0, 8),
            trainers.clone(),
            Strategy::tensorsocket(),
        );
        quick(&mut ts);
        let mut coordl = SimConfig::new(
            cluster(16.0, 2, 1.0),
            loader(2.0, 8),
            trainers,
            Strategy::CoorDL {
                dist_cpu_ms_per_sample_per_consumer: 1.0,
            },
        );
        quick(&mut coordl);
        let r_ts = run(ts);
        let r_co = run(coordl);
        assert!(r_co.cpu_busy_cores > r_ts.cpu_busy_cores);
        // CoorDL ships per-consumer over PCIe, no NVLink
        assert!(r_co.pcie_bps[1] > 0.0);
        assert_eq!(r_co.nvlink_bps[1], 0.0);
        assert!(r_ts.nvlink_bps[1] > 0.0);
    }

    #[test]
    fn joader_throughput_degrades_with_jobs() {
        let mk = |n: usize| {
            let trainers: Vec<WorkloadSpec> = (0..n)
                .map(|i| WorkloadSpec::new(&format!("m{i}"), 0, 64, 0.05))
                .collect();
            let mut cfg = SimConfig::new(
                cluster(8.0, 1, 2.0),
                loader(5.0, 8),
                trainers,
                Strategy::Joader {
                    server_cpu_ms_per_sample_per_job: 2.0,
                    convert_cpu_ms_per_sample: 0.0,
                },
            );
            quick(&mut cfg);
            run(cfg)
        };
        let r1 = mk(1);
        let r4 = mk(4);
        let per_model_1 = r1.trainers[0].samples_per_s;
        let per_model_4 = r4.trainers[0].samples_per_s;
        // n=1: 8/(5+2) ms → ~1143/s; n=4: 8/(5+8) → ~615/s
        assert!((per_model_1 - 1143.0).abs() < 80.0, "{per_model_1}");
        assert!((per_model_4 - 615.0).abs() < 60.0, "{per_model_4}");
    }

    #[test]
    fn disk_bottleneck_caps_loading() {
        let mut cfg = SimConfig::new(
            ClusterSpec {
                disk_read_bps: 100e6, // 100 MB/s
                ..cluster(16.0, 1, 1.0)
            },
            loader(0.5, 8),
            vec![WorkloadSpec::new("m", 0, 64, 0.1)],
            Strategy::NonShared,
        );
        quick(&mut cfg);
        let r = run(cfg);
        // 100 MB/s over 100 KB samples → 1000 samples/s max
        assert!(r.trainers[0].samples_per_s < 1050.0);
        assert!(r.disk_bps < 105e6);
        assert!(r.disk_bps > 90e6);
    }

    #[test]
    fn series_records_progress() {
        let mut cfg = SimConfig::new(
            cluster(8.0, 1, 1.0),
            loader(2.0, 8),
            vec![WorkloadSpec::new("m", 0, 64, 0.5)],
            Strategy::NonShared,
        );
        quick(&mut cfg);
        cfg.series_interval_s = 0.5;
        let r = run(cfg);
        let series = &r.trainers[0].series;
        assert!(series.len() >= 3);
        // cumulative and non-decreasing
        assert!(series.windows(2).all(|w| w[1].1 >= w[0].1));
        assert_eq!(series.last().unwrap().1, 4096.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let trainers = vec![
                WorkloadSpec::new("a", 0, 32, 0.7),
                WorkloadSpec::new("b", 1, 32, 1.3),
            ];
            let mut cfg = SimConfig::new(
                cluster(6.0, 2, 1.0),
                loader(3.0, 6),
                trainers,
                Strategy::tensorsocket(),
            );
            quick(&mut cfg);
            run(cfg)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.cpu_busy_cores, b.cpu_busy_cores);
        assert_eq!(a.disk_bytes, b.disk_bytes);
        for (x, y) in a.trainers.iter().zip(&b.trainers) {
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn vram_accounting_flags_oversubscription() {
        let mut spec = WorkloadSpec::new("big", 0, 64, 1.0);
        spec.model_vram = 39_000_000_000;
        let trainers = vec![
            spec.clone(),
            WorkloadSpec {
                name: "big2".into(),
                ..spec
            },
        ];
        let mut cfg = SimConfig::new(
            cluster(8.0, 1, 1.0),
            loader(1.0, 8),
            trainers,
            Strategy::tensorsocket(),
        );
        quick(&mut cfg);
        let r = run(cfg);
        assert!(r.vram_exceeded);
        assert!(r.vram_peak[0] > 78_000_000_000);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    fn one_gpu_cluster() -> ClusterSpec {
        ClusterSpec {
            name: "t".into(),
            vcpus: 16.0,
            gpus: vec![GpuConfig {
                relative_throughput: 1.0,
                vram_bytes: 40_000_000_000,
            }],
            gpu_sharing: GpuSharing::Mps,
            disk_read_bps: 10e9,
            nvlink: false,
        }
    }

    fn loader() -> LoaderSpec {
        LoaderSpec {
            cpu_ms_per_sample: 0.5,
            disk_bytes_per_sample: 1_000,
            h2d_bytes_per_sample: 1_000,
            num_workers: 8,
            prefetch_batches: 2,
        }
    }

    fn ts_with(buffer: usize, latency_ms: f64) -> Strategy {
        Strategy::TensorSocket {
            buffer,
            producer_gpu: 0,
            producer_gpu_ms_per_sample: 0.0,
            producer_cpu_ms_per_batch_per_consumer: 0.0,
            publish_latency_ms: latency_ms,
        }
    }

    #[test]
    fn publish_latency_exposed_only_at_buffer_one() {
        // GPU step: 64 samples × 1 ms = 64 ms; latency 16 ms.
        let run_with = |buffer: usize| {
            let mut cfg = SimConfig::new(
                one_gpu_cluster(),
                loader(),
                vec![WorkloadSpec::new("m", 0, 64, 1.0)],
                ts_with(buffer, 16.0),
            );
            cfg.samples_per_trainer = 64 * 500;
            run(cfg).mean_samples_per_s()
        };
        let n1 = run_with(1);
        let n2 = run_with(2);
        // N=1: cycle 64+16 ms → 800/s; N=2: latency hidden → 1000/s
        assert!((n1 - 800.0).abs() < 25.0, "N=1 {n1}");
        assert!((n2 - 1000.0).abs() < 25.0, "N=2 {n2}");
    }

    #[test]
    fn zero_latency_matches_buffer_one_and_two() {
        let run_with = |buffer: usize| {
            let mut cfg = SimConfig::new(
                one_gpu_cluster(),
                loader(),
                vec![WorkloadSpec::new("m", 0, 64, 1.0)],
                ts_with(buffer, 0.0),
            );
            cfg.samples_per_trainer = 64 * 200;
            run(cfg).mean_samples_per_s()
        };
        let n1 = run_with(1);
        let n2 = run_with(2);
        assert!((n1 - n2).abs() / n2 < 0.02, "{n1} vs {n2}");
    }

    #[test]
    fn jitter_preserves_mean_rate_when_not_window_bound() {
        let run_with = |jitter: f64| {
            let mut spec = WorkloadSpec::new("m", 0, 64, 1.0);
            spec.gpu_jitter_frac = jitter;
            let mut cfg = SimConfig::new(one_gpu_cluster(), loader(), vec![spec], ts_with(4, 0.0));
            cfg.samples_per_trainer = 64 * 1000;
            run(cfg).mean_samples_per_s()
        };
        let flat = run_with(0.0);
        let jittery = run_with(0.3);
        // the jitter factor has mean 1 → long-run rate within a few percent
        assert!((jittery - flat).abs() / flat < 0.03, "{flat} vs {jittery}");
    }

    #[test]
    fn jitter_is_deterministic() {
        let run_once = || {
            let mut spec = WorkloadSpec::new("m", 0, 32, 1.0);
            spec.gpu_jitter_frac = 0.5;
            let mut cfg = SimConfig::new(one_gpu_cluster(), loader(), vec![spec], ts_with(2, 1.0));
            cfg.samples_per_trainer = 32 * 100;
            run(cfg)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.trainers[0].samples, b.trainers[0].samples);
    }

    #[test]
    fn unit_hash_is_uniform_ish_and_stable() {
        let mut sum = 0.0;
        for i in 0..1000u64 {
            let u = unit_hash(3, i);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert_eq!(unit_hash(1, 2), unit_hash(1, 2));
        assert_ne!(unit_hash(1, 2), unit_hash(2, 1));
    }
}
