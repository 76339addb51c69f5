//! The unified builder API: one [`Producer`], one [`Consumer`],
//! endpoint-only attach.
//!
//! The paper's pitch is that a training script adopts TensorSocket by
//! swapping one line, and that a consumer which must mirror the
//! producer's shard count, arena path and batch schema out of band is
//! the silent-misconfiguration trap the data-loading literature warns
//! about. Two facades are the whole entry surface:
//!
//! * [`Producer::builder()`] — one handle over one pipeline or a
//!   coordinated sharded group (one source = the one-shard case). It
//!   auto-creates and auto-sizes the shared-memory arena and its
//!   recycling slot pool from the loader's own geometry and pipeline
//!   hints ([`crate::runtime::producer::SampleGeometry`]), instead of
//!   asking the user to compute slot depths by hand.
//! * [`Consumer::builder()`]`.connect(endpoint)` — a consumer needs
//!   **literally only the endpoint URI**. Everything else arrives over a
//!   versioned HELLO/WELCOME handshake on the control channel: shard
//!   count (and with it every shard's data/ctrl endpoint, via
//!   [`ts_socket::EndpointMap`]), the arena path and slot geometry and the
//!   batch schema. Mismatches surface as typed [`crate::HandshakeError`]s
//!   — never as hangs or silently wrong training streams.

use crate::protocol::messages::PayloadMode;
use crate::runtime::config::{FlexibleConfig, ProducerConfig, ProducerMap};
use crate::runtime::consumer::Consumer;
use crate::runtime::context::TsContext;
use crate::runtime::coordinator::EpochCoordinator;
use crate::runtime::producer::{
    batches_ahead_of_publish, EpochSource, ProducerStats, TensorProducer,
};
use crate::runtime::staging::StagingConfig;
use crate::runtime::state::catch_up_frames;
use crate::{Result, TsError};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use ts_device::DeviceId;
use ts_shm::ShmArena;
use ts_socket::{Endpoint, EndpointMap};

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

/// How the builder provisions the shared-memory arena.
enum ArenaSpec {
    /// Auto-size slot count and slot size from the sources' geometry.
    Auto { path: PathBuf },
    /// Explicit geometry (size-changing pipelines, exotic sources).
    Sized {
        path: PathBuf,
        nslots: usize,
        slot_size: usize,
    },
}

/// Builder for a [`Producer`]; start from [`Producer::builder`].
pub struct ProducerBuilder {
    cfg: ProducerConfig,
    ctx: Option<TsContext>,
    arena: Option<ArenaSpec>,
    /// A malformed endpoint handed to a `Self`-returning method; surfaced
    /// at spawn so the chain stays fluent.
    endpoint_err: Option<TsError>,
}

impl ProducerBuilder {
    fn new() -> Self {
        Self {
            cfg: ProducerConfig::default(),
            ctx: None,
            arena: None,
            endpoint_err: None,
        }
    }

    /// Base endpoint (`inproc://`, `ipc://`, `tcp://` — as a URI string
    /// or a parsed [`Endpoint`]); data/ctrl and per-shard endpoints all
    /// derive from it. A malformed URI fails the eventual
    /// [`ProducerBuilder::spawn`] with [`TsError::Endpoint`].
    pub fn endpoint<E>(mut self, endpoint: E) -> Self
    where
        E: TryInto<Endpoint>,
        E::Error: Into<TsError>,
    {
        match endpoint.try_into() {
            Ok(ep) => self.cfg.endpoint = ep.to_string(),
            Err(e) => self.endpoint_err = Some(e.into()),
        }
        self
    }

    /// Overrides shard `shard`'s base endpoint — the multi-host escape
    /// hatch: that shard binds (and is advertised at) the given URI
    /// instead of the one derived from the base endpoint by scheme rules.
    /// Advertised verbatim in the WELCOME, so consumers follow the
    /// override with no out-of-band configuration. Shard 0 *is* the base
    /// endpoint consumers hello at and cannot be overridden in a
    /// multi-shard topology.
    pub fn shard_endpoint<E>(mut self, shard: u32, endpoint: E) -> Self
    where
        E: TryInto<Endpoint>,
        E::Error: Into<TsError>,
    {
        match endpoint.try_into() {
            Ok(ep) => {
                let uri = ep.to_string();
                match self
                    .cfg
                    .shard_endpoints
                    .binary_search_by_key(&shard, |(s, _)| *s)
                {
                    Ok(i) => self.cfg.shard_endpoints[i].1 = uri,
                    Err(i) => self.cfg.shard_endpoints.insert(i, (shard, uri)),
                }
            }
            Err(e) => self.endpoint_err = Some(e.into()),
        }
        self
    }

    /// Epochs to run.
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Consumer-side batch buffer size N (paper default 2).
    pub fn buffer_size(mut self, n: usize) -> Self {
        self.cfg.buffer_size = n;
        self
    }

    /// Rubberband join window as a fraction of the epoch (paper: 0.02).
    pub fn rubberband_cutoff(mut self, cutoff: f64) -> Self {
        self.cfg.rubberband_cutoff = cutoff;
        self
    }

    /// Consumers silent for longer than this are detached.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.heartbeat_timeout = timeout;
        self
    }

    /// Device batches are staged on before being shared.
    pub fn device(mut self, device: DeviceId) -> Self {
        self.cfg.device = device;
        self
    }

    /// Device staging configuration (GPU producers): the simulated
    /// backend's modeled H2D bandwidth.
    pub fn staging_config(mut self, staging: StagingConfig) -> Self {
        self.cfg.staging = staging;
        self
    }

    /// Flexible batch sizing (§3.2.6): producer batches of `producer_batch`
    /// samples carved per consumer.
    pub fn flexible(mut self, flexible: FlexibleConfig) -> Self {
        self.cfg.flexible = Some(flexible);
        self
    }

    /// Producer-side batch stage applied once per batch before sharing.
    pub fn producer_map(mut self, map: ProducerMap) -> Self {
        self.cfg.producer_map = Some(map);
        self
    }

    /// Keeps a durable batch log under `dir` (one subdirectory per
    /// shard): every published batch is teed to disk by a background
    /// spiller, the WELCOME advertises the retained range, and
    /// consumers attaching with [`ConsumerBuilder::group`] replay the
    /// logged tail before splicing onto the live stream. The directory
    /// must be empty (or fresh) — sequence numbers restart per run, so
    /// spawning over an old log fails rather than serving stale bytes.
    /// Incompatible with [`ProducerBuilder::flexible`].
    pub fn log(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.log = Some(ts_log::LogConfig::new(dir.into()));
        self
    }

    /// Durable batch log with explicit segment/retention geometry (see
    /// [`ts_log::LogConfig`]); [`ProducerBuilder::log`] with defaults
    /// otherwise.
    pub fn log_config(mut self, cfg: ts_log::LogConfig) -> Self {
        self.cfg.log = Some(cfg);
        self
    }

    /// Stop waiting for the first consumer after this long (`None` =
    /// forever).
    pub fn first_consumer_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cfg.first_consumer_timeout = timeout;
        self
    }

    /// How tolerant the stall watchdog is: a batch (or an idle publish
    /// loop) is only called stalled once it exceeds this multiple of the
    /// relevant stage's rolling p99 (with a small absolute floor).
    /// Verdicts land in `watchdog.stalls.*` counters, the stats snapshot
    /// and the `ts-top` header. Default 4.0; values below 1.0 are
    /// clamped up.
    pub fn watchdog_stall_multiple(mut self, multiple: f64) -> Self {
        self.cfg.watchdog_stall_multiple = multiple;
        self
    }

    /// Runtime context to spawn in. Defaults to a fresh
    /// [`TsContext::host_only`] — share one explicitly for `inproc://`
    /// deployments or simulated-GPU devices.
    pub fn context(mut self, ctx: &TsContext) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// Starts from an explicit [`ProducerConfig`] (for callers that build
    /// or store the whole configuration as a value).
    pub fn config(mut self, cfg: ProducerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Backs payloads with a shared-memory arena at `path`, **auto-sized**
    /// from the sources: slot size from the per-sample geometry hint
    /// ([`EpochSource::sample_geometry`]) × the (producer-)batch size, and
    /// slot count from the publish window + rubberband pin headroom (+ one
    /// log catch-up window under [`ProducerBuilder::log`]) × tensors per
    /// batch × shards. A matching recycling slot pool is bound
    /// per shard, so steady-state publishing performs zero arena
    /// allocations. The geometry is advertised over the attach handshake —
    /// consumers map the arena without being told its path.
    ///
    /// Fails at spawn when the source cannot report its geometry; use
    /// [`ProducerBuilder::arena_sized`] then.
    pub fn arena(mut self, path: impl Into<PathBuf>) -> Self {
        self.arena = Some(ArenaSpec::Auto { path: path.into() });
        self
    }

    /// Backs payloads with a shared-memory arena of explicit geometry
    /// (for size-changing transform pipelines or sources without a
    /// geometry hint).
    pub fn arena_sized(
        mut self,
        path: impl Into<PathBuf>,
        nslots: usize,
        slot_size: usize,
    ) -> Self {
        self.arena = Some(ArenaSpec::Sized {
            path: path.into(),
            nslots,
            slot_size,
        });
        self
    }

    /// Spawns a single-pipeline producer over `source` (the degenerate
    /// one-shard case of [`ProducerBuilder::spawn_sharded`]).
    pub fn spawn(self, source: impl EpochSource) -> Result<Producer> {
        self.spawn_sharded(vec![source])
    }

    /// Spawns one producer pipeline per source — source `i` must own
    /// shard `i`'s disjoint partition (`DataLoader::sharded`) — in
    /// lockstep under an epoch coordinator. One source spawns a plain
    /// producer with no coordination overhead.
    pub fn spawn_sharded<S: EpochSource>(self, sources: Vec<S>) -> Result<Producer> {
        if let Some(e) = self.endpoint_err {
            return Err(e);
        }
        if sources.is_empty() {
            return Err(TsError::Config("producer needs at least one source".into()));
        }
        if let Some((shard, _)) = self
            .cfg
            .shard_endpoints
            .iter()
            .find(|(s, _)| *s as usize >= sources.len())
        {
            return Err(TsError::Config(format!(
                "shard_endpoint({shard}, ..) targets a shard the {}-source topology \
                 does not have",
                sources.len()
            )));
        }
        let ctx = self.ctx.unwrap_or_else(TsContext::host_only);
        let cfg = self.cfg;
        let shards = sources.len();
        let arena = match self.arena {
            None => None,
            Some(spec) => Some(Self::provision_arena(&ctx, &cfg, &sources, spec)?),
        };
        // Shard 0's endpoint is the base endpoint consumers hello at.
        if shards > 1 && cfg.shard_endpoints.iter().any(|(s, _)| *s == 0) {
            return Err(TsError::Config(
                "shard 0 is the handshake endpoint consumers hello at; set it via the \
                 base endpoint, not a shard_endpoint(0, ..) override"
                    .into(),
            ));
        }
        let endpoint = cfg.endpoint.clone();
        // One source is a plain pipeline with no coordination overhead;
        // several run in lockstep under one epoch coordinator.
        let coordinator =
            (shards > 1).then(|| Arc::new(EpochCoordinator::new(shards, cfg.heartbeat_timeout)));
        // Every shard's base comes from one override-aware map; the full
        // override table stays only on shard 0, whose WELCOME advertises
        // it (a non-zero shard's own single-shard endpoint layout must
        // root at its resolved base, not re-apply group overrides).
        let group_map = EndpointMap::with_overrides(&endpoint, shards, cfg.shard_endpoints.clone());
        let mut pipelines: Vec<TensorProducer> = Vec::with_capacity(shards);
        for (shard, source) in sources.into_iter().enumerate() {
            let mut shard_cfg = cfg.clone();
            shard_cfg.endpoint = group_map.shard_base(shard);
            if shard != 0 {
                shard_cfg.shard_endpoints = Vec::new();
            }
            match TensorProducer::spawn(source, &ctx, shard_cfg, coordinator.clone(), shard as u32)
            {
                Ok(p) => pipelines.push(p),
                Err(e) => {
                    // Unwind the shards already running.
                    if let Some(c) = &coordinator {
                        c.stop();
                    }
                    for p in &pipelines {
                        p.abort();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Producer {
            pipelines,
            coordinator,
            endpoint,
            ctx,
            arena,
        })
    }

    /// Creates (and binds) the arena plus its per-shard recycling pools,
    /// sizing both from the sources when the spec is `Auto`.
    fn provision_arena<S: EpochSource>(
        ctx: &TsContext,
        cfg: &ProducerConfig,
        sources: &[S],
        spec: ArenaSpec,
    ) -> Result<Arc<ShmArena>> {
        let shards = sources.len();
        // In-flight announcements per shard: the publish window plus the
        // rubberband pin set (pinned batches stay registered past full
        // acknowledgement until the join window closes) plus a margin for
        // releases still in flight.
        let per_shard_live = |source: &S| -> usize {
            let loader = (
                source.batches_per_epoch() as u64,
                source.batch_size() as u64,
            );
            // Zero-copy publish leases slots *ahead* of the publish
            // cursor: every batch inside the loader, parked in the feeder
            // queue or in the staging hand-off already owns its slots.
            // Size that ahead-of-publish set in, or a fast loader would
            // run the pool dry and build on the heap instead.
            let ahead = batches_ahead_of_publish(cfg, source.pipeline_hint());
            cfg.buffer_size + cfg.pinned_per_epoch(loader) + ahead + 1
        };
        // `(tensors per batch, catch-up frames)` of an auto-sized arena.
        let (path, nslots, slot_size, auto) = match spec {
            ArenaSpec::Sized {
                path,
                nslots,
                slot_size,
            } => (path, nslots, slot_size, None),
            ArenaSpec::Auto { path } => {
                let geometry = sources[0].sample_geometry().ok_or_else(|| {
                    TsError::Config(
                        "source reports no sample geometry; size the arena explicitly \
                         with ProducerBuilder::arena_sized"
                            .into(),
                    )
                })?;
                // Under flexible sizing the registered tensors are producer
                // batches, which can briefly overshoot `producer_batch` by
                // up to one loader batch before the preparer flushes.
                let max_batch = match &cfg.flexible {
                    None => sources[0].batch_size(),
                    Some(flex) => flex.producer_batch + sources[0].batch_size(),
                };
                let slot_size = geometry.max_tensor_bytes(max_batch).next_multiple_of(4096);
                let tensors = geometry.tensors_per_batch();
                // With a log, a pointer joiner's catch-up is copied into
                // slots of the shard's pool and held until acked: one
                // catch-up window of frames, each pinning a slot per
                // tensor, on top of the live set.
                let catch_up = match &cfg.log {
                    Some(_) => catch_up_frames((tensors * slot_size) as u64),
                    None => 0,
                };
                let nslots: usize = sources
                    .iter()
                    .map(|s| (per_shard_live(s) + catch_up) * tensors)
                    .sum::<usize>()
                    .max(2);
                (path, nslots, slot_size, Some((tensors, catch_up)))
            }
        };
        let arena = ctx.create_arena(&path, nslots, slot_size)?;
        // Bind a recycling pool per shard so steady-state publishing
        // rewrites fully-acked slots in place. Depth mirrors the live-set
        // math above; explicit-geometry callers get it derived from the
        // arena itself.
        for (shard, source) in sources.iter().enumerate() {
            let depth = match auto {
                Some((tensors, catch_up)) => (per_shard_live(source) + catch_up) * tensors,
                None => (nslots / shards).max(1),
            };
            if shards == 1 {
                ctx.enable_slot_recycling(depth)?;
            } else {
                ctx.enable_shard_slot_recycling(shard as u32, depth)?;
            }
        }
        Ok(arena)
    }
}

/// The producing end of a TensorSocket: one handle over the data-loading
/// pipeline(s), whether one shard or many.
///
/// Built with [`Producer::builder`]:
///
/// ```no_run
/// use tensorsocket::{Producer, Consumer};
/// use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
/// use std::sync::Arc;
///
/// let dataset = Arc::new(SyntheticImageDataset::imagenet_like(1024, 0));
/// let loader = DataLoader::new(dataset, DataLoaderConfig::default());
/// let producer = Producer::builder()
///     .endpoint("ipc:///tmp/ts.sock")
///     .arena("/dev/shm/ts.arena") // auto-sized from the loader
///     .epochs(2)
///     .spawn(loader)
///     .unwrap();
///
/// // any consumer process, knowing ONLY the endpoint:
/// let consumer = Consumer::builder().connect("ipc:///tmp/ts.sock").unwrap();
/// for batch in consumer {
///     let batch = batch.unwrap();
///     let _ = batch.fields[0].shape();
/// }
/// producer.join().unwrap();
/// ```
pub struct Producer {
    /// One feeder+publish pipeline per shard (index = shard).
    pipelines: Vec<TensorProducer>,
    /// The epoch coordinator keeping the shards in lockstep; `None` for a
    /// single pipeline.
    coordinator: Option<Arc<EpochCoordinator>>,
    endpoint: String,
    ctx: TsContext,
    arena: Option<Arc<ShmArena>>,
}

impl std::fmt::Debug for Producer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("endpoint", &self.endpoint)
            .field("shards", &self.num_shards())
            .field("arena", &self.arena.as_ref().map(|a| a.path().to_owned()))
            .finish()
    }
}

impl Producer {
    /// Starts building a producer.
    pub fn builder() -> ProducerBuilder {
        ProducerBuilder::new()
    }

    /// Number of shard pipelines (1 for a plain producer).
    pub fn num_shards(&self) -> usize {
        self.pipelines.len()
    }

    /// The base endpoint URI consumers attach to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The runtime context the producer spawned in (its registry, device
    /// books and metrics).
    pub fn context(&self) -> &TsContext {
        &self.ctx
    }

    /// The shared-memory arena the builder provisioned, if any.
    pub fn arena(&self) -> Option<&Arc<ShmArena>> {
        self.arena.as_ref()
    }

    /// The epoch coordinator, when sharded (inspection and tests).
    pub fn coordinator(&self) -> Option<&Arc<EpochCoordinator>> {
        self.coordinator.as_ref()
    }

    /// Requests every pipeline to stop after the batch in flight.
    pub fn abort(&self) {
        if let Some(c) = &self.coordinator {
            c.stop();
        }
        for p in &self.pipelines {
            p.abort();
        }
    }

    /// Waits for every pipeline to finish; returns the stats aggregated
    /// across shards (see [`Producer::join_shards`] for per-shard
    /// numbers). An aborted producer returns its partial stats rather than
    /// an error.
    pub fn join(self) -> Result<ProducerStats> {
        let per_shard = self.join_shards()?;
        let mut total = ProducerStats::default();
        for s in &per_shard {
            total.batches_published += s.batches_published;
            total.batches_replayed += s.batches_replayed;
            total.bytes_staged += s.bytes_staged;
            total.consumers_detached += s.consumers_detached;
            total.joins_rejected += s.joins_rejected;
            total.peak_consumers = total.peak_consumers.max(s.peak_consumers);
        }
        // Epochs complete only when every shard finished them.
        total.epochs_completed = per_shard
            .iter()
            .map(|s| s.epochs_completed)
            .min()
            .unwrap_or(0);
        Ok(total)
    }

    /// Waits for every pipeline to finish; returns per-shard stats
    /// (index = shard).
    pub fn join_shards(self) -> Result<Vec<ProducerStats>> {
        let shards = self.num_shards();
        let stats = self
            .pipelines
            .into_iter()
            .map(TensorProducer::join)
            .collect::<Result<Vec<_>>>()?;
        // The builder provisioned the recycling pools, so it also drains
        // them: idle recycled slots hold a producer reference each, and
        // without this the arena would report them in use forever.
        if self.arena.is_some() {
            if let Some(pool) = self.ctx.registry.slot_pool() {
                pool.drain();
            }
            for shard in 0..shards as u32 {
                if let Some(pool) = self.ctx.registry.shard_slot_pool(shard) {
                    pool.drain();
                }
            }
        }
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------------

/// Builder for a [`Consumer`]; start from [`Consumer::builder`]. It holds
/// what the user sets and nothing else: topology, payload mode, arena and
/// log are the producer's to say, in its WELCOME.
pub struct ConsumerBuilder {
    pub(crate) ctx: Option<TsContext>,
    pub(crate) batch_size: Option<usize>,
    pub(crate) heartbeat_interval: Duration,
    pub(crate) recv_timeout: Duration,
    pub(crate) handshake_timeout: Duration,
    pub(crate) consumer_id: Option<u64>,
    pub(crate) local_pipeline: Option<Arc<ts_data::Pipeline>>,
    pub(crate) group: Option<String>,
    pub(crate) shards_override: Option<usize>,
    pub(crate) payload_mode: Option<PayloadMode>,
}

impl ConsumerBuilder {
    pub(crate) fn new() -> Self {
        Self {
            ctx: None,
            batch_size: None,
            heartbeat_interval: Duration::from_millis(200),
            recv_timeout: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(10),
            consumer_id: None,
            local_pipeline: None,
            group: None,
            shards_override: None,
            payload_mode: None,
        }
    }

    /// Runtime context to attach from. Defaults to a fresh
    /// [`TsContext::host_only`] — which is correct for `ipc://`/`tcp://`
    /// attaches from an independent process; share the producer's context
    /// for `inproc://`.
    pub fn context(mut self, ctx: &TsContext) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// Desired batch size under flexible sizing (ignored otherwise).
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = Some(n);
        self
    }

    /// Interval between heartbeats (must be well below the producer's
    /// timeout).
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// How long `next` waits for data before giving up.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// How long [`ConsumerBuilder::connect`] waits for the producer's
    /// WELCOME before failing with a timeout (default 10 s).
    pub fn handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Fixed consumer id (`None` picks a random one).
    pub fn consumer_id(mut self, id: u64) -> Self {
        self.consumer_id = Some(id);
        self
    }

    /// Consumer-local augmentation applied to every received batch's
    /// primary field (finer-grained sharing, §5).
    pub fn local_pipeline(mut self, pipeline: Arc<ts_data::Pipeline>) -> Self {
        self.local_pipeline = Some(pipeline);
        self
    }

    /// Names this consumer's **group**: when the producer keeps a durable
    /// log (its WELCOME advertises it), connect sends `Replay` per shard
    /// and resumes from the group's persisted cursor — a consumer
    /// restarted after a crash (`kill -9` included) replays the logged
    /// range it never acked, then splices onto the live stream
    /// byte-identically. Resume is cursor-exact when this is the only
    /// consumer; rejoining alongside active consumers re-delivers the
    /// current epoch from its start (epoch-coherent — the rubberband
    /// admission point caps the replay cursor; already-acked batches are
    /// re-delivered identically and leave the cursor untouched). Without
    /// a log the name is inert and the consumer joins live-only.
    pub fn group(mut self, name: impl Into<String>) -> Self {
        self.group = Some(name.into());
        self
    }

    /// Insists on a shard count instead of trusting the advertisement.
    /// Normally unnecessary — the handshake learns the topology — but a
    /// deployment that *knows* its shape can assert it; a mismatch fails
    /// with [`crate::HandshakeError::Topology`] instead of training on the wrong
    /// topology.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards_override = Some(shards);
        self
    }

    /// Forces the payload mode instead of negotiating it at attach:
    /// [`PayloadMode::Shm`] insists on pointer-passing (the arena must
    /// open, or connect fails with [`crate::HandshakeError::ArenaMissing`]);
    /// [`PayloadMode::Stream`] insists on byte streaming (the producer
    /// must grant it, or connect fails with [`crate::HandshakeError::Mode`]).
    /// Unset, the consumer prefers shm and falls back to streaming when
    /// the advertised arena cannot be opened — the remote-host case.
    /// The `TS_FORCE_PAYLOAD_MODE` environment variable (`shm` /
    /// `stream`) forces the mode too, with this method taking precedence.
    pub fn payload_mode(mut self, mode: PayloadMode) -> Self {
        self.payload_mode = Some(mode);
        self
    }

    /// Attaches to the producer at `endpoint` — the **only** required
    /// parameter. The HELLO/WELCOME handshake reports the shard count,
    /// arena geometry and batch schema; this call validates them (typed
    /// [`crate::HandshakeError`]s on mismatch), maps the advertised arena if one
    /// backs the payload path, joins every shard and returns the
    /// iterating consumer.
    pub fn connect<E>(self, endpoint: E) -> Result<Consumer>
    where
        E: TryInto<Endpoint>,
        E::Error: Into<TsError>,
    {
        let endpoint = endpoint.try_into().map_err(Into::into)?.to_string();
        Consumer::attach(self, endpoint)
    }
}
