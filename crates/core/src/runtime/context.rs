//! The shared runtime context.

use crate::{Result, TsError};
use std::path::Path;
use std::sync::Arc;
use ts_device::Topology;
use ts_metrics::{Counter, Registry, TraceRing};
use ts_shm::ShmArena;
use ts_socket::{Context as SocketContext, TransportStats};
use ts_tensor::{DeviceCtx, SharedRegistry, SlotPool};

/// Everything producer and consumers share within one node:
/// the socket context, the storage handle table, and the device books.
///
/// Cloning is cheap and shares state — one `TsContext` models one machine
/// **within one process**. For the paper's real deployment model —
/// independent training *processes* collocated on a machine — each process
/// builds its own context, the endpoints use `ipc://` (or `tcp://`)
/// URIs, and batch bytes travel through a shared-memory arena:
///
/// * the producer process passes `.arena(path)` (or `.arena_sized(..)`)
///   to its [`crate::Producer`] builder, the one place an arena and its
///   per-shard slot pools are made;
/// * each consumer process learns the arena from the attach handshake
///   and maps it ([`TsContext::open_arena`]) inside
///   [`crate::ConsumerBuilder::connect`].
///
/// Only announce/ack metadata then crosses the sockets; payload bytes are
/// written once into the arena and mapped zero-copy by every consumer.
#[derive(Debug, Clone)]
pub struct TsContext {
    /// Socket context (ZeroMQ context equivalent): the namespace of
    /// `inproc://` endpoints.
    pub sockets: SocketContext,
    /// Storage handle table (CUDA IPC handle equivalent).
    pub registry: SharedRegistry,
    /// Device topology, memory and traffic books.
    pub devices: Arc<DeviceCtx>,
    /// Shared metrics registry: counters (`producer.batches`,
    /// `producer.replays`, `producer.bytes_staged`, `producer.detached`,
    /// `producer.ctrl_unknown`, `consumer.batches`, `consumer.samples`,
    /// `consumer.acks`, `staging.h2d_bytes`), per-stage latency
    /// histograms (`stage.*_ns`, `staging.*_ns`, `consumer.*_ns`) and
    /// gauges — see the crate-level *Observability* section for the full
    /// reference table. Every producer answers a control-plane
    /// [`crate::runtime::scrape::scrape_stats`] request with a snapshot
    /// of this registry, which is what the `ts-top` CLI renders.
    pub metrics: Registry,
    /// The batch flight recorder: every producer shard, staging stage and
    /// in-process consumer sharing this context stamps per-batch span
    /// timelines (keyed by `(epoch, shard, seq)`) into this one ring, so
    /// one record covers a batch's whole cross-stage life. Producers
    /// answer [`crate::runtime::scrape::scrape_trace`] requests with its
    /// last-N completed records, and the stall watchdog parks its last
    /// verdict here.
    pub trace: Arc<TraceRing>,
}

/// Carries one sending socket's transport counters (`ts-socket` keeps its
/// own; it does not know the registry) into `transport.inline_frames`,
/// `transport.queued_frames` and `transport.inline_wouldblock`. The
/// registry's counters are sums over every socket mirrored into them.
pub(crate) struct TransportMirror {
    counters: [Arc<Counter>; 3],
    seen: TransportStats,
}

impl TransportMirror {
    pub(crate) fn new(metrics: &Registry) -> Self {
        let counter = |name: &str| metrics.counter(&format!("transport.{name}"));
        Self {
            counters: ["inline_frames", "queued_frames", "inline_wouldblock"].map(counter),
            seen: TransportStats::default(),
        }
    }

    /// Adds what the socket counted since the last call.
    pub(crate) fn sync(&mut self, now: TransportStats) {
        let fields = |s: &TransportStats| [s.inline_frames, s.queued_frames, s.inline_wouldblock];
        for ((counter, now), seen) in self
            .counters
            .iter()
            .zip(fields(&now))
            .zip(fields(&self.seen))
        {
            counter.add(now - seen);
        }
        self.seen = now;
    }
}

impl TsContext {
    /// A context over an explicit device configuration.
    pub fn new(devices: DeviceCtx) -> Self {
        Self {
            sockets: SocketContext::new(),
            registry: SharedRegistry::new(),
            devices: Arc::new(devices),
            metrics: Registry::new(),
            trace: Arc::new(TraceRing::new()),
        }
    }

    /// A host-only context (no GPUs); the default for tests and examples.
    pub fn host_only() -> Self {
        Self::new(DeviceCtx::host_only())
    }

    /// A context with `gpus` GPUs of `vram_bytes` each, NVLink-connected
    /// when `nvlink` is set.
    pub fn with_gpus(gpus: u8, vram_bytes: u64, nvlink: bool) -> Self {
        let vram: Vec<u64> = (0..gpus).map(|_| vram_bytes).collect();
        Self::new(DeviceCtx::new(Topology::new(gpus, nvlink), &vram))
    }

    /// Creates a shared-memory payload arena and binds it to this
    /// context's registry with one recycling slot pool per shard — shard
    /// `s`'s pool keeps at most `depths[s]` idle slots (producer-process
    /// side). The producer builder is its one caller: the arena is how a
    /// producer's feeders lease the slots they collate into, and a lease
    /// from its shard's pool is the only way a payload byte enters it.
    /// The file is unlinked when the arena (last `Arc`) drops.
    pub(crate) fn create_arena(
        &self,
        path: impl AsRef<Path>,
        nslots: usize,
        slot_size: usize,
        depths: &[usize],
    ) -> Result<Arc<ShmArena>> {
        let arena =
            ShmArena::create(path, nslots, slot_size).map_err(|e| TsError::Arena(e.to_string()))?;
        self.registry.bind_arena(arena.clone());
        for (shard, &depth) in depths.iter().enumerate() {
            let pool = SlotPool::new(arena.clone(), depth);
            self.registry.bind_shard_slot_pool(shard as u32, pool);
        }
        Ok(arena)
    }

    /// Opens the producer's arena file (consumer-process side) and binds
    /// it to this context's registry, so payloads announcing arena
    /// placements rebuild zero-copy.
    pub fn open_arena(&self, path: impl AsRef<Path>) -> Result<Arc<ShmArena>> {
        let arena = ShmArena::open(path).map_err(|e| TsError::Arena(e.to_string()))?;
        self.registry.bind_arena(arena.clone());
        Ok(arena)
    }

    /// The shared-memory arena bound to this context's registry, if any.
    pub fn arena(&self) -> Option<Arc<ShmArena>> {
        self.registry.arena()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;

    #[test]
    fn contexts_share_registry_across_clones() {
        let ctx = TsContext::host_only();
        let view = ctx.clone();
        let t = ts_tensor::Tensor::zeros(&[4], ts_tensor::DType::U8, DeviceId::Cpu);
        ctx.registry.register(t.storage());
        assert!(view.registry.lookup(t.storage_id()).is_ok());
    }

    #[test]
    fn gpu_context_has_books() {
        let ctx = TsContext::with_gpus(2, 1_000, true);
        assert!(ctx.devices.memory(DeviceId::Gpu(1)).is_ok());
        assert!(ctx.devices.memory(DeviceId::Gpu(2)).is_err());
    }
}
