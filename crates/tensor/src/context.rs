//! Device context: explicit accounting for allocations and transfers.
//!
//! Tensors themselves do not touch the books (construction is pure); the
//! runtime layers call into a [`DeviceCtx`] when data logically lands on or
//! moves between devices, which is what produces the PCIe/NVLink/VRAM rows
//! of Tables 3 and 4.

use crate::{Result, Tensor, TensorError};
use std::collections::HashMap;
use ts_device::{DeviceId, MemoryBook, Topology, TrafficBook, TransferPath};

/// Books for one node: topology, per-device memory, link traffic.
#[derive(Debug, Clone)]
pub struct DeviceCtx {
    topology: Topology,
    memory: HashMap<DeviceId, MemoryBook>,
    traffic: TrafficBook,
}

impl DeviceCtx {
    /// Builds a context with a memory book per device. GPU capacities come
    /// from `gpu_vram_bytes` (index = GPU id); host memory is unbounded.
    pub fn new(topology: Topology, gpu_vram_bytes: &[u64]) -> Self {
        let mut memory = HashMap::new();
        memory.insert(DeviceId::Cpu, MemoryBook::unbounded());
        for g in 0..topology.gpu_count() {
            let cap = gpu_vram_bytes.get(g as usize).copied().unwrap_or(u64::MAX);
            memory.insert(DeviceId::Gpu(g), MemoryBook::new(cap));
        }
        Self {
            topology,
            memory,
            traffic: TrafficBook::new(),
        }
    }

    /// A context with one unbounded CPU device (handy for tests/examples).
    pub fn host_only() -> Self {
        Self::new(Topology::new(0, false), &[])
    }

    /// The node topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The traffic book.
    pub fn traffic(&self) -> &TrafficBook {
        &self.traffic
    }

    /// Memory book of a device.
    pub fn memory(&self, device: DeviceId) -> Result<&MemoryBook> {
        self.memory
            .get(&device)
            .ok_or_else(|| TensorError::Device(format!("unknown device {device}")))
    }

    /// Accounts an allocation of `bytes` on `device`.
    pub fn account_alloc(&self, device: DeviceId, bytes: u64) -> Result<()> {
        self.memory(device)?
            .alloc(bytes)
            .map_err(TensorError::OutOfMemory)
    }

    /// Accounts a free of `bytes` on `device`.
    pub fn account_free(&self, device: DeviceId, bytes: u64) -> Result<()> {
        self.memory(device)?.free(bytes);
        Ok(())
    }

    /// Copies `tensor` to `device`, accounting the allocation on the target
    /// and the bytes moved on every hop of the route (NVLink preferred for
    /// GPU↔GPU, PCIe bounce otherwise — §3.2.4), and **modeling the link
    /// copy time**: each hop costs `bytes / bandwidth` of wall time at the
    /// hop link's bandwidth, matching the staged path's `SimBackend` so
    /// comparisons against it carry the same transfer cost.
    /// Sub-microsecond copies skip the sleep, like the staged path — tiny
    /// test tensors cost nothing.
    pub fn transfer(&self, tensor: &Tensor, device: DeviceId) -> Result<Tensor> {
        self.transfer_with_bandwidth(tensor, device, None)
    }

    /// [`DeviceCtx::transfer`] with a **caller-scoped** modeled-bandwidth
    /// override (bytes/second) replacing each hop link's bandwidth.
    /// Benchmarks constrain it so transfer time is visible at small batch
    /// sizes — mirroring `SimBackend::with_bandwidth` on the staged path
    /// — without mutating any state shared with other users of these
    /// books.
    pub fn transfer_with_bandwidth(
        &self,
        tensor: &Tensor,
        device: DeviceId,
        bandwidth_override: Option<f64>,
    ) -> Result<Tensor> {
        let path = self.topology.path(tensor.device(), device).ok_or_else(|| {
            TensorError::Device(format!("no path from {} to {device}", tensor.device()))
        })?;
        if matches!(path, TransferPath::Local) {
            return Ok(tensor.clone());
        }
        let bytes = tensor.view_bytes() as u64;
        self.account_alloc(device, bytes)?;
        let mut modeled_secs = 0.0;
        for hop in path.hops() {
            self.traffic.record_hop(hop.from, hop.to, hop.kind, bytes);
            let bps = bandwidth_override.unwrap_or_else(|| {
                self.topology
                    .direct_link(hop.from, hop.to)
                    .map(|l| l.bandwidth_bps)
                    .unwrap_or(f64::INFINITY)
            });
            if bps.is_finite() && bps > 0.0 {
                modeled_secs += bytes as f64 / bps;
            }
        }
        if modeled_secs >= 1e-6 {
            std::thread::sleep(std::time::Duration::from_secs_f64(modeled_secs));
        }
        Ok(tensor.to_device(device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::traffic::Channel;

    fn ctx4() -> DeviceCtx {
        DeviceCtx::new(Topology::new(4, true), &[1_000_000; 4])
    }

    #[test]
    fn host_to_gpu_accounts_pcie_and_vram() {
        let ctx = ctx4();
        let t = Tensor::rand_u8(&[100], DeviceId::Cpu, 0);
        let g = ctx.transfer(&t, DeviceId::Gpu(0)).unwrap();
        assert_eq!(g.device(), DeviceId::Gpu(0));
        assert_eq!(ctx.traffic().bytes(Channel::Pcie(0)), 100);
        assert_eq!(ctx.memory(DeviceId::Gpu(0)).unwrap().in_use(), 100);
    }

    #[test]
    fn transfer_models_link_copy_time() {
        let ctx = ctx4();
        // 100 KB at 10 MB/s ≈ 10 ms of modeled PCIe time.
        let t = Tensor::rand_u8(&[100_000], DeviceId::Cpu, 0);
        let started = std::time::Instant::now();
        ctx.transfer_with_bandwidth(&t, DeviceId::Gpu(0), Some(10e6))
            .unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(8),
            "copy should cost ~10ms of modeled link time, took {elapsed:?}"
        );
        // The override is caller-scoped: a plain transfer on the same
        // books models the default link bandwidth, costing ~4µs — far
        // under the asserted floor.
        let started = std::time::Instant::now();
        ctx.transfer(&t, DeviceId::Gpu(1)).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_millis(8));
    }

    #[test]
    fn gpu_to_gpu_uses_nvlink() {
        let ctx = ctx4();
        let t = Tensor::rand_u8(&[64], DeviceId::Cpu, 0);
        let on0 = ctx.transfer(&t, DeviceId::Gpu(0)).unwrap();
        let on3 = ctx.transfer(&on0, DeviceId::Gpu(3)).unwrap();
        assert_eq!(on3.device(), DeviceId::Gpu(3));
        assert_eq!(ctx.traffic().bytes(Channel::NvLink(3)), 64);
        // only the initial h2d went over PCIe
        assert_eq!(ctx.traffic().bytes(Channel::Pcie(0)), 64);
        assert_eq!(ctx.traffic().bytes(Channel::Pcie(3)), 0);
    }

    #[test]
    fn local_transfer_moves_nothing() {
        let ctx = ctx4();
        let t = Tensor::rand_u8(&[8], DeviceId::Cpu, 0);
        let same = ctx.transfer(&t, DeviceId::Cpu).unwrap();
        assert_eq!(same.storage_id(), t.storage_id());
        assert!(ctx.traffic().snapshot().is_empty());
    }

    #[test]
    fn transfer_respects_vram_capacity() {
        let ctx = DeviceCtx::new(Topology::new(1, false), &[50]);
        let t = Tensor::rand_u8(&[100], DeviceId::Cpu, 0);
        assert!(matches!(
            ctx.transfer(&t, DeviceId::Gpu(0)).unwrap_err(),
            TensorError::OutOfMemory(_)
        ));
    }

    #[test]
    fn unknown_device_is_error() {
        let ctx = ctx4();
        let t = Tensor::rand_u8(&[1], DeviceId::Cpu, 0);
        assert!(ctx.transfer(&t, DeviceId::Gpu(9)).is_err());
    }
}
