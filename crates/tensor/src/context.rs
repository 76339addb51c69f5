//! Device context: the books of one node.
//!
//! Tensors themselves do not touch the books (construction is pure). The
//! layer that puts data on a device — the runtime's staging engine, through
//! `ts-staging`'s backend — books the allocation in the device's
//! [`MemoryBook`] and the bytes moved in the [`TrafficBook`], which is what
//! produces the PCIe/NVLink/VRAM rows of Tables 3 and 4. A [`DeviceCtx`]
//! holds those books together with the topology they describe.

use crate::{Result, TensorError};
use std::collections::HashMap;
use ts_device::{DeviceId, MemoryBook, Topology, TrafficBook};

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gpu_of_the_topology_has_a_book_and_no_other_device_does() {
        let ctx = DeviceCtx::new(Topology::new(2, true), &[1_000, 2_000]);
        assert!(ctx.memory(DeviceId::Cpu).is_ok());
        assert_eq!(ctx.memory(DeviceId::Gpu(1)).unwrap().capacity(), 2_000);
        assert!(matches!(
            ctx.memory(DeviceId::Gpu(9)),
            Err(TensorError::Device(_))
        ));
        assert!(ctx.traffic().snapshot().is_empty());
    }
}
