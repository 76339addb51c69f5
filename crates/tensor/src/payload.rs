//! Tensor payloads: the pointer-plus-metadata packets TensorSocket ships
//! instead of data (§3.2.4).
//!
//! A [`TensorPayload`] is everything a consumer needs to rebuild a tensor
//! view with zero copies: the storage id (the "pointer"), device, dtype,
//! shape, strides and offset. The wire encoding is a tiny fixed-layout
//! little-endian format; the whole payload for a typical image batch is
//! under 100 bytes regardless of batch size — that is the entire point of
//! pointer sharing.

use crate::shape::contiguous_strides;
use crate::{DType, Result, SharedRegistry, Tensor, TensorError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ts_device::DeviceId;
use ts_shm::ShmHandle;

/// A packed description of a tensor view over a shared storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorPayload {
    /// Id of the shared storage ("device pointer").
    pub storage_id: u64,
    /// Device the storage lives on.
    pub device: DeviceId,
    /// Element type.
    pub dtype: DType,
    /// Dimension extents.
    pub shape: Vec<usize>,
    /// Strides in elements.
    pub strides: Vec<usize>,
    /// Offset into the storage in elements.
    pub offset: usize,
    /// Shared-memory arena placement of the storage, for consumers in
    /// other OS processes (`None` for in-process sharing).
    pub shm: Option<ShmHandle>,
}

impl TensorPayload {
    /// Packs a tensor into a payload. The caller must have registered the
    /// tensor's storage in the [`SharedRegistry`] for unpacking to succeed.
    pub fn pack(tensor: &Tensor) -> Self {
        Self {
            storage_id: tensor.storage_id(),
            device: tensor.device(),
            dtype: tensor.dtype(),
            shape: tensor.shape().to_vec(),
            strides: tensor.strides().to_vec(),
            offset: tensor.offset(),
            shm: None,
        }
    }

    /// Packs a tensor, embedding the registry's shared-memory placement of
    /// its storage (if any) so consumers in *other OS processes* can
    /// rebuild it from the arena. Falls back to [`TensorPayload::pack`]
    /// semantics when no arena is bound.
    pub fn pack_shared(tensor: &Tensor, registry: &SharedRegistry) -> Self {
        let mut payload = Self::pack(tensor);
        payload.shm = registry.shm_handle(tensor.storage_id());
        payload
    }

    /// Rebuilds the tensor view by resolving the storage id — from the
    /// local registry table, or zero-copy from the bound shared-memory
    /// arena when the payload carries a placement from another process.
    pub fn unpack(&self, registry: &SharedRegistry) -> Result<Tensor> {
        let storage = registry.resolve(self.storage_id, self.shm, self.device)?;
        Tensor::from_parts(
            storage,
            self.dtype,
            self.shape.clone(),
            self.strides.clone(),
            self.offset,
        )
    }

    /// Rebuilds the tensors of one batch, in order. Payloads that name
    /// the storage of the one before them — the tensors of a batch packed
    /// into one arena slot — share the storage resolved for it, so a batch
    /// costs one table lookup or one arena attach per slot, not one per
    /// tensor.
    pub fn unpack_batch<'a>(
        payloads: impl IntoIterator<Item = &'a TensorPayload>,
        registry: &SharedRegistry,
    ) -> Result<Vec<Tensor>> {
        let mut resolved: Option<std::sync::Arc<crate::Storage>> = None;
        payloads
            .into_iter()
            .map(|p| {
                let storage = match resolved.take() {
                    Some(s) if s.id() == p.storage_id => s,
                    _ => registry.resolve(p.storage_id, p.shm, p.device)?,
                };
                resolved = Some(storage.clone());
                Tensor::from_parts(
                    storage,
                    p.dtype,
                    p.shape.clone(),
                    p.strides.clone(),
                    p.offset,
                )
            })
            .collect()
    }

    /// Number of elements described by the payload.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Bytes described by the payload view.
    pub fn view_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// True when the strides describe a dense row-major view.
    pub fn is_contiguous(&self) -> bool {
        self.strides == contiguous_strides(&self.shape)
    }

    /// Encodes the payload into a compact little-endian frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(49 + 16 * self.shape.len());
        buf.put_u64_le(self.storage_id);
        match self.device {
            DeviceId::Cpu => buf.put_u8(0xFF),
            DeviceId::Gpu(i) => buf.put_u8(i),
        }
        buf.put_u8(self.dtype.tag());
        buf.put_u64_le(self.offset as u64);
        buf.put_u16_le(self.shape.len() as u16);
        for (&d, &s) in self.shape.iter().zip(&self.strides) {
            buf.put_u64_le(d as u64);
            buf.put_u64_le(s as u64);
        }
        match &self.shm {
            None => buf.put_u8(0),
            Some(h) => {
                buf.put_u8(1);
                buf.put_slice(&h.encode());
            }
        }
        buf.freeze()
    }

    /// Decodes a payload previously produced by [`TensorPayload::encode`].
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        let err = |m: &str| TensorError::Shape(format!("payload decode: {m}"));
        if buf.len() < 20 {
            return Err(err("truncated header"));
        }
        let storage_id = buf.get_u64_le();
        let device = match buf.get_u8() {
            0xFF => DeviceId::Cpu,
            i => DeviceId::Gpu(i),
        };
        let dtype = DType::from_tag(buf.get_u8()).ok_or_else(|| err("bad dtype tag"))?;
        let offset = buf.get_u64_le() as usize;
        let ndim = buf.get_u16_le() as usize;
        if buf.len() < ndim * 16 {
            return Err(err("truncated dims"));
        }
        let mut shape = Vec::with_capacity(ndim);
        let mut strides = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(buf.get_u64_le() as usize);
            strides.push(buf.get_u64_le() as usize);
        }
        // Shared-memory placement (absent in frames from pre-arena
        // encoders; tolerated for compatibility).
        let shm = if buf.is_empty() {
            None
        } else {
            match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.len() < ts_shm::HANDLE_BYTES {
                        return Err(err("truncated shm handle"));
                    }
                    let handle = ShmHandle::decode(buf).ok_or_else(|| err("bad shm handle"))?;
                    buf.advance(ts_shm::HANDLE_BYTES);
                    handle.into()
                }
                _ => return Err(err("bad shm flag")),
            }
        };
        Ok(Self {
            storage_id,
            device,
            dtype,
            shape,
            strides,
            offset,
            shm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(t: &Tensor) -> SharedRegistry {
        let reg = SharedRegistry::new();
        reg.register(t.storage());
        reg
    }

    #[test]
    fn pack_unpack_zero_copy() {
        let t = Tensor::rand_u8(&[4, 8], DeviceId::Gpu(0), 3);
        let reg = registry_with(&t);
        let p = TensorPayload::pack(&t);
        let rebuilt = p.unpack(&reg).unwrap();
        assert_eq!(rebuilt.storage_id(), t.storage_id());
        assert!(rebuilt.data_eq(&t));
    }

    #[test]
    fn pack_unpack_of_sliced_view() {
        let t = Tensor::rand_u8(&[16, 4], DeviceId::Gpu(1), 11);
        let slice = t.narrow(0, 5, 7).unwrap();
        let reg = registry_with(&t);
        let p = TensorPayload::pack(&slice);
        assert_eq!(p.offset, 20);
        let rebuilt = p.unpack(&reg).unwrap();
        assert!(rebuilt.data_eq(&slice));
        assert_eq!(rebuilt.storage_id(), t.storage_id());
    }

    #[test]
    fn unpack_released_storage_fails() {
        let t = Tensor::rand_u8(&[4], DeviceId::Cpu, 0);
        let reg = registry_with(&t);
        let p = TensorPayload::pack(&t);
        reg.release(t.storage_id());
        assert!(matches!(
            p.unpack(&reg).unwrap_err(),
            TensorError::DanglingPayload { .. }
        ));
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = Tensor::rand_u8(&[3, 224, 224], DeviceId::Gpu(2), 1);
        let view = t.narrow(1, 10, 100).unwrap();
        let p = TensorPayload::pack(&view);
        let decoded = TensorPayload::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn encoded_payload_is_small_and_size_independent() {
        let small = TensorPayload::pack(&Tensor::zeros(&[2, 2], DType::U8, DeviceId::Cpu));
        let huge = TensorPayload::pack(&Tensor::zeros(
            &[512, 3, 224, 224],
            DType::U8,
            DeviceId::Cpu,
        ));
        assert_eq!(small.encode().len() + 32, huge.encode().len());
        assert!(huge.encode().len() < 100);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TensorPayload::decode(&[1, 2, 3]).is_err());
        let t = Tensor::zeros(&[2], DType::U8, DeviceId::Cpu);
        let mut bytes = TensorPayload::pack(&t).encode().to_vec();
        bytes[9] = 99; // bad dtype tag
        assert!(TensorPayload::decode(&bytes).is_err());
        bytes.truncate(bytes.len() - 4); // truncated dims
        assert!(TensorPayload::decode(&bytes).is_err());
    }

    #[test]
    fn shm_handle_round_trips_on_the_wire() {
        let t = Tensor::zeros(&[4, 4], DType::U8, DeviceId::Cpu);
        let mut p = TensorPayload::pack(&t);
        p.shm = Some(ts_shm::ShmHandle {
            slot: 3,
            generation: 17,
            len: 16,
        });
        let decoded = TensorPayload::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.shm.unwrap().generation, 17);
    }

    #[test]
    fn pack_shared_embeds_arena_placement() {
        let arena_path =
            std::env::temp_dir().join(format!("ts-payload-test-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(arena_path, 2, 64).unwrap();
        let reg = SharedRegistry::new();
        let pool = crate::SlotPool::new(arena, 2);
        reg.bind_shard_slot_pool(0, pool.clone());
        // The producer's one way into the arena: collate into a lease of
        // the shard's pool, then register the slot.
        let src = Tensor::rand_u8(&[2, 4], DeviceId::Cpu, 5);
        let (t, lease) = crate::cat0_leased(&[src], &pool, DeviceId::Cpu).unwrap();
        reg.register_placed(t.storage(), lease.into_handle(), 0);
        let p = TensorPayload::pack_shared(&t, &reg);
        let handle = p.shm.expect("arena placement");
        assert_eq!(handle.len as usize, t.view_bytes());
        // A consumer-side registry with no local entry resolves through
        // the arena, bit-exactly and zero-copy.
        let consumer = SharedRegistry::new();
        consumer.bind_arena(reg.arena().unwrap());
        let decoded = TensorPayload::decode(&p.encode()).unwrap();
        let rebuilt = decoded.unpack(&consumer).unwrap();
        assert!(rebuilt.storage().is_shared_memory());
        assert!(rebuilt.data_eq(&t));
    }

    #[test]
    fn a_batch_in_one_slot_is_attached_once() {
        let arena_path =
            std::env::temp_dir().join(format!("ts-payload-batch-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(arena_path, 2, 256).unwrap();
        let reg = SharedRegistry::new();
        let pool = crate::SlotPool::new(arena.clone(), 2);
        reg.bind_shard_slot_pool(0, pool.clone());
        let fields = [Tensor::rand_u8(&[2, 4], DeviceId::Cpu, 5)];
        let labels = [Tensor::from_i64(&[3, 4], &[2], DeviceId::Cpu).unwrap()];
        let (tensors, mut leases) =
            crate::cat0_batch_leased(&[&fields[..], &labels[..]], &pool).unwrap();
        reg.register_placed(tensors[0].storage(), leases.remove(0).into_handle(), 0);
        let payloads: Vec<TensorPayload> = tensors
            .iter()
            .map(|t| TensorPayload::pack_shared(t, &reg))
            .collect();
        assert_eq!(payloads[0].shm, payloads[1].shm, "one handle");
        assert_eq!(payloads[1].offset, 64 / 8);
        let consumer = SharedRegistry::new();
        consumer.bind_arena(arena.clone());
        let handle = payloads[0].shm.unwrap();
        let before = arena.ref_count(handle).unwrap();
        let rebuilt = TensorPayload::unpack_batch(&payloads, &consumer).unwrap();
        assert_eq!(arena.ref_count(handle), Some(before + 1), "one attach");
        assert!(rebuilt[0].data_eq(&fields[0]));
        assert_eq!(rebuilt[1].to_vec_i64().unwrap(), [3, 4]);
        assert_eq!(rebuilt[0].storage_id(), rebuilt[1].storage_id());
    }

    #[test]
    fn cpu_device_round_trips() {
        let t = Tensor::zeros(&[1], DType::I64, DeviceId::Cpu);
        let p = TensorPayload::pack(&t);
        let d = TensorPayload::decode(&p.encode()).unwrap();
        assert_eq!(d.device, DeviceId::Cpu);
    }
}
