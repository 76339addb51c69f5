//! Collation: building batches (and producer batches) from samples.
//!
//! The producer "collates the data it receives from the data loader into
//! producer batch sizes" (§3.2.6, step 1 in Figure 5). [`stack0`] stacks
//! equally shaped samples into a batch with a new leading dimension;
//! [`cat0`] concatenates batches along the existing leading dimension —
//! that is how several loader batches fuse into one contiguous producer
//! batch slab (optionally in a pooled buffer via [`cat0_pooled`]).

use crate::pool::{MemoryPool, SlotPool};
use crate::shape::contiguous_strides;
use crate::storage::{fresh_storage_id, Storage};
use crate::{Result, Tensor, TensorError};
use std::sync::Arc;
use ts_device::DeviceId;
use ts_shm::ShmLease;

fn check_same_meta(tensors: &[Tensor], same_all_dims: bool) -> Result<()> {
    let first = &tensors[0];
    for t in &tensors[1..] {
        if t.dtype() != first.dtype() {
            return Err(TensorError::DType {
                expected: first.dtype(),
                got: t.dtype(),
            });
        }
        let (a, b) = if same_all_dims {
            (t.shape(), first.shape())
        } else {
            (&t.shape()[1..], &first.shape()[1..])
        };
        if a != b {
            return Err(TensorError::Shape(format!(
                "collate shape mismatch: {:?} vs {:?}",
                t.shape(),
                first.shape()
            )));
        }
        if t.device() != first.device() {
            return Err(TensorError::Device(format!(
                "collate device mismatch: {} vs {}",
                t.device(),
                first.device()
            )));
        }
    }
    Ok(())
}

/// Stacks equally shaped tensors into a new leading dimension.
pub fn stack0(tensors: &[Tensor]) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape("stack0 of zero tensors".to_string()));
    }
    check_same_meta(tensors, true)?;
    let first = &tensors[0];
    let mut shape = Vec::with_capacity(first.ndim() + 1);
    shape.push(tensors.len());
    shape.extend_from_slice(first.shape());
    let mut data = Vec::with_capacity(tensors.len() * first.view_bytes());
    for t in tensors {
        data.extend_from_slice(&t.gather_bytes());
    }
    Tensor::from_bytes(data, first.dtype(), &shape, first.device())
}

/// Concatenates tensors along dimension 0.
pub fn cat0(tensors: &[Tensor]) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape("cat0 of zero tensors".to_string()));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    let mut data = Vec::with_capacity(rows * first.view_bytes() / first.shape()[0].max(1));
    for t in tensors {
        data.extend_from_slice(&t.gather_bytes());
    }
    Tensor::from_bytes(data, first.dtype(), &shape, first.device())
}

/// [`cat0`] into a buffer checked out from `pool`; the slab returns to the
/// pool when the last view over it drops. The pool's buffer length must be
/// at least the concatenated byte size (excess bytes stay unused).
pub fn cat0_pooled(tensors: &[Tensor], pool: &MemoryPool, device: DeviceId) -> Result<Tensor> {
    if tensors.is_empty() {
        return Err(TensorError::Shape(
            "cat0_pooled of zero tensors".to_string(),
        ));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    let total_bytes: usize = tensors.iter().map(|t| t.view_bytes()).sum();
    if pool.buf_len() < total_bytes {
        return Err(TensorError::Shape(format!(
            "pool slab of {} B too small for producer batch of {} B",
            pool.buf_len(),
            total_bytes
        )));
    }
    let mut buf = pool.checkout();
    let mut cursor = 0;
    for t in tensors {
        let bytes = t.gather_bytes();
        buf[cursor..cursor + bytes.len()].copy_from_slice(&bytes);
        cursor += bytes.len();
    }
    let storage = Arc::new(Storage::new_pooled(buf, device, pool.return_handle()));
    Tensor::from_parts(
        storage,
        first.dtype(),
        shape.clone(),
        contiguous_strides(&shape),
        0,
    )
}

/// [`cat0`] directly into a leased shared-memory slot from `pool`: the
/// concatenated bytes are written exactly once, into the arena slot that
/// consumers will map, so the later publish moves no payload bytes — the
/// collation *is* the placement.
///
/// The returned tensor's storage is a zero-copy view of the leased slot
/// (under a fresh storage id), and the returned [`ShmLease`] still holds
/// the lease's producer reference: at publish time,
/// [`ShmLease::into_handle`] it into
/// [`crate::SharedRegistry::register_placed`] so the slot recycles through
/// `pool` when the registration releases. An item that never reaches the
/// publish stage (shutdown, epoch abort) simply drops the lease, freeing
/// the slot. Fails with [`TensorError::Arena`] carrying the arena's error
/// when no slot can be leased: [`ts_shm::ShmError::Full`] (every slot
/// held by a live batch or still pinned by a reader) clears as batches
/// are acknowledged, so the caller may wait and retry;
/// [`ts_shm::ShmError::TooLarge`] never will.
pub fn cat0_leased(
    tensors: &[Tensor],
    pool: &SlotPool,
    device: DeviceId,
) -> Result<(Tensor, ShmLease)> {
    if tensors.is_empty() {
        return Err(TensorError::Shape(
            "cat0_leased of zero tensors".to_string(),
        ));
    }
    check_same_meta(tensors, false)?;
    let first = &tensors[0];
    let rows: usize = tensors.iter().map(|t| t.shape()[0]).sum();
    let mut shape = first.shape().to_vec();
    shape[0] = rows;
    let total_bytes: usize = tensors.iter().map(|t| t.view_bytes()).sum();
    let mut lease = pool.lease(total_bytes).map_err(TensorError::Arena)?;
    let dst = lease.bytes_mut();
    let mut cursor = 0;
    for t in tensors {
        let bytes = t.gather_bytes();
        dst[cursor..cursor + bytes.len()].copy_from_slice(&bytes);
        cursor += bytes.len();
    }
    // The tensor's storage pins the slot with its own read reference; the
    // producer reference stays with the lease we hand back.
    let view = pool
        .arena()
        .attach(lease.handle())
        .map_err(TensorError::Arena)?;
    let storage = Arc::new(Storage::from_shm_view(fresh_storage_id(), view, device));
    let tensor = Tensor::from_parts(
        storage,
        first.dtype(),
        shape.clone(),
        contiguous_strides(&shape),
        0,
    )?;
    Ok((tensor, lease))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[u8], shape: &[usize]) -> Tensor {
        Tensor::from_u8(vals.to_vec(), shape, DeviceId::Cpu).unwrap()
    }

    #[test]
    fn stack_adds_leading_dim() {
        let s = stack0(&[t(&[1, 2], &[2]), t(&[3, 4], &[2]), t(&[5, 6], &[2])]).unwrap();
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cat_extends_leading_dim() {
        let c = cat0(&[t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6], &[1, 2])]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn mismatched_inner_dims_rejected() {
        assert!(cat0(&[t(&[1, 2], &[1, 2]), t(&[1, 2, 3], &[1, 3])]).is_err());
        assert!(stack0(&[t(&[1, 2], &[2]), t(&[1, 2, 3], &[3])]).is_err());
    }

    #[test]
    fn mismatched_dtype_rejected() {
        let a = t(&[1, 2], &[2]);
        let b = Tensor::from_f32(&[1.0, 2.0], &[2], DeviceId::Cpu).unwrap();
        assert!(matches!(
            stack0(&[a, b]).unwrap_err(),
            TensorError::DType { .. }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(stack0(&[]).is_err());
        assert!(cat0(&[]).is_err());
    }

    #[test]
    fn pooled_cat_reuses_slab() {
        let pool = MemoryPool::new(16, 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        {
            let producer_batch = cat0_pooled(&parts, &pool, DeviceId::Gpu(0)).unwrap();
            assert_eq!(producer_batch.shape(), &[4, 2]);
            assert_eq!(producer_batch.device(), DeviceId::Gpu(0));
            assert_eq!(
                producer_batch.to_vec_u8().unwrap(),
                vec![1, 2, 3, 4, 5, 6, 7, 8]
            );
            // slices keep the slab alive
            let slice = producer_batch.narrow(0, 1, 2).unwrap();
            drop(producer_batch);
            assert_eq!(slice.to_vec_u8().unwrap(), vec![3, 4, 5, 6]);
        }
        // slab returned once all views dropped
        assert_eq!(pool.free_count(), 1);
        let (_, misses, returned) = pool.stats();
        assert_eq!((misses, returned), (1, 1));
    }

    #[test]
    fn leased_cat_collates_into_the_arena_slot() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-lease-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 4, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        let (batch, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        let handle = lease.into_handle();
        assert_eq!(batch.shape(), &[4, 2]);
        assert!(
            batch.storage().is_shared_memory(),
            "tensor IS the slot view"
        );
        assert_eq!(batch.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // The slot holds the same bytes — no second placement needed.
        assert_eq!(
            &arena.attach(handle).unwrap()[..],
            &[1, 2, 3, 4, 5, 6, 7, 8]
        );
        drop(batch);
        pool.reclaim(handle);
        // Steady state: the next collation recycles the same slot.
        let (again, lease2) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        assert_eq!(again.to_vec_u8().unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        drop(again);
        pool.reclaim(lease2.into_handle());
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn bytes_borrowed_from_a_leased_tensor_pin_its_slot() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-borrow-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 2, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        let (batch, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        let handle = lease.into_handle();
        // What a streamed frame holds: the slot's own memory, not a copy.
        let borrowed = batch.shared_bytes().unwrap();
        assert_eq!(borrowed.as_ptr(), batch.bytes().unwrap().as_ptr());
        let row = batch.narrow(0, 1, 2).unwrap().shared_bytes().unwrap();
        assert_eq!(&row[..], &[3, 4, 5, 6]);
        drop((batch, row));
        // The batch is released, the frame is still queued somewhere: the
        // slot may not be rewritten...
        assert!(matches!(
            arena.try_recycle_in_place(handle, 8),
            Err(ts_shm::ShmError::Busy { .. })
        ));
        pool.reclaim(handle);
        let other = [t(&[9; 8], &[4, 2])];
        let (next, next_lease) = cat0_leased(&other, &pool, DeviceId::Cpu).unwrap();
        assert_eq!(
            pool.stats().busy_discards,
            1,
            "the pinned slot was passed over"
        );
        assert_ne!(next_lease.handle().slot, handle.slot);
        assert_eq!(&borrowed[..], &[1, 2, 3, 4, 5, 6, 7, 8], "and is intact");
        // ...and once the frame is gone the slot is anyone's again.
        drop(borrowed);
        let (again, again_lease) = cat0_leased(&other, &pool, DeviceId::Cpu).unwrap();
        assert_eq!(again_lease.handle().slot, handle.slot);
        drop((next, again));
        pool.reclaim(next_lease.into_handle());
        pool.reclaim(again_lease.into_handle());
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn dropped_lease_from_leased_cat_frees_its_slot() {
        let path = std::env::temp_dir().join(format!(
            "ts-collate-lease-drop-{}.arena",
            std::process::id()
        ));
        let arena = ts_shm::ShmArena::create(path, 4, 64).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2])];
        let (batch, lease) = cat0_leased(&parts, &pool, DeviceId::Cpu).unwrap();
        // An item abandoned before publish: dropping tensor + lease must
        // leave nothing behind in the arena.
        drop(batch);
        drop(lease);
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn pooled_cat_checks_slab_size() {
        let pool = MemoryPool::new(4, 2);
        let parts = [t(&[1, 2, 3, 4], &[2, 2]), t(&[5, 6, 7, 8], &[2, 2])];
        assert!(cat0_pooled(&parts, &pool, DeviceId::Cpu).is_err());
    }
}
