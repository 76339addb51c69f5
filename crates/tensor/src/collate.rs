//! Collation: building batches (and producer batches) from samples.
//!
//! The producer "collates the data it receives from the data loader into
//! producer batch sizes" (§3.2.6, step 1 in Figure 5). [`stack0`] stacks
//! equally shaped samples into a batch with a new leading dimension;
//! [`cat0`] concatenates batches along the existing leading dimension —
//! that is how several loader batches fuse into one contiguous producer
//! batch slab (on the heap, or in a leased arena slot via
//! [`cat0_leased`]). Every one of them writes each part exactly once,
//! straight into the destination.
//!
//! [`BatchBuf`] turns the order around for a loader that has not decoded
//! its samples yet: it hands out the batch's memory — a heap buffer or a
//! leased arena slot — row by row, the decoder writes each sample where it
//! will stay, and the filled buffer freezes into the batch tensor. That is
//! PyTorch's `default_collate` allocating the batch in shared memory
//! inside a worker, without the per-sample tensors in between.

use crate::pool::SlotPool;
use crate::shape::contiguous_strides;
use crate::storage::{fresh_storage_id, Storage};
use crate::{DType, Result, Tensor, TensorError};
use std::sync::Arc;
use ts_device::DeviceId;
use ts_shm::ShmLease;

/// What every part of a collation must agree with: the first part's.
#[derive(Debug, Clone)]
struct Like {
    dtype: DType,
    shape: Vec<usize>,
    device: DeviceId,
}

impl Like {
    fn of(t: &Tensor) -> Self {
        Self {
            dtype: t.dtype(),
            shape: t.shape().to_vec(),
            device: t.device(),
        }
    }

    /// A part of `dtype`, `shape` and `device` against this one: every
    /// dimension must agree, or (`cat0`) every one but the leading.
    fn check(
        &self,
        dtype: DType,
        shape: &[usize],
        device: DeviceId,
        same_all_dims: bool,
    ) -> Result<()> {
        if dtype != self.dtype {
            return Err(TensorError::DType {
                expected: self.dtype,
                got: dtype,
            });
        }
        let same = if same_all_dims {
            // Dimension by dimension: this runs per row, a shape is a few
            // extents, and slice `==` is a libc call that costs more than
            // the loop (some 100 ns for a scalar's empty shape here).
            shape.iter().eq(&self.shape)
        } else {
            matches!((shape.get(1..), self.shape.get(1..)), (Some(a), Some(b)) if a == b)
        };
        if !same {
            return Err(TensorError::Shape(format!(
                "collate shape mismatch: {:?} vs {:?}",
                shape, self.shape
            )));
        }
        if device != self.device {
            return Err(TensorError::Device(format!(
                "collate device mismatch: {} vs {}",
                device, self.device
            )));
        }
        Ok(())
    }
}

fn check_same_meta(tensors: &[Tensor], same_all_dims: bool) -> Result<()> {
    let first = Like::of(&tensors[0]);
    for t in &tensors[1..] {
        first.check(t.dtype(), t.shape(), t.device(), same_all_dims)?;
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
        t.append_to(&mut data);
    }
    Tensor::from_bytes(data, first.dtype(), &shape, first.device())
}

/// The checks every `cat0` flavour starts with; returns the concatenated
/// shape and its byte size.
fn cat0_plan(tensors: &[Tensor], who: &str) -> Result<(Vec<usize>, usize)> {
    if tensors.is_empty() {
        return Err(TensorError::Shape(format!("{who} of zero tensors")));
    }
    check_same_meta(tensors, false)?;
    let mut shape = tensors[0].shape().to_vec();
    shape[0] = tensors.iter().map(|t| t.shape()[0]).sum();
    let total_bytes = tensors.iter().map(|t| t.view_bytes()).sum();
    Ok((shape, total_bytes))
}

/// A view of the slot behind `lease`, for the tensor over it: taken once
/// the slot is completely written — lease → write → attach — and pinning
/// it with a read reference of its own, beside the lease's producer
/// reference.
fn attach_written(lease: &ShmLease) -> Result<ts_shm::ShmView> {
    lease
        .arena()
        .attach(lease.handle())
        .map_err(TensorError::Arena)
}

/// Writes each part once, back to back, into `dst`.
fn write_parts(tensors: &[Tensor], dst: &mut [u8]) -> Result<()> {
    let mut at = 0;
    for t in tensors {
        let len = t.view_bytes();
        t.copy_into(&mut dst[at..at + len])?;
        at += len;
    }
    Ok(())
}

/// Concatenates tensors along dimension 0.
pub fn cat0(tensors: &[Tensor]) -> Result<Tensor> {
    let (shape, total_bytes) = cat0_plan(tensors, "cat0")?;
    let mut data = Vec::with_capacity(total_bytes);
    for t in tensors {
        t.append_to(&mut data);
    }
    Tensor::from_bytes(data, tensors[0].dtype(), &shape, tensors[0].device())
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
    let (shape, total_bytes) = cat0_plan(tensors, "cat0_leased")?;
    let mut lease = pool.lease(total_bytes).map_err(TensorError::Arena)?;
    write_parts(tensors, lease.bytes_mut())?;
    // The producer reference stays with the lease we hand back.
    let view = attach_written(&lease)?;
    let storage = Arc::new(Storage::from_shm_view(fresh_storage_id(), view, device));
    let strides = contiguous_strides(&shape);
    let tensor = Tensor::from_parts(storage, tensors[0].dtype(), shape, strides, 0)?;
    Ok((tensor, lease))
}

/// Where a [`BatchBuf`]'s bytes live.
enum Mem {
    /// Grows by one row per write; never zero-filled as a whole.
    Heap(Vec<u8>),
    /// A leased arena slot, written in place.
    Slot(ShmLease),
}

/// The memory of one batch tensor under construction: `rows` equally
/// shaped samples, written one row at a time and then frozen into the
/// `[rows, ...]` tensor — so each payload byte is written once, where it
/// will stay.
///
/// The memory is a leased slot of a [`SlotPool`] when one is offered and
/// has a slot to lease, the heap otherwise. A tensor frozen over a slot
/// **carries the lease** ([`Storage::from_leased_slot`]): whoever publishes
/// it takes the lease and registers the slot without moving a byte, and a
/// tensor dropped anywhere before that frees the slot by `Drop`. The slot
/// is attached only in [`BatchBuf::freeze`], after the last row is
/// written: lease → write → attach, as in [`cat0_leased`].
pub struct BatchBuf {
    mem: Mem,
    /// One sample's dtype, shape and device: what every row is checked
    /// against, with the errors [`stack0`] gives a mismatched sample.
    like: Like,
    row_bytes: usize,
    rows: usize,
    written: usize,
}

impl std::fmt::Debug for BatchBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchBuf")
            .field("leased", &self.is_leased())
            .field("like", &self.like)
            .field("rows", &self.rows)
            .field("written", &self.written)
            .finish()
    }
}

impl BatchBuf {
    /// Memory for `rows` samples of `dtype` and `shape` on `device`,
    /// leased from `pool` when one is given, the samples are host memory
    /// and the pool has a slot for them right now. Leasing never waits and
    /// never fails the batch: a dry pool ([`ts_shm::ShmError::Full`]) or a
    /// batch no slot can hold means the heap, and whoever needs the batch
    /// in the arena deals with that ([`cat0_leased`]).
    pub fn new(
        rows: usize,
        dtype: DType,
        shape: &[usize],
        device: DeviceId,
        pool: Option<&SlotPool>,
    ) -> Result<Self> {
        let total_bytes = shape
            .iter()
            .try_fold(dtype.size_bytes(), |n, &d| n.checked_mul(d))
            .and_then(|row_bytes| Some((row_bytes, row_bytes.checked_mul(rows)?)));
        let Some((row_bytes, total_bytes)) = total_bytes else {
            return Err(TensorError::Shape(format!(
                "a batch of {rows} samples of shape {shape:?} overflows"
            )));
        };
        let lease = pool
            .filter(|_| !device.is_gpu())
            .and_then(|pool| pool.lease(total_bytes).ok());
        Ok(Self {
            mem: match lease {
                Some(lease) => Mem::Slot(lease),
                None => Mem::Heap(Vec::with_capacity(total_bytes)),
            },
            like: Like {
                dtype,
                shape: shape.to_vec(),
                device,
            },
            row_bytes,
            rows,
            written: 0,
        })
    }

    /// [`BatchBuf::new`] for `rows` samples like `sample`.
    pub fn like(rows: usize, sample: &Tensor, pool: Option<&SlotPool>) -> Result<Self> {
        Self::new(rows, sample.dtype(), sample.shape(), sample.device(), pool)
    }

    /// True when the memory is a leased arena slot.
    pub fn is_leased(&self) -> bool {
        matches!(self.mem, Mem::Slot(_))
    }

    /// The next unwritten row.
    pub fn row(&mut self) -> RowMut<'_> {
        RowMut {
            buf: self,
            written: false,
        }
    }

    /// Copies `sample` into the next row (one copy, strided views
    /// included), checked like [`RowMut::write`].
    pub fn push(&mut self, sample: &Tensor) -> Result<()> {
        self.row().write(sample)
    }

    /// Freezes the filled memory into the contiguous `[rows, ...]` tensor.
    /// Fails unless every row was written.
    pub fn freeze(self) -> Result<Tensor> {
        if self.written != self.rows {
            return Err(TensorError::Shape(format!(
                "batch frozen with {} of {} rows written",
                self.written, self.rows
            )));
        }
        let mut shape = Vec::with_capacity(self.like.shape.len() + 1);
        shape.push(self.rows);
        shape.extend_from_slice(&self.like.shape);
        match self.mem {
            Mem::Heap(data) => Tensor::from_bytes(data, self.like.dtype, &shape, self.like.device),
            Mem::Slot(lease) => {
                let view = attach_written(&lease)?;
                let storage = Storage::from_leased_slot(view, lease, self.like.device);
                let strides = contiguous_strides(&shape);
                Tensor::from_parts(Arc::new(storage), self.like.dtype, shape, strides, 0)
            }
        }
    }
}

/// One unwritten row of a [`BatchBuf`]. Whoever fills it says what it is
/// filling it with — a tensor, or raw bytes of a declared dtype and shape
/// — and that is checked against the batch's sample before a byte is
/// written; a row can be written once.
pub struct RowMut<'a> {
    buf: &'a mut BatchBuf,
    written: bool,
}

impl RowMut<'_> {
    /// True once the row was written (or handed out to be).
    pub fn is_written(&self) -> bool {
        self.written
    }

    /// Checks a sample of `dtype`, `shape` and `device` against the batch's
    /// and that this row is still there to be written.
    fn admit(&self, dtype: DType, shape: &[usize], device: DeviceId) -> Result<()> {
        let buf = &*self.buf;
        buf.like.check(dtype, shape, device, true)?;
        if self.written || buf.written == buf.rows {
            return Err(TensorError::Shape(format!(
                "a batch row written twice, or beyond the batch's {}",
                buf.rows
            )));
        }
        Ok(())
    }

    /// Copies `sample` into the row: one copy, the strided walk for a view
    /// that is not contiguous. Dtype, shape and device must be the batch's
    /// sample's — the errors are [`stack0`]'s.
    pub fn write(&mut self, sample: &Tensor) -> Result<()> {
        self.admit(sample.dtype(), sample.shape(), sample.device())?;
        let buf = &mut *self.buf;
        match &mut buf.mem {
            Mem::Heap(data) => sample.append_to(data),
            Mem::Slot(lease) => {
                let at = buf.written * buf.row_bytes;
                sample.copy_into(&mut lease.bytes_mut()[at..at + buf.row_bytes])?;
            }
        }
        buf.written += 1;
        self.written = true;
        Ok(())
    }

    /// The row's bytes, for a decoder that writes a sample of `dtype` and
    /// `shape` straight into them. **Contract:** the caller overwrites the
    /// whole slice — a leased slot still holds its previous occupant's
    /// bytes (a heap row reads zero).
    pub fn bytes_mut(&mut self, dtype: DType, shape: &[usize]) -> Result<&mut [u8]> {
        self.admit(dtype, shape, self.buf.like.device)?;
        let buf = &mut *self.buf;
        let at = buf.written * buf.row_bytes;
        buf.written += 1;
        self.written = true;
        Ok(match &mut buf.mem {
            Mem::Heap(data) => {
                // One row, about to be overwritten while still in cache.
                data.resize(at + buf.row_bytes, 0);
                &mut data[at..]
            }
            Mem::Slot(lease) => &mut lease.bytes_mut()[at..at + buf.row_bytes],
        })
    }
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

    fn lease_arena(tag: &str, nslots: usize) -> (Arc<ts_shm::ShmArena>, SlotPool) {
        let path =
            std::env::temp_dir().join(format!("ts-collate-{tag}-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, nslots, 64).unwrap();
        (arena.clone(), SlotPool::new(arena, nslots))
    }

    #[test]
    fn strided_parts_are_written_once_and_densely() {
        // Columns 1..3 of a [2, 4] tensor: not contiguous.
        let part = t(&[0, 1, 2, 3, 4, 5, 6, 7], &[2, 4])
            .narrow(1, 1, 2)
            .unwrap();
        assert!(!part.is_contiguous());
        let want = vec![1, 2, 5, 6, 1, 2, 5, 6];
        let parts = [part.clone(), part];
        assert_eq!(cat0(&parts).unwrap().to_vec_u8().unwrap(), want);
        assert_eq!(stack0(&parts).unwrap().to_vec_u8().unwrap(), want);
        let (arena, slots) = lease_arena("strided", 2);
        let (leased, lease) = cat0_leased(&parts, &slots, DeviceId::Cpu).unwrap();
        assert_eq!(leased.to_vec_u8().unwrap(), want);
        drop((leased, lease));
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn batch_buf_matches_stack0_on_the_heap_and_in_a_slot() {
        let samples = [
            t(&[1, 2, 3], &[3]),
            t(&[4, 5, 6], &[3]),
            t(&[7, 8, 9], &[3]),
        ];
        let reference = stack0(&samples).unwrap();
        let (arena, pool) = lease_arena("buf", 2);
        for pool in [None, Some(&pool)] {
            let mut buf = BatchBuf::like(3, &samples[0], pool).unwrap();
            assert_eq!(buf.is_leased(), pool.is_some());
            // A tensor, raw bytes of a declared dtype and shape, a tensor.
            buf.push(&samples[0]).unwrap();
            buf.row()
                .bytes_mut(DType::U8, &[3])
                .unwrap()
                .copy_from_slice(&[4, 5, 6]);
            buf.push(&samples[2]).unwrap();
            let batch = buf.freeze().unwrap();
            assert_eq!(batch.shape(), reference.shape());
            assert!(batch.data_eq(&reference));
            assert_eq!(batch.storage().is_shared_memory(), pool.is_some());
        }
        assert_eq!(arena.slots_in_use(), 0, "an untaken lease frees its slot");
    }

    #[test]
    fn batch_buf_rows_are_checked_like_stack0_parts() {
        let like = t(&[1, 2], &[2]);
        let (arena, pool) = lease_arena("buf-checks", 2);
        for pool in [None, Some(&pool)] {
            let mut buf = BatchBuf::like(2, &like, pool).unwrap();
            let wrong_shape = t(&[1, 2, 3], &[3]);
            assert_eq!(
                buf.push(&wrong_shape).unwrap_err(),
                stack0(&[like.clone(), wrong_shape]).unwrap_err()
            );
            let wrong_dtype = Tensor::from_f32(&[1.0, 2.0], &[2], DeviceId::Cpu).unwrap();
            assert_eq!(
                buf.push(&wrong_dtype).unwrap_err(),
                stack0(&[like.clone(), wrong_dtype]).unwrap_err()
            );
            let wrong_device = like.to_device(DeviceId::Gpu(0));
            assert_eq!(
                buf.push(&wrong_device).unwrap_err(),
                stack0(&[like.clone(), wrong_device]).unwrap_err()
            );
            let mut row = buf.row();
            assert!(matches!(
                row.bytes_mut(DType::I64, &[2]),
                Err(TensorError::DType { .. })
            ));
            assert!(matches!(
                row.bytes_mut(DType::U8, &[1, 2]),
                Err(TensorError::Shape(_))
            ));
            assert!(!row.is_written(), "a refused row is still unwritten");
            row.write(&like).unwrap();
            assert!(row.write(&like).is_err(), "a row is written once");
            // One row written, and nothing refused above wrote another.
            let short = format!("{:?}", buf.freeze().unwrap_err());
            assert!(short.contains("1 of 2 rows"), "{short}");
        }
        assert_eq!(arena.slots_in_use(), 0);
        let mut full = BatchBuf::like(1, &like, None).unwrap();
        full.push(&like).unwrap();
        assert!(full.push(&like).is_err(), "no row beyond the last");
    }

    #[test]
    fn batch_buf_falls_back_to_the_heap_when_no_slot_can_be_leased() {
        let (arena, pool) = lease_arena("buf-dry", 1);
        let sample = t(&[7; 4], &[4]);
        let held = BatchBuf::like(1, &sample, Some(&pool)).unwrap();
        assert!(held.is_leased());
        // Dry pool, then a batch larger than any slot, then device memory.
        assert!(!BatchBuf::like(1, &sample, Some(&pool)).unwrap().is_leased());
        drop(held);
        assert!(!BatchBuf::like(32, &sample, Some(&pool))
            .unwrap()
            .is_leased());
        let on_gpu = sample.to_device(DeviceId::Gpu(0));
        assert!(!BatchBuf::like(1, &on_gpu, Some(&pool)).unwrap().is_leased());
        assert!(BatchBuf::new(usize::MAX, DType::I64, &[2], DeviceId::Cpu, None).is_err());
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn a_frozen_slot_carries_its_lease_until_it_is_taken_once() {
        let (arena, pool) = lease_arena("buf-lease", 2);
        let (other_arena, _) = lease_arena("buf-lease-other", 1);
        let sample = t(&[1, 2, 3, 4], &[4]);
        let mut buf = BatchBuf::like(2, &sample, Some(&pool)).unwrap();
        buf.push(&sample).unwrap();
        buf.push(&sample).unwrap();
        let batch = buf.freeze().unwrap();
        let clone = batch.clone();
        assert!(batch.storage().take_lease(&other_arena).is_none());
        let lease = clone.storage().take_lease(&arena).expect("carried");
        assert!(batch.storage().take_lease(&arena).is_none(), "taken once");
        // What a publish step does with it: the slot holds the batch.
        let handle = lease.into_handle();
        assert_eq!(
            &arena.attach(handle).unwrap()[..],
            &[1, 2, 3, 4, 1, 2, 3, 4]
        );
        drop((batch, clone));
        pool.reclaim(handle);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }
}
