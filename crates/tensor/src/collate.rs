//! Collation: building batches (and producer batches) from samples.
//!
//! The producer "collates the data it receives from the data loader into
//! producer batch sizes" (§3.2.6, step 1 in Figure 5). [`stack0`] stacks
//! equally shaped samples into a batch with a new leading dimension;
//! [`cat0`] concatenates batches along the existing leading dimension —
//! that is how several loader batches fuse into one contiguous producer
//! batch slab (on the heap, or in leased arena slots via
//! [`cat0_batch_leased`]). Every one of them writes each part exactly
//! once, straight into the destination.
//!
//! **A batch is one slot.** In shared memory the tensors of a batch —
//! fields, then labels — lie in order in one leased slot at
//! [`PACK_ALIGN`]-aligned offsets, and each is a view (`offset`) of the
//! slot's one [`Storage`]: one lease, one registration, one handle and
//! one consumer attach per batch. Packing is first-fit
//! ([`SlotPacking::first_fit`]): a tensor that does not fit in the rest
//! of the current slot starts the next one, so slots narrower than a
//! batch still hold it, in as many slots as it takes.
//!
//! [`BatchBuf`] turns the order around for a loader that has not decoded
//! its samples yet: it hands out the batch's memory — heap buffers or
//! its leased slot — row by row, the decoder writes each sample where it
//! will stay, and the filled memory freezes into the batch's tensors.
//! That is PyTorch's `default_collate` allocating the batch in shared
//! memory inside a worker, without the per-sample tensors in between.

use crate::pool::SlotPool;
use crate::shape::contiguous_strides;
use crate::storage::{fresh_storage_id, Storage};
use crate::{DType, Result, Tensor, TensorError};
use std::sync::Arc;
use ts_device::DeviceId;
use ts_shm::{ShmError, ShmLease};

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

/// Byte alignment of every tensor packed into a slot: a cache line, and a
/// multiple of every dtype's size, so a tensor's byte offset in its slot
/// is a whole number of elements.
pub const PACK_ALIGN: usize = 64;

/// Where the tensors of one batch go in slots of one size: packed in
/// order at [`PACK_ALIGN`]-aligned offsets, first-fit — a tensor that
/// does not fit in the rest of the current slot starts the next one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotPacking {
    /// `(slot, byte offset)` of each tensor, in order.
    pub at: Vec<(usize, usize)>,
    /// Bytes each slot holds: the end of its last tensor.
    pub lens: Vec<usize>,
}

impl SlotPacking {
    /// Packs tensors of `sizes` bytes, in order, into slots of
    /// `slot_size`. `None` when one of them is larger than a slot.
    pub fn first_fit(sizes: impl IntoIterator<Item = usize>, slot_size: usize) -> Option<Self> {
        let packing = Self::runs(sizes.into_iter().map(|size| (size, false)), slot_size);
        packing
            .lens
            .iter()
            .all(|&len| len <= slot_size)
            .then_some(packing)
    }

    /// The bytes of one slot that holds every tensor of `sizes`: how wide
    /// a slot must be for a batch of them to take one.
    pub fn packed_len(sizes: impl IntoIterator<Item = usize>) -> usize {
        let packing = Self::first_fit(sizes, usize::MAX).expect("any size fits");
        packing.lens.first().copied().unwrap_or(0)
    }

    /// Slots the batch takes.
    pub fn slots(&self) -> usize {
        self.lens.len()
    }

    /// [`SlotPacking::first_fit`] over `(size, starts a slot)`: a tensor
    /// flagged starts a slot of its own whether or not it would fit. A
    /// tensor larger than a slot gets one of its own too, as long as it
    /// is, which no lease can give it.
    fn runs(sizes: impl Iterator<Item = (usize, bool)>, slot_size: usize) -> Self {
        let mut packing = Self::default();
        for (size, fresh) in sizes {
            let at = packing
                .lens
                .last()
                .filter(|_| !fresh)
                .and_then(|end| end.checked_next_multiple_of(PACK_ALIGN))
                .filter(|at| at.checked_add(size).is_some_and(|end| end <= slot_size));
            match at {
                Some(at) => *packing.lens.last_mut().expect("a slot is open") = at + size,
                None => packing.lens.push(size),
            }
            packing.at.push((packing.lens.len() - 1, at.unwrap_or(0)));
        }
        packing
    }

    /// Leases one slot of `pool` per packed slot, each as long as it
    /// holds. A lease that fails ([`ShmError::TooLarge`] for a tensor no
    /// slot holds) drops those taken before it.
    fn lease(&self, pool: &SlotPool) -> std::result::Result<Vec<ShmLease>, ShmError> {
        self.lens.iter().map(|&len| pool.lease(len)).collect()
    }
}

/// The view a storage over a packed slot gives a tensor of `dtype` and
/// `shape` that starts `at` bytes into the slot.
fn view_at(storage: &Arc<Storage>, dtype: DType, shape: Vec<usize>, at: usize) -> Result<Tensor> {
    let strides = contiguous_strides(&shape);
    Tensor::from_parts(
        storage.clone(),
        dtype,
        shape,
        strides,
        at / dtype.size_bytes(),
    )
}

/// [`cat0`] of every column of a batch — its fields, then its labels —
/// straight into leased shared-memory slots of `pool`: the concatenated
/// bytes are written exactly once, into the slots consumers will map, so
/// the later publish moves no payload bytes — the collation *is* the
/// placement.
///
/// The columns are packed first-fit ([`SlotPacking`]) into as few slots
/// as hold them — one, when the pool's slots are at least a packed batch
/// wide — and a column on another device than the one before it starts a
/// slot of its own, so a slot's storage has one device. Each returned
/// tensor is a zero-copy view of its slot's storage (one fresh storage id
/// per slot), and the returned [`ShmLease`]s, one per slot in order,
/// still hold the producer references: at publish time,
/// [`ShmLease::into_handle`] each into
/// [`crate::SharedRegistry::register_placed`] with its slot's storage so
/// the slot recycles through `pool` when the registration releases. An
/// item that never reaches the publish stage simply drops the leases,
/// freeing the slots. Fails with [`TensorError::Arena`] carrying the
/// arena's error when the slots cannot be leased:
/// [`ts_shm::ShmError::Full`] (every slot held by a live batch or still
/// pinned by a reader) clears as batches are acknowledged, so the caller
/// may wait and retry; [`ts_shm::ShmError::TooLarge`] never will.
pub fn cat0_batch_leased(
    columns: &[impl AsRef<[Tensor]>],
    pool: &SlotPool,
) -> Result<(Vec<Tensor>, Vec<ShmLease>)> {
    let devices: Vec<DeviceId> = columns
        .iter()
        .map(|parts| parts.as_ref().first().map_or(DeviceId::Cpu, Tensor::device))
        .collect();
    collate_into_slots(columns, &devices, pool)
}

/// [`cat0`] directly into a leased shared-memory slot from `pool`, the
/// storage placed on `device`: [`cat0_batch_leased`] of a batch of one
/// tensor, which takes one slot. Returns the tensor and the lease.
pub fn cat0_leased(
    tensors: &[Tensor],
    pool: &SlotPool,
    device: DeviceId,
) -> Result<(Tensor, ShmLease)> {
    let (mut tensors, mut leases) = collate_into_slots(&[tensors], &[device], pool)?;
    let lease = leases.pop().expect("one tensor takes one slot");
    Ok((tensors.pop().expect("one column"), lease))
}

/// The body of [`cat0_batch_leased`], column `c`'s storage placed on
/// `devices[c]`.
fn collate_into_slots(
    columns: &[impl AsRef<[Tensor]>],
    devices: &[DeviceId],
    pool: &SlotPool,
) -> Result<(Vec<Tensor>, Vec<ShmLease>)> {
    let plans = columns
        .iter()
        .map(|parts| cat0_plan(parts.as_ref(), "cat0_leased"))
        .collect::<Result<Vec<_>>>()?;
    let sizes: Vec<usize> = plans.iter().map(|(_, bytes)| *bytes).collect();
    let fresh = devices
        .iter()
        .enumerate()
        .map(|(c, device)| c > 0 && devices[c - 1] != *device);
    let packing = SlotPacking::runs(sizes.iter().copied().zip(fresh), pool.arena().slot_size());
    let mut leases = packing.lease(pool).map_err(TensorError::Arena)?;
    for ((parts, &(slot, at)), bytes) in columns.iter().zip(&packing.at).zip(sizes) {
        let dst = &mut leases[slot].bytes_mut()[at..at + bytes];
        write_parts(parts.as_ref(), dst)?;
    }
    // The producer references stay with the leases we hand back; each
    // slot's storage views it, on the device of its first tensor.
    let mut storages: Vec<Arc<Storage>> = Vec::with_capacity(leases.len());
    let placed = plans.into_iter().zip(columns).zip(&packing.at).zip(devices);
    let tensors = placed
        .map(|((((shape, _), parts), &(slot, at)), &device)| {
            if storages.len() == slot {
                let view = attach_written(&leases[slot])?;
                let storage = Storage::from_shm_view(fresh_storage_id(), view, device);
                storages.push(Arc::new(storage));
            }
            view_at(&storages[slot], parts.as_ref()[0].dtype(), shape, at)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((tensors, leases))
}

/// One tensor of a [`BatchBuf`]: its sample's geometry, how many of its
/// rows are written, and where they go.
struct Column {
    /// One sample's dtype, shape and device: what every row is checked
    /// against, with the errors [`stack0`] gives a mismatched sample.
    like: Like,
    row_bytes: usize,
    rows: usize,
    written: usize,
    /// The rows written so far, on the heap (grows one row per write;
    /// never zero-filled as a whole); unused in a leased batch.
    heap: Vec<u8>,
    /// `(slot, byte offset)` of the tensor in a leased batch.
    at: (usize, usize),
}

/// The memory of one batch under construction: one tensor per column
/// (the loader's fields, then its labels), each `rows` equally shaped
/// samples, written one row at a time and then frozen into `[rows, ...]`
/// tensors — so each payload byte is written once, where it will stay.
///
/// The memory is the batch's leased slot when a [`SlotPool`] is offered,
/// every column is host memory and the pool can lease the slots the
/// batch packs into ([`SlotPacking`]) right now; the heap otherwise, one
/// buffer per column. The tensors frozen over a slot are views of one
/// storage that **carries the lease** ([`Storage::from_leased_slot`]):
/// whoever publishes the batch takes the lease once and registers the
/// slot without moving a byte, and a batch dropped anywhere before that
/// frees the slot by `Drop`. The slot is attached only in
/// [`BatchBuf::freeze`], after the last row is written: lease → write →
/// attach, as in [`cat0_batch_leased`].
pub struct BatchBuf {
    columns: Vec<Column>,
    /// The leased slots, in packing order; empty for a heap batch.
    slots: Vec<ShmLease>,
}

impl std::fmt::Debug for BatchBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let like: Vec<&Like> = self.columns.iter().map(|c| &c.like).collect();
        let written: Vec<usize> = self.columns.iter().map(|c| c.written).collect();
        f.debug_struct("BatchBuf")
            .field("slots", &self.slots.len())
            .field("like", &like)
            .field("written", &written)
            .finish()
    }
}

impl BatchBuf {
    /// Memory for a batch of `rows` samples whose tensors are, in order,
    /// one per `(dtype, shape, device)` of `columns` (one sample's). It is
    /// the pool's when one is given, no column is device memory and the
    /// slots can be leased right now. Leasing never waits and never fails
    /// the batch: a dry pool ([`ts_shm::ShmError::Full`]) or a tensor no
    /// slot can hold means the heap, and whoever needs the batch in the
    /// arena deals with that ([`cat0_batch_leased`]).
    pub fn new<'a>(
        rows: usize,
        columns: impl IntoIterator<Item = (DType, &'a [usize], DeviceId)>,
        pool: Option<&SlotPool>,
    ) -> Result<Self> {
        let columns = columns
            .into_iter()
            .map(|(dtype, shape, device)| {
                let row_bytes = shape
                    .iter()
                    .try_fold(dtype.size_bytes(), |n, &d| n.checked_mul(d))
                    .filter(|row_bytes| row_bytes.checked_mul(rows).is_some());
                let Some(row_bytes) = row_bytes else {
                    return Err(TensorError::Shape(format!(
                        "a batch of {rows} samples of shape {shape:?} overflows"
                    )));
                };
                let like = Like {
                    dtype,
                    shape: shape.to_vec(),
                    device,
                };
                Ok(Column {
                    like,
                    row_bytes,
                    rows,
                    written: 0,
                    heap: Vec::new(),
                    at: (0, 0),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut buf = Self {
            columns,
            slots: Vec::new(),
        };
        let host = buf.columns.iter().all(|c| !c.like.device.is_gpu());
        let sizes = buf.columns.iter().map(|c| c.row_bytes * c.rows);
        let packing = pool.filter(|_| host).and_then(|pool| {
            let packing = SlotPacking::first_fit(sizes, pool.arena().slot_size())?;
            Some((packing.lease(pool).ok()?, packing))
        });
        match packing {
            Some((slots, packing)) => {
                for (column, &at) in buf.columns.iter_mut().zip(&packing.at) {
                    column.at = at;
                }
                buf.slots = slots;
            }
            None => {
                for column in &mut buf.columns {
                    column.heap = Vec::with_capacity(column.row_bytes * column.rows);
                }
            }
        }
        Ok(buf)
    }

    /// [`BatchBuf::new`] for `rows` samples whose tensors are like
    /// `sample`'s.
    pub fn like(rows: usize, sample: &[Tensor], pool: Option<&SlotPool>) -> Result<Self> {
        let columns = sample.iter().map(|t| (t.dtype(), t.shape(), t.device()));
        Self::new(rows, columns, pool)
    }

    /// True when the memory is leased arena slots.
    pub fn is_leased(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The next unwritten row of the batch: one [`RowMut`] per tensor, in
    /// order.
    pub fn row(&mut self) -> Vec<RowMut<'_>> {
        let leased = self.is_leased();
        let mut slots = self.slots.iter_mut().enumerate();
        // The unhanded rest of slot `current`, which starts `base` bytes
        // into it. Columns are packed in order, so each carves its bytes
        // off the front.
        let (mut current, mut rest, mut base): (usize, &mut [u8], usize) = (usize::MAX, &mut [], 0);
        let mut row = Vec::with_capacity(self.columns.len());
        for column in &mut self.columns {
            let region = if leased {
                let (slot, at) = column.at;
                while current != slot {
                    let (i, lease) = slots.next().expect("columns are packed in slot order");
                    (current, rest, base) = (i, lease.bytes_mut(), 0);
                }
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(at - base);
                let (mine, tail) = tail.split_at_mut(column.row_bytes * column.rows);
                (rest, base) = (tail, at + mine.len());
                Some(mine)
            } else {
                None
            };
            row.push(RowMut {
                column,
                region,
                written: false,
            });
        }
        row
    }

    /// Copies `sample`'s tensors into the next row, one per tensor (one
    /// copy each, strided views included), checked like
    /// [`RowMut::write`].
    pub fn push(&mut self, sample: &[Tensor]) -> Result<()> {
        let mut row = self.row();
        if sample.len() != row.len() {
            return Err(TensorError::Shape(format!(
                "a sample of {} tensors in a batch of {}",
                sample.len(),
                row.len()
            )));
        }
        for (t, field) in sample.iter().zip(&mut row) {
            field.write(t)?;
        }
        Ok(())
    }

    /// Freezes the filled memory into the batch's contiguous
    /// `[rows, ...]` tensors, in order. Fails unless every row of every
    /// tensor was written.
    pub fn freeze(self) -> Result<Vec<Tensor>> {
        if let Some(c) = self.columns.iter().find(|c| c.written != c.rows) {
            return Err(TensorError::Shape(format!(
                "batch frozen with {} of {} rows written",
                c.written, c.rows
            )));
        }
        let shape = |c: &Column| {
            let mut shape = Vec::with_capacity(c.like.shape.len() + 1);
            shape.push(c.rows);
            shape.extend_from_slice(&c.like.shape);
            shape
        };
        if self.slots.is_empty() {
            let columns = self.columns.into_iter();
            return columns
                .map(|c| {
                    let shape = shape(&c);
                    Tensor::from_bytes(c.heap, c.like.dtype, &shape, c.like.device)
                })
                .collect();
        }
        let mut storages = Vec::with_capacity(self.slots.len());
        for lease in self.slots {
            let view = attach_written(&lease)?;
            storages.push(Arc::new(Storage::from_leased_slot(
                view,
                lease,
                DeviceId::Cpu,
            )));
        }
        self.columns
            .iter()
            .map(|c| view_at(&storages[c.at.0], c.like.dtype, shape(c), c.at.1))
            .collect()
    }
}

/// One unwritten row of one tensor of a [`BatchBuf`]. Whoever fills it
/// says what it is filling it with — a tensor, or raw bytes of a declared
/// dtype and shape — and that is checked against the batch's sample
/// before a byte is written; a row can be written once.
pub struct RowMut<'a> {
    column: &'a mut Column,
    /// The tensor's bytes in its leased slot; `None` on the heap.
    region: Option<&'a mut [u8]>,
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
        let column = &*self.column;
        column.like.check(dtype, shape, device, true)?;
        if self.written || column.written == column.rows {
            return Err(TensorError::Shape(format!(
                "a batch row written twice, or beyond the batch's {}",
                column.rows
            )));
        }
        Ok(())
    }

    /// Copies `sample` into the row: one copy, the strided walk for a view
    /// that is not contiguous. Dtype, shape and device must be the batch's
    /// sample's — the errors are [`stack0`]'s.
    pub fn write(&mut self, sample: &Tensor) -> Result<()> {
        self.admit(sample.dtype(), sample.shape(), sample.device())?;
        let column = &mut *self.column;
        match &mut self.region {
            None => sample.append_to(&mut column.heap),
            Some(region) => {
                let at = column.written * column.row_bytes;
                sample.copy_into(&mut region[at..at + column.row_bytes])?;
            }
        }
        column.written += 1;
        self.written = true;
        Ok(())
    }

    /// The row's bytes, for a decoder that writes a sample of `dtype` and
    /// `shape` straight into them. **Contract:** the caller overwrites the
    /// whole slice — a leased slot still holds its previous occupant's
    /// bytes (a heap row reads zero).
    pub fn bytes_mut(&mut self, dtype: DType, shape: &[usize]) -> Result<&mut [u8]> {
        self.admit(dtype, shape, self.column.like.device)?;
        let column = &mut *self.column;
        let at = column.written * column.row_bytes;
        column.written += 1;
        self.written = true;
        Ok(match &mut self.region {
            None => {
                // One row, about to be overwritten while still in cache.
                column.heap.resize(at + column.row_bytes, 0);
                &mut column.heap[at..]
            }
            Some(region) => &mut region[at..at + column.row_bytes],
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

    fn one(t: &Tensor) -> &[Tensor] {
        std::slice::from_ref(t)
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
            let mut buf = BatchBuf::like(3, one(&samples[0]), pool).unwrap();
            assert_eq!(buf.is_leased(), pool.is_some());
            // A tensor, raw bytes of a declared dtype and shape, a tensor.
            buf.push(one(&samples[0])).unwrap();
            buf.row()[0]
                .bytes_mut(DType::U8, &[3])
                .unwrap()
                .copy_from_slice(&[4, 5, 6]);
            buf.push(one(&samples[2])).unwrap();
            let [batch] = <[Tensor; 1]>::try_from(buf.freeze().unwrap()).unwrap();
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
            let mut buf = BatchBuf::like(2, one(&like), pool).unwrap();
            let wrong_shape = t(&[1, 2, 3], &[3]);
            assert_eq!(
                buf.push(one(&wrong_shape)).unwrap_err(),
                stack0(&[like.clone(), wrong_shape]).unwrap_err()
            );
            let wrong_dtype = Tensor::from_f32(&[1.0, 2.0], &[2], DeviceId::Cpu).unwrap();
            assert_eq!(
                buf.push(one(&wrong_dtype)).unwrap_err(),
                stack0(&[like.clone(), wrong_dtype]).unwrap_err()
            );
            let wrong_device = like.to_device(DeviceId::Gpu(0));
            assert_eq!(
                buf.push(one(&wrong_device)).unwrap_err(),
                stack0(&[like.clone(), wrong_device]).unwrap_err()
            );
            assert!(buf.push(&[like.clone(), like.clone()]).is_err());
            let mut row = buf.row();
            let row = &mut row[0];
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
        let mut full = BatchBuf::like(1, one(&like), None).unwrap();
        full.push(one(&like)).unwrap();
        assert!(full.push(one(&like)).is_err(), "no row beyond the last");
    }

    #[test]
    fn batch_buf_falls_back_to_the_heap_when_no_slot_can_be_leased() {
        let (arena, pool) = lease_arena("buf-dry", 1);
        let sample = t(&[7; 4], &[4]);
        let held = BatchBuf::like(1, one(&sample), Some(&pool)).unwrap();
        assert!(held.is_leased());
        // Dry pool, then a batch larger than any slot, then device memory
        // in any of its tensors.
        let leased = |rows, sample: &[Tensor]| {
            let buf = BatchBuf::like(rows, sample, Some(&pool)).unwrap();
            buf.is_leased()
        };
        assert!(!leased(1, one(&sample)));
        drop(held);
        assert!(!leased(32, one(&sample)));
        let on_gpu = sample.to_device(DeviceId::Gpu(0));
        assert!(!leased(1, &[sample.clone(), on_gpu]));
        let overflow = [(DType::I64, &[2][..], DeviceId::Cpu)];
        assert!(BatchBuf::new(usize::MAX, overflow, None).is_err());
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn a_frozen_slot_carries_its_lease_until_it_is_taken_once() {
        let (arena, pool) = lease_arena("buf-lease", 2);
        let (other_arena, _) = lease_arena("buf-lease-other", 1);
        let sample = t(&[1, 2, 3, 4], &[4]);
        let mut buf = BatchBuf::like(2, one(&sample), Some(&pool)).unwrap();
        buf.push(one(&sample)).unwrap();
        buf.push(one(&sample)).unwrap();
        let batch = buf.freeze().unwrap().remove(0);
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

    #[test]
    fn first_fit_packs_in_order_at_aligned_offsets() {
        // One slot wide enough: every tensor in it, each at the next
        // 64-byte boundary; the slot holds up to the last tensor's end.
        let wide = SlotPacking::first_fit([100, 8, 0, 64], 4096).unwrap();
        assert_eq!(wide.at, [(0, 0), (0, 128), (0, 192), (0, 192)]);
        assert_eq!(wide.lens, [256]);
        assert_eq!(SlotPacking::packed_len([100, 8, 0, 64]), 256);
        // Slots narrower than the batch: a tensor that does not fit in the
        // rest of the current slot starts the next one.
        let narrow = SlotPacking::first_fit([4096, 8, 8, 4000, 96], 4096).unwrap();
        assert_eq!(narrow.at, [(0, 0), (1, 0), (1, 64), (2, 0), (3, 0)]);
        assert_eq!(narrow.lens, [4096, 72, 4000, 96]);
        assert_eq!(narrow.slots(), 4);
        assert_eq!(SlotPacking::first_fit([4097], 4096), None);
        assert_eq!(SlotPacking::first_fit([], 64).unwrap().slots(), 0);
    }

    #[test]
    fn a_batch_is_views_of_one_slot_at_aligned_offsets() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-batch-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 2, 128).unwrap();
        let pool = SlotPool::new(arena.clone(), 2);
        let image = t(&[1, 2, 3], &[3]);
        let label = Tensor::from_i64(&[7], &[], DeviceId::Cpu).unwrap();
        let mut buf = BatchBuf::like(2, &[image.clone(), label.clone()], Some(&pool)).unwrap();
        assert_eq!(
            arena.slots_in_use(),
            1,
            "labels at 64, the batch in 80 bytes"
        );
        buf.push(&[image.clone(), label.clone()]).unwrap();
        {
            let mut row = buf.row();
            row[0].write(&image).unwrap();
            row[1]
                .bytes_mut(DType::I64, &[])
                .unwrap()
                .copy_from_slice(&9i64.to_le_bytes());
        }
        let tensors = buf.freeze().unwrap();
        assert_eq!(arena.slots_in_use(), 1);
        let (images, labels) = (&tensors[0], &tensors[1]);
        assert_eq!(images.storage_id(), labels.storage_id(), "one storage");
        assert_eq!((images.offset(), labels.offset()), (0, 64 / 8));
        assert_eq!(images.to_vec_u8().unwrap(), [1, 2, 3, 1, 2, 3]);
        assert_eq!(labels.to_vec_i64().unwrap(), [7, 9]);
        let lease = labels.storage().take_lease(&arena).expect("one lease");
        assert!(images.storage().take_lease(&arena).is_none());
        assert_eq!(lease.handle().len, 64 + 16);
        drop((tensors, lease));
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn a_batch_collated_into_slots_packs_first_fit_and_keeps_devices() {
        let path =
            std::env::temp_dir().join(format!("ts-collate-columns-{}.arena", std::process::id()));
        let arena = ts_shm::ShmArena::create(path, 4, 128).unwrap();
        let pool = SlotPool::new(arena.clone(), 4);
        let field = [t(&[1; 80], &[2, 40]), t(&[2; 40], &[1, 40])];
        let labels = [Tensor::from_i64(&[1, 2, 3], &[3], DeviceId::Cpu).unwrap()];
        // 120 bytes, then 24 at 128, do not fit one 128-byte slot: the
        // labels start a second one.
        let (tensors, leases) = cat0_batch_leased(&[&field[..], &labels[..]], &pool).unwrap();
        assert_eq!(leases.len(), 2);
        assert_ne!(tensors[0].storage_id(), tensors[1].storage_id());
        assert_eq!(
            tensors[0].to_vec_u8().unwrap(),
            cat0(&field).unwrap().to_vec_u8().unwrap()
        );
        assert_eq!(tensors[1].to_vec_i64().unwrap(), [1, 2, 3]);
        drop((tensors, leases));
        // Small enough for one slot, but the labels are on another device:
        // each device gets a slot of its own, and keeps its tensors.
        let gpu = [t(&[5; 8], &[8]).to_device(DeviceId::Gpu(0))];
        let (tensors, leases) = cat0_batch_leased(&[&gpu[..], &labels[..]], &pool).unwrap();
        assert_eq!(leases.len(), 2);
        assert_eq!(tensors[0].device(), DeviceId::Gpu(0));
        assert_eq!(tensors[1].device(), DeviceId::Cpu);
        drop((tensors, leases));
        let cpu = [t(&[5; 8], &[8])];
        let (tensors, leases) = cat0_batch_leased(&[&cpu[..], &labels[..]], &pool).unwrap();
        assert_eq!(leases.len(), 1, "one device, one slot");
        assert_eq!(tensors[1].offset() * 8, 64);
        drop((tensors, leases));
        let huge = [t(&[0; 129], &[129])];
        assert!(matches!(
            cat0_batch_leased(&[&huge[..]], &pool),
            Err(TensorError::Arena(ts_shm::ShmError::TooLarge {
                requested: 129,
                slot_size: 128
            }))
        ));
        assert_eq!(arena.slots_in_use(), 0);
    }
}
