//! The tensor type: a typed, strided view over refcounted storage.

use crate::shape::{contiguous_strides, is_contiguous};
use crate::storage::Storage;
use crate::{DType, Result, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ts_device::DeviceId;

/// A typed, strided view over an [`Arc<Storage>`](Storage).
///
/// Cloning a tensor clones the view, not the data — exactly the sharing
/// semantics TensorSocket exploits. All slicing operations return views;
/// only [`Tensor::contiguous`] and the `to_vec_*` accessors copy.
#[derive(Debug, Clone)]
pub struct Tensor {
    storage: Arc<Storage>,
    dtype: DType,
    shape: Vec<usize>,
    strides: Vec<usize>,
    /// Offset into the storage, in elements.
    offset: usize,
}

/// `len` bytes must be exactly what a dense `shape` of `dtype` occupies.
fn check_byte_len(len: usize, dtype: DType, shape: &[usize]) -> Result<()> {
    let need = shape
        .iter()
        .try_fold(dtype.size_bytes(), |n, &d| n.checked_mul(d));
    if need != Some(len) {
        return Err(TensorError::Shape(format!(
            "{len} bytes provided for shape {shape:?} of {dtype:?} (need {need:?})"
        )));
    }
    Ok(())
}

/// Lends a storage's bytes to a [`bytes::Bytes`], which keeps the storage
/// (and through it an arena slot's read reference) alive.
struct StorageBytes(Arc<Storage>);

impl AsRef<[u8]> for StorageBytes {
    fn as_ref(&self) -> &[u8] {
        self.0.bytes()
    }
}

impl Tensor {
    /// Builds a tensor from raw parts, validating that the view fits inside
    /// the storage.
    pub fn from_parts(
        storage: Arc<Storage>,
        dtype: DType,
        shape: Vec<usize>,
        strides: Vec<usize>,
        offset: usize,
    ) -> Result<Self> {
        if shape.len() != strides.len() {
            return Err(TensorError::Shape(format!(
                "shape ndim {} != strides ndim {}",
                shape.len(),
                strides.len()
            )));
        }
        let numel: usize = shape.iter().product();
        if numel > 0 {
            // Largest reachable element offset.
            let max_elem: usize = offset
                + shape
                    .iter()
                    .zip(&strides)
                    .map(|(&d, &s)| (d - 1) * s)
                    .sum::<usize>();
            let needed = (max_elem + 1) * dtype.size_bytes();
            if needed > storage.len() {
                return Err(TensorError::Shape(format!(
                    "view needs {needed} B but storage {} has {} B",
                    storage.id(),
                    storage.len()
                )));
            }
        }
        Ok(Self {
            storage,
            dtype,
            shape,
            strides,
            offset,
        })
    }

    /// A contiguous tensor over a fresh storage built from `data` bytes.
    pub fn from_bytes(
        data: Vec<u8>,
        dtype: DType,
        shape: &[usize],
        device: DeviceId,
    ) -> Result<Self> {
        check_byte_len(data.len(), dtype, shape)?;
        let storage = Arc::new(Storage::new(data, device));
        Self::from_parts(storage, dtype, shape.to_vec(), contiguous_strides(shape), 0)
    }

    /// A contiguous tensor over `data` as it is — no copy; `data`'s buffer
    /// lives as long as the tensor (and every view of it) does. Tensor
    /// storage is only ever read as bytes, so `data` needs no alignment.
    pub fn from_shared_bytes(
        data: bytes::Bytes,
        dtype: DType,
        shape: &[usize],
        device: DeviceId,
    ) -> Result<Self> {
        check_byte_len(data.len(), dtype, shape)?;
        let storage = Arc::new(Storage::from_shared_bytes(data, device));
        Self::from_parts(storage, dtype, shape.to_vec(), contiguous_strides(shape), 0)
    }

    /// Zero-filled contiguous tensor.
    pub fn zeros(shape: &[usize], dtype: DType, device: DeviceId) -> Self {
        let numel: usize = shape.iter().product();
        Self::from_bytes(vec![0u8; numel * dtype.size_bytes()], dtype, shape, device)
            .expect("zeros construction is always consistent")
    }

    /// Contiguous `U8` tensor from values.
    pub fn from_u8(values: Vec<u8>, shape: &[usize], device: DeviceId) -> Result<Self> {
        Self::from_bytes(values, DType::U8, shape, device)
    }

    /// Contiguous `F32` tensor from values.
    pub fn from_f32(values: &[f32], shape: &[usize], device: DeviceId) -> Result<Self> {
        let mut data = Vec::with_capacity(values.len() * 4);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        Self::from_bytes(data, DType::F32, shape, device)
    }

    /// Contiguous `I64` tensor from values.
    pub fn from_i64(values: &[i64], shape: &[usize], device: DeviceId) -> Result<Self> {
        let mut data = Vec::with_capacity(values.len() * 8);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        Self::from_bytes(data, DType::I64, shape, device)
    }

    /// Deterministic pseudo-random `U8` tensor (seeded).
    pub fn rand_u8(shape: &[usize], device: DeviceId, seed: u64) -> Self {
        let numel: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0u8; numel];
        rng.fill(&mut data[..]);
        Self::from_bytes(data, DType::U8, shape, device)
            .expect("rand_u8 construction is always consistent")
    }

    /// Deterministic pseudo-random `F32` tensor in `[0, 1)` (seeded).
    pub fn rand_f32(shape: &[usize], device: DeviceId, seed: u64) -> Self {
        let numel: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f32> = (0..numel).map(|_| rng.gen::<f32>()).collect();
        Self::from_f32(&values, shape, device).expect("rand_f32 construction is always consistent")
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Dimension extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Strides in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// View offset into the storage, in elements.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total elements in the view.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Bytes covered by the view's elements (not the whole storage).
    pub fn view_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// Placement of the underlying storage.
    pub fn device(&self) -> DeviceId {
        self.storage.device()
    }

    /// The underlying storage.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Id of the underlying storage (the shared "pointer").
    pub fn storage_id(&self) -> u64 {
        self.storage.id()
    }

    /// True for dense row-major views.
    pub fn is_contiguous(&self) -> bool {
        is_contiguous(&self.shape, &self.strides)
    }

    /// Zero-copy slice along `dim`: keeps `len` indices starting at `start`.
    ///
    /// This is the primitive behind flexible batch sizing (§3.2.6): carving
    /// consumer batches out of a producer batch moves no bytes.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Result<Tensor> {
        if dim >= self.ndim() {
            return Err(TensorError::Shape(format!(
                "narrow dim {dim} out of range for ndim {}",
                self.ndim()
            )));
        }
        if start + len > self.shape[dim] {
            return Err(TensorError::Shape(format!(
                "narrow [{start}, {start}+{len}) exceeds dim {dim} extent {}",
                self.shape[dim]
            )));
        }
        let mut shape = self.shape.clone();
        shape[dim] = len;
        Ok(Tensor {
            storage: self.storage.clone(),
            dtype: self.dtype,
            shape,
            strides: self.strides.clone(),
            offset: self.offset + start * self.strides[dim],
        })
    }

    /// Zero-copy select of index `idx` along `dim` (drops the dimension).
    pub fn select(&self, dim: usize, idx: usize) -> Result<Tensor> {
        let narrowed = self.narrow(dim, idx, 1)?;
        let mut shape = narrowed.shape.clone();
        let mut strides = narrowed.strides.clone();
        shape.remove(dim);
        strides.remove(dim);
        Ok(Tensor {
            storage: narrowed.storage,
            dtype: narrowed.dtype,
            shape,
            strides,
            offset: narrowed.offset,
        })
    }

    /// Reshape of a contiguous view (zero-copy).
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if !self.is_contiguous() {
            return Err(TensorError::Shape(
                "reshape requires a contiguous view".to_string(),
            ));
        }
        let numel: usize = shape.iter().product();
        if numel != self.numel() {
            return Err(TensorError::Shape(format!(
                "reshape to {:?} changes element count {} -> {}",
                shape,
                self.numel(),
                numel
            )));
        }
        Ok(Tensor {
            storage: self.storage.clone(),
            dtype: self.dtype,
            shape: shape.to_vec(),
            strides: contiguous_strides(shape),
            offset: self.offset,
        })
    }

    /// The raw bytes of a contiguous view.
    pub fn bytes(&self) -> Result<&[u8]> {
        if !self.is_contiguous() {
            return Err(TensorError::Shape(
                "bytes() requires a contiguous view".to_string(),
            ));
        }
        let esize = self.dtype.size_bytes();
        let start = self.offset * esize;
        let end = start + self.numel() * esize;
        Ok(&self.storage.bytes()[start..end])
    }

    /// The raw bytes of a contiguous view as a [`bytes::Bytes`] that
    /// shares this tensor's storage — no copy. While it (or any clone or
    /// slice of it) is alive the storage is, so a tensor collated into an
    /// arena slot keeps that slot pinned exactly as a consumer's view does.
    pub fn shared_bytes(&self) -> Result<bytes::Bytes> {
        let len = self.bytes()?.len();
        let start = self.offset * self.dtype.size_bytes();
        Ok(bytes::Bytes::from_owner(StorageBytes(self.storage.clone())).slice(start..start + len))
    }

    /// Calls `sink` with the view's elements in dense row-major order: once
    /// with the whole range for a contiguous view, once per element (the
    /// strided walk) otherwise.
    fn walk(&self, mut sink: impl FnMut(&[u8])) {
        if let Ok(bytes) = self.bytes() {
            return sink(bytes);
        }
        let esize = self.dtype.size_bytes();
        let src = self.storage.bytes();
        let mut idx = vec![0usize; self.ndim()];
        for _ in 0..self.numel() {
            let elem: usize = self.offset
                + idx
                    .iter()
                    .zip(&self.strides)
                    .map(|(&i, &s)| i * s)
                    .sum::<usize>();
            let b = elem * esize;
            sink(&src[b..b + esize]);
            // advance the multi-index, last dim fastest
            for d in (0..self.ndim()).rev() {
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Appends the view's elements, dense and row-major, to `out`.
    pub(crate) fn append_to(&self, out: &mut Vec<u8>) {
        self.walk(|bytes| out.extend_from_slice(bytes));
    }

    /// Writes the view's elements, dense and row-major, into `dst` — one
    /// `copy_from_slice` for a contiguous view, the strided walk
    /// otherwise. `dst` must be exactly [`Tensor::view_bytes`] long.
    pub fn copy_into(&self, dst: &mut [u8]) -> Result<()> {
        if dst.len() != self.view_bytes() {
            return Err(TensorError::Shape(format!(
                "copy of a {} B view into {} B",
                self.view_bytes(),
                dst.len()
            )));
        }
        let mut at = 0;
        self.walk(|bytes| {
            dst[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        });
        Ok(())
    }

    /// Gathers the view into a dense row-major byte vector (copies). To
    /// only *read* the elements use [`Tensor::dense_bytes`], which borrows
    /// a contiguous view instead.
    pub fn gather_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.view_bytes());
        self.append_to(&mut out);
        out
    }

    /// The view's elements, dense and row-major: borrowed from the storage
    /// when the view is contiguous, gathered into a fresh vector only when
    /// it is not.
    pub fn dense_bytes(&self) -> std::borrow::Cow<'_, [u8]> {
        match self.bytes() {
            Ok(bytes) => bytes.into(),
            Err(_) => self.gather_bytes().into(),
        }
    }

    /// Materializes the view into a fresh contiguous tensor (copies).
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() && self.offset == 0 && self.view_bytes() == self.storage.len() {
            return self.clone();
        }
        Tensor::from_bytes(self.gather_bytes(), self.dtype, &self.shape, self.device())
            .expect("gathered bytes always match the shape")
    }

    /// Copies the tensor to another device label. Traffic/memory accounting
    /// is the caller's job (see [`crate::DeviceCtx`]).
    pub fn to_device(&self, device: DeviceId) -> Tensor {
        Tensor::from_bytes(self.gather_bytes(), self.dtype, &self.shape, device)
            .expect("gathered bytes always match the shape")
    }

    /// Elements as `u8` (copies; requires `U8` dtype).
    pub fn to_vec_u8(&self) -> Result<Vec<u8>> {
        self.check_dtype(DType::U8)?;
        Ok(self.gather_bytes())
    }

    /// Elements as `f32` (copies; requires `F32` dtype).
    pub fn to_vec_f32(&self) -> Result<Vec<f32>> {
        self.check_dtype(DType::F32)?;
        Ok(self
            .dense_bytes()
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Elements as `i64` (copies; requires `I64` dtype).
    pub fn to_vec_i64(&self) -> Result<Vec<i64>> {
        self.check_dtype(DType::I64)?;
        Ok(self
            .dense_bytes()
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    fn check_dtype(&self, expected: DType) -> Result<()> {
        if self.dtype != expected {
            return Err(TensorError::DType {
                expected,
                got: self.dtype,
            });
        }
        Ok(())
    }

    /// True when both tensors have equal shape, dtype and element data.
    pub fn data_eq(&self, other: &Tensor) -> bool {
        self.dtype == other.dtype
            && self.shape == other.shape
            && self.dense_bytes() == other.dense_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_u8(n: usize, shape: &[usize]) -> Tensor {
        Tensor::from_u8(
            (0..n as u32).map(|i| i as u8).collect(),
            shape,
            DeviceId::Cpu,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = seq_u8(6, &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.strides(), &[3, 1]);
        assert_eq!(t.numel(), 6);
        assert!(t.is_contiguous());
        assert_eq!(t.view_bytes(), 6);
        assert_eq!(t.device(), DeviceId::Cpu);
    }

    #[test]
    fn from_bytes_validates_length() {
        assert!(Tensor::from_bytes(vec![0u8; 5], DType::U8, &[2, 3], DeviceId::Cpu).is_err());
        assert!(Tensor::from_bytes(vec![0u8; 8], DType::F32, &[3], DeviceId::Cpu).is_err());
    }

    #[test]
    fn shared_bytes_lend_and_wrap_without_copying() {
        let t = seq_u8(12, &[4, 3]);
        let lent = t.shared_bytes().unwrap();
        assert_eq!(lent.as_ptr(), t.bytes().unwrap().as_ptr());
        let rows = t.narrow(0, 1, 2).unwrap();
        assert_eq!(&rows.shared_bytes().unwrap()[..], &[3, 4, 5, 6, 7, 8]);
        assert!(t.narrow(1, 1, 2).unwrap().shared_bytes().is_err());
        // ...and back: the tensor is a view of the bytes it was given.
        let back =
            Tensor::from_shared_bytes(lent.clone(), DType::U8, &[4, 3], DeviceId::Cpu).unwrap();
        assert_eq!(back.bytes().unwrap().as_ptr(), lent.as_ptr());
        assert!(back.data_eq(&t));
        assert_ne!(back.storage_id(), t.storage_id());
        // Same length check as `from_bytes`, overflowing shapes included.
        let wrap = |shape: &[usize], dtype| {
            Tensor::from_shared_bytes(lent.clone(), dtype, shape, DeviceId::Cpu)
        };
        assert!(wrap(&[5, 3], DType::U8).is_err());
        assert!(wrap(&[3], DType::F32).is_ok());
        assert!(wrap(&[usize::MAX, 4], DType::F32).is_err());
    }

    #[test]
    fn narrow_is_zero_copy_and_correct() {
        let t = seq_u8(12, &[4, 3]);
        let n = t.narrow(0, 1, 2).unwrap();
        assert_eq!(n.shape(), &[2, 3]);
        assert_eq!(n.storage_id(), t.storage_id());
        assert_eq!(n.to_vec_u8().unwrap(), vec![3, 4, 5, 6, 7, 8]);
        // narrow along the inner dim produces a non-contiguous view
        let inner = t.narrow(1, 1, 2).unwrap();
        assert!(!inner.is_contiguous());
        assert_eq!(inner.to_vec_u8().unwrap(), vec![1, 2, 4, 5, 7, 8, 10, 11]);
    }

    #[test]
    fn narrow_bounds_checked() {
        let t = seq_u8(6, &[2, 3]);
        assert!(t.narrow(2, 0, 1).is_err());
        assert!(t.narrow(0, 1, 2).is_err());
    }

    #[test]
    fn select_drops_dimension() {
        let t = seq_u8(12, &[4, 3]);
        let row = t.select(0, 2).unwrap();
        assert_eq!(row.shape(), &[3]);
        assert_eq!(row.to_vec_u8().unwrap(), vec![6, 7, 8]);
        let col = t.select(1, 0).unwrap();
        assert_eq!(col.shape(), &[4]);
        assert_eq!(col.to_vec_u8().unwrap(), vec![0, 3, 6, 9]);
    }

    #[test]
    fn reshape_contiguous_only() {
        let t = seq_u8(12, &[4, 3]);
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.shape(), &[2, 6]);
        assert_eq!(r.storage_id(), t.storage_id());
        let col = t.narrow(1, 1, 2).unwrap();
        assert!(col.reshape(&[8]).is_err());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn contiguous_materializes_views() {
        let t = seq_u8(12, &[4, 3]);
        let v = t.narrow(1, 1, 2).unwrap();
        let c = v.contiguous();
        assert!(c.is_contiguous());
        assert_ne!(c.storage_id(), t.storage_id());
        assert!(c.data_eq(&v));
    }

    #[test]
    fn copy_into_writes_dense_bytes_once() {
        let t = seq_u8(12, &[4, 3]);
        let mut dst = [0u8; 12];
        t.copy_into(&mut dst).unwrap();
        assert_eq!(&dst[..], t.bytes().unwrap());
        // A strided view lands dense; the destination must fit exactly.
        let cols = t.narrow(1, 1, 2).unwrap();
        let mut dst = [0u8; 8];
        cols.copy_into(&mut dst).unwrap();
        assert_eq!(dst, [1, 2, 4, 5, 7, 8, 10, 11]);
        assert_eq!(cols.gather_bytes(), dst);
        assert!(cols.copy_into(&mut [0u8; 9]).is_err());
        assert!(t.copy_into(&mut dst).is_err());
    }

    #[test]
    fn dense_bytes_borrow_a_contiguous_view() {
        let t = seq_u8(12, &[4, 3]);
        let rows = t.narrow(0, 1, 2).unwrap();
        assert!(matches!(rows.dense_bytes(), std::borrow::Cow::Borrowed(_)));
        assert_eq!(rows.dense_bytes().as_ptr(), rows.bytes().unwrap().as_ptr());
        let cols = t.narrow(1, 1, 2).unwrap();
        assert!(matches!(cols.dense_bytes(), std::borrow::Cow::Owned(_)));
        assert_eq!(&cols.dense_bytes()[..], &cols.gather_bytes()[..]);
        assert!(cols.data_eq(&cols.contiguous()));
    }

    #[test]
    fn f32_and_i64_round_trip() {
        let t = Tensor::from_f32(&[1.5, -2.0, 3.25], &[3], DeviceId::Cpu).unwrap();
        assert_eq!(t.to_vec_f32().unwrap(), vec![1.5, -2.0, 3.25]);
        let t = Tensor::from_i64(&[-7, 9], &[2], DeviceId::Cpu).unwrap();
        assert_eq!(t.to_vec_i64().unwrap(), vec![-7, 9]);
    }

    #[test]
    fn dtype_mismatch_is_error() {
        let t = Tensor::from_f32(&[1.0], &[1], DeviceId::Cpu).unwrap();
        assert!(matches!(
            t.to_vec_u8().unwrap_err(),
            TensorError::DType { .. }
        ));
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = Tensor::rand_u8(&[16], DeviceId::Cpu, 7);
        let b = Tensor::rand_u8(&[16], DeviceId::Cpu, 7);
        let c = Tensor::rand_u8(&[16], DeviceId::Cpu, 8);
        assert!(a.data_eq(&b));
        assert!(!a.data_eq(&c));
    }

    #[test]
    fn to_device_relabels_with_copy() {
        let t = seq_u8(4, &[4]);
        let g = t.to_device(DeviceId::Gpu(1));
        assert_eq!(g.device(), DeviceId::Gpu(1));
        assert_ne!(g.storage_id(), t.storage_id());
        assert_eq!(g.to_vec_u8().unwrap(), t.to_vec_u8().unwrap());
    }

    #[test]
    fn from_parts_rejects_oversized_views() {
        let storage = Arc::new(Storage::new(vec![0u8; 8], DeviceId::Cpu));
        assert!(Tensor::from_parts(storage.clone(), DType::U8, vec![9], vec![1], 0).is_err());
        assert!(Tensor::from_parts(storage.clone(), DType::U8, vec![4], vec![1], 5).is_err());
        assert!(Tensor::from_parts(storage, DType::U8, vec![4], vec![1, 1], 0).is_err());
    }

    #[test]
    fn empty_tensor_is_fine() {
        let t = Tensor::from_u8(vec![], &[0, 3], DeviceId::Cpu).unwrap();
        assert_eq!(t.numel(), 0);
        assert_eq!(t.gather_bytes(), Vec::<u8>::new());
    }
}
