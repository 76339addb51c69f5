//! Small numeric kernels.
//!
//! These are not a math library; they exist so examples and tests can run
//! *real* CPU work against tensor data (decode validation, checksums, a
//! miniature "training step") instead of sleeping — the reproduction's
//! stand-in for model compute where real GPU kernels would run.

use crate::{DType, Result, Tensor, TensorError};

/// FNV-1a checksum of the view's bytes (order-sensitive).
pub fn checksum(t: &Tensor) -> u64 {
    fnv1a(&t.dense_bytes())
}

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Mean of an `F32` tensor; `0.0` for empty tensors.
pub fn mean_f32(t: &Tensor) -> Result<f32> {
    let v = t.to_vec_f32()?;
    if v.is_empty() {
        return Ok(0.0);
    }
    Ok(v.iter().sum::<f32>() / v.len() as f32)
}

/// `y = a*x + y` over two equally shaped `F32` tensors, returning a fresh
/// tensor. Used as the "gradient step" of the miniature training loops.
pub fn saxpy(a: f32, x: &Tensor, y: &Tensor) -> Result<Tensor> {
    if x.dtype() != DType::F32 || y.dtype() != DType::F32 {
        return Err(TensorError::DType {
            expected: DType::F32,
            got: if x.dtype() != DType::F32 {
                x.dtype()
            } else {
                y.dtype()
            },
        });
    }
    if x.shape() != y.shape() {
        return Err(TensorError::Shape(format!(
            "saxpy shape mismatch: {:?} vs {:?}",
            x.shape(),
            y.shape()
        )));
    }
    let xv = x.to_vec_f32()?;
    let yv = y.to_vec_f32()?;
    let out: Vec<f32> = xv.iter().zip(&yv).map(|(xi, yi)| a * xi + yi).collect();
    Tensor::from_f32(&out, x.shape(), x.device())
}

/// Burns real CPU time proportional to `units`, returning a value that
/// depends on every iteration so the work cannot be optimized away.
///
/// One unit is roughly a few nanoseconds of integer work; callers calibrate
/// against wall-clock where it matters.
pub fn busy_work(seed: u64, units: u64) -> u64 {
    let mut h = seed | 1;
    for i in 0..units {
        h ^= i;
        h = h.wrapping_mul(0x100000001b3);
        h ^= h >> 33;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;

    #[test]
    fn checksum_is_stable_and_view_sensitive() {
        let t = Tensor::rand_u8(&[4, 4], DeviceId::Cpu, 5);
        assert_eq!(checksum(&t), checksum(&t.clone()));
        let half = t.narrow(0, 0, 2).unwrap();
        assert_ne!(checksum(&t), checksum(&half));
        // a view checksums the same as its materialized copy
        assert_eq!(checksum(&half), checksum(&half.contiguous()));
    }

    #[test]
    fn mean_of_known_values() {
        let t = Tensor::from_f32(&[1.0, 2.0, 3.0, 6.0], &[4], DeviceId::Cpu).unwrap();
        assert_eq!(mean_f32(&t).unwrap(), 3.0);
        let empty = Tensor::from_f32(&[], &[0], DeviceId::Cpu).unwrap();
        assert_eq!(mean_f32(&empty).unwrap(), 0.0);
    }

    #[test]
    fn saxpy_math_and_validation() {
        let x = Tensor::from_f32(&[1.0, 2.0], &[2], DeviceId::Cpu).unwrap();
        let y = Tensor::from_f32(&[10.0, 20.0], &[2], DeviceId::Cpu).unwrap();
        let z = saxpy(2.0, &x, &y).unwrap();
        assert_eq!(z.to_vec_f32().unwrap(), vec![12.0, 24.0]);
        let bad = Tensor::from_f32(&[1.0], &[1], DeviceId::Cpu).unwrap();
        assert!(saxpy(1.0, &x, &bad).is_err());
        let not_f32 = Tensor::from_u8(vec![1, 2], &[2], DeviceId::Cpu).unwrap();
        assert!(saxpy(1.0, &not_f32, &y).is_err());
    }

    #[test]
    fn busy_work_depends_on_inputs() {
        assert_eq!(busy_work(1, 100), busy_work(1, 100));
        assert_ne!(busy_work(1, 100), busy_work(2, 100));
        assert_ne!(busy_work(1, 100), busy_work(1, 101));
    }
}
