//! Augmentation transforms applied to the primary field of decoded samples.
//!
//! These mirror the TIMM defaults the paper's training scripts use: random
//! crop and horizontal flip on `U8 [3, H, W]` images (normalization happens
//! on-GPU in the reproduction, matching the uint8 host→device transfer
//! volume seen in Table 3). Transforms are seeded per `(epoch, sample)` so
//! runs are reproducible while still varying across epochs.

use crate::{DataError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ts_tensor::{DType, Tensor};

/// A deterministic-given-rng transform of one tensor field.
pub trait Transform: Send + Sync {
    /// Applies the transform.
    fn apply(&self, input: &Tensor, rng: &mut StdRng) -> Result<Tensor>;

    /// Short name for diagnostics.
    fn name(&self) -> &str;
}

/// Random spatial crop of a `[C, H, W]` image to `[C, out_h, out_w]`.
#[derive(Debug, Clone)]
pub struct RandomCrop {
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Transform for RandomCrop {
    fn apply(&self, input: &Tensor, rng: &mut StdRng) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 3 {
            return Err(DataError::Decode(format!(
                "RandomCrop expects [C,H,W], got {shape:?}"
            )));
        }
        let (h, w) = (shape[1], shape[2]);
        if self.out_h > h || self.out_w > w {
            return Err(DataError::Decode(format!(
                "crop {}x{} larger than image {h}x{w}",
                self.out_h, self.out_w
            )));
        }
        let top = if h == self.out_h {
            0
        } else {
            rng.gen_range(0..=h - self.out_h)
        };
        let left = if w == self.out_w {
            0
        } else {
            rng.gen_range(0..=w - self.out_w)
        };
        let cropped = input
            .narrow(1, top, self.out_h)?
            .narrow(2, left, self.out_w)?;
        // Materialize: downstream collation assumes dense samples, like
        // torchvision's crop returning a contiguous tensor.
        Ok(cropped.contiguous())
    }

    fn name(&self) -> &str {
        "random_crop"
    }
}

/// Horizontal flip with probability `p` on `[C, H, W]` images.
#[derive(Debug, Clone)]
pub struct RandomHFlip {
    /// Flip probability in `[0, 1]`.
    pub p: f64,
}

impl Transform for RandomHFlip {
    fn apply(&self, input: &Tensor, rng: &mut StdRng) -> Result<Tensor> {
        let shape = input.shape().to_vec();
        if shape.len() != 3 {
            return Err(DataError::Decode(format!(
                "RandomHFlip expects [C,H,W], got {shape:?}"
            )));
        }
        if !rng.gen_bool(self.p.clamp(0.0, 1.0)) {
            return Ok(input.clone());
        }
        if input.dtype() != DType::U8 {
            return Err(DataError::Decode("RandomHFlip expects U8 images".into()));
        }
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let src = input.dense_bytes();
        let mut dst = vec![0u8; src.len()];
        for ci in 0..c {
            for hi in 0..h {
                let row = (ci * h + hi) * w;
                for wi in 0..w {
                    dst[row + wi] = src[row + (w - 1 - wi)];
                }
            }
        }
        Ok(Tensor::from_u8(dst, &shape, input.device())?)
    }

    fn name(&self) -> &str {
        "random_hflip"
    }
}

/// Nearest-neighbour resize of a `[C, H, W]` image to `[C, out_h, out_w]`.
///
/// TIMM pipelines resize before cropping; nearest-neighbour keeps the
/// kernel dependency-free while costing realistic CPU per output pixel.
#[derive(Debug, Clone)]
pub struct Resize {
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Transform for Resize {
    fn apply(&self, input: &Tensor, _rng: &mut StdRng) -> Result<Tensor> {
        let shape = input.shape().to_vec();
        if shape.len() != 3 {
            return Err(DataError::Decode(format!(
                "Resize expects [C,H,W], got {shape:?}"
            )));
        }
        if input.dtype() != DType::U8 {
            return Err(DataError::Decode("Resize expects U8 images".into()));
        }
        if self.out_h == 0 || self.out_w == 0 {
            return Err(DataError::Decode("Resize to zero size".into()));
        }
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let src = input.dense_bytes();
        let mut dst = vec![0u8; c * self.out_h * self.out_w];
        for ci in 0..c {
            for oy in 0..self.out_h {
                let sy = oy * h / self.out_h;
                for ox in 0..self.out_w {
                    let sx = ox * w / self.out_w;
                    dst[(ci * self.out_h + oy) * self.out_w + ox] = src[(ci * h + sy) * w + sx];
                }
            }
        }
        Ok(Tensor::from_u8(
            dst,
            &[c, self.out_h, self.out_w],
            input.device(),
        )?)
    }

    fn name(&self) -> &str {
        "resize"
    }
}

/// Converts `U8` to `F32` applying `(x/255 - mean) / std` per channel.
///
/// Kept for CPU-side normalization pipelines; the default reproduction
/// pipelines normalize on the GPU instead (cheaper PCIe, as in the paper).
#[derive(Debug, Clone)]
pub struct Normalize {
    /// Per-channel mean in `[0,1]` space.
    pub mean: Vec<f32>,
    /// Per-channel std in `[0,1]` space.
    pub std: Vec<f32>,
}

impl Transform for Normalize {
    fn apply(&self, input: &Tensor, _rng: &mut StdRng) -> Result<Tensor> {
        let shape = input.shape().to_vec();
        if shape.len() != 3 || shape[0] != self.mean.len() || shape[0] != self.std.len() {
            return Err(DataError::Decode(format!(
                "Normalize with {} channels got shape {shape:?}",
                self.mean.len()
            )));
        }
        let bytes = input.to_vec_u8()?;
        let hw = shape[1] * shape[2];
        let mut out = Vec::with_capacity(bytes.len());
        for (i, b) in bytes.iter().enumerate() {
            let c = i / hw;
            out.push(((*b as f32 / 255.0) - self.mean[c]) / self.std[c]);
        }
        Ok(Tensor::from_f32(&out, &shape, input.device())?)
    }

    fn name(&self) -> &str {
        "normalize"
    }
}

/// An ordered list of transforms with per-sample seeding.
#[derive(Default)]
pub struct Pipeline {
    transforms: Vec<Box<dyn Transform>>,
    seed: u64,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.transforms.iter().map(|t| t.name()).collect();
        f.debug_struct("Pipeline")
            .field("transforms", &names)
            .field("seed", &self.seed)
            .finish()
    }
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new(seed: u64) -> Self {
        Self {
            transforms: Vec::new(),
            seed,
        }
    }

    /// Appends a transform.
    pub fn with(mut self, t: impl Transform + 'static) -> Self {
        self.transforms.push(Box::new(t));
        self
    }

    /// The TIMM-like ImageNet training pipeline: random 224-crop + flip.
    pub fn imagenet_train(seed: u64) -> Self {
        Self::new(seed)
            .with(RandomCrop {
                out_h: 224,
                out_w: 224,
            })
            .with(RandomHFlip { p: 0.5 })
    }

    /// Number of transforms.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// True when the pipeline is the identity.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Applies all transforms to `input`, seeding the RNG from
    /// `(pipeline seed, epoch, sample index)`.
    pub fn apply(&self, input: &Tensor, epoch: u64, sample_index: usize) -> Result<Tensor> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ epoch.wrapping_mul(0x9E3779B97F4A7C15) ^ (sample_index as u64) << 1,
        );
        let mut t = input.clone();
        for tr in &self.transforms {
            t = tr.apply(&t, &mut rng)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;

    fn image(h: usize, w: usize) -> Tensor {
        Tensor::rand_u8(&[3, h, w], DeviceId::Cpu, 42)
    }

    #[test]
    fn crop_shape_and_determinism() {
        let img = image(16, 16);
        let p = Pipeline::new(7).with(RandomCrop { out_h: 8, out_w: 8 });
        let a = p.apply(&img, 0, 5).unwrap();
        let b = p.apply(&img, 0, 5).unwrap();
        assert_eq!(a.shape(), &[3, 8, 8]);
        assert!(a.data_eq(&b));
        // different epoch -> (almost surely) different crop
        let c = p.apply(&img, 1, 5).unwrap();
        assert_eq!(c.shape(), &[3, 8, 8]);
    }

    #[test]
    fn crop_rejects_oversize() {
        let img = image(8, 8);
        let crop = RandomCrop { out_h: 9, out_w: 8 };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(crop.apply(&img, &mut rng).is_err());
    }

    #[test]
    fn flip_reverses_rows() {
        let img = Tensor::from_u8(vec![1, 2, 3, 4, 5, 6], &[1, 2, 3], DeviceId::Cpu).unwrap();
        let flip = RandomHFlip { p: 1.0 };
        let mut rng = StdRng::seed_from_u64(0);
        let out = flip.apply(&img, &mut rng).unwrap();
        assert_eq!(out.to_vec_u8().unwrap(), vec![3, 2, 1, 6, 5, 4]);
        // double flip is identity
        let back = flip.apply(&out, &mut rng).unwrap();
        assert!(back.data_eq(&img));
    }

    #[test]
    fn flip_probability_zero_is_identity() {
        let img = image(4, 4);
        let flip = RandomHFlip { p: 0.0 };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(flip.apply(&img, &mut rng).unwrap().data_eq(&img));
    }

    #[test]
    fn normalize_values() {
        let img = Tensor::from_u8(vec![0, 255, 128, 64], &[1, 2, 2], DeviceId::Cpu).unwrap();
        let n = Normalize {
            mean: vec![0.5],
            std: vec![0.5],
        };
        let mut rng = StdRng::seed_from_u64(0);
        let out = n.apply(&img, &mut rng).unwrap();
        let v = out.to_vec_f32().unwrap();
        assert!((v[0] - (-1.0)).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_channel_mismatch() {
        let img = image(4, 4);
        let n = Normalize {
            mean: vec![0.5],
            std: vec![0.5],
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(n.apply(&img, &mut rng).is_err());
    }

    #[test]
    fn imagenet_train_pipeline_end_to_end() {
        let img = Tensor::rand_u8(&[3, 256, 256], DeviceId::Cpu, 0);
        let p = Pipeline::imagenet_train(123);
        let out = p.apply(&img, 0, 0).unwrap();
        assert_eq!(out.shape(), &[3, 224, 224]);
        assert_eq!(p.len(), 2);
    }
}

#[cfg(test)]
mod resize_tests {
    use super::*;
    use ts_device::DeviceId;

    #[test]
    fn resize_shapes_and_identity() {
        let img = Tensor::rand_u8(&[3, 16, 12], DeviceId::Cpu, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let down = Resize { out_h: 8, out_w: 6 }.apply(&img, &mut rng).unwrap();
        assert_eq!(down.shape(), &[3, 8, 6]);
        // identity resize keeps every pixel
        let same = Resize {
            out_h: 16,
            out_w: 12,
        }
        .apply(&img, &mut rng)
        .unwrap();
        assert!(same.data_eq(&img));
    }

    #[test]
    fn resize_upsamples_by_repetition() {
        let img = Tensor::from_u8(vec![1, 2, 3, 4], &[1, 2, 2], DeviceId::Cpu).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let up = Resize { out_h: 4, out_w: 4 }.apply(&img, &mut rng).unwrap();
        assert_eq!(
            up.to_vec_u8().unwrap(),
            vec![1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4]
        );
    }

    #[test]
    fn resize_validates_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let flat = Tensor::rand_u8(&[16], DeviceId::Cpu, 1);
        assert!(Resize { out_h: 4, out_w: 4 }
            .apply(&flat, &mut rng)
            .is_err());
        let img = Tensor::rand_u8(&[3, 4, 4], DeviceId::Cpu, 1);
        assert!(Resize { out_h: 0, out_w: 4 }.apply(&img, &mut rng).is_err());
        let f32img = Tensor::rand_f32(&[3, 4, 4], DeviceId::Cpu, 1);
        assert!(Resize { out_h: 2, out_w: 2 }
            .apply(&f32img, &mut rng)
            .is_err());
    }

    #[test]
    fn resize_then_crop_pipeline() {
        let p = Pipeline::new(3)
            .with(Resize {
                out_h: 32,
                out_w: 32,
            })
            .with(RandomCrop {
                out_h: 24,
                out_w: 24,
            });
        let img = Tensor::rand_u8(&[3, 80, 60], DeviceId::Cpu, 2);
        let out = p.apply(&img, 0, 0).unwrap();
        assert_eq!(out.shape(), &[3, 24, 24]);
    }
}
