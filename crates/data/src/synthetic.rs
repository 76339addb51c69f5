//! Synthetic datasets matching the shapes and cost profiles of the paper's
//! datasets (Table 1): ImageNet-1K, LibriSpeech, CC3M, Alpaca.

use crate::codec::{decode_bytes, decode_bytes_into, decode_f32_into, encode_stub};
use crate::sample::{field_count_mismatch, Dataset, DecodedSample, RawSample};
use crate::{DataError, Result};
use ts_device::DeviceId;
use ts_tensor::{DType, RowMut, Tensor};

fn check_index(index: usize, len: usize) -> Result<()> {
    if index >= len {
        return Err(DataError::IndexOutOfRange { index, len });
    }
    Ok(())
}

/// The batch rows of a sample of `N` fields (`decode_into`'s `rows`).
fn rows_of<'a, 'b, const N: usize>(rows: &'a mut [RowMut<'b>]) -> Result<&'a mut [RowMut<'b>; N]> {
    let given = rows.len();
    rows.try_into().map_err(|_| field_count_mismatch(N, given))
}

/// Writes `values` as little-endian `i64`s over the whole of `out`.
fn write_i64s(values: impl Iterator<Item = i64>, out: &mut [u8]) {
    for (slot, v) in out.chunks_exact_mut(8).zip(values) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// ImageNet-like image classification dataset.
///
/// Samples decode to `U8 [3, H, W]` tensors; encoded size defaults to the
/// ~110 KB average of ImageNet JPEGs.
#[derive(Debug, Clone)]
pub struct SyntheticImageDataset {
    len: usize,
    height: usize,
    width: usize,
    encoded_len: usize,
    classes: i64,
    seed: u64,
    fetch_latency: std::time::Duration,
}

impl SyntheticImageDataset {
    /// A dataset of `len` images decoding to `3×height×width`.
    pub fn new(len: usize, height: usize, width: usize, seed: u64) -> Self {
        Self {
            len,
            height,
            width,
            encoded_len: 110_000,
            classes: 1000,
            seed,
            fetch_latency: std::time::Duration::ZERO,
        }
    }

    /// ImageNet-1K-like configuration decoded at `256×256` (random-cropped
    /// to 224 by the transform pipeline, as TIMM does).
    pub fn imagenet_like(len: usize, seed: u64) -> Self {
        Self::new(len, 256, 256, seed)
    }

    /// Overrides the encoded sample size.
    pub fn with_encoded_len(mut self, encoded_len: usize) -> Self {
        self.encoded_len = encoded_len;
        self
    }

    /// Models per-sample storage fetch latency: `get` blocks this long
    /// before returning the encoded bytes, the way a disk/NFS read would.
    /// Loading then has the real two-part cost profile — I/O wait (hidden
    /// by parallel loader workers) plus decode CPU — which is what
    /// `num_workers` exists to overlap.
    pub fn with_fetch_latency(mut self, fetch_latency: std::time::Duration) -> Self {
        self.fetch_latency = fetch_latency;
        self
    }

    /// Decoded image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Decoded image width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Dataset for SyntheticImageDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        check_index(index, self.len)?;
        if !self.fetch_latency.is_zero() {
            std::thread::sleep(self.fetch_latency);
        }
        Ok(RawSample {
            index,
            bytes: encode_stub(self.seed, index as u64, self.encoded_len),
            label: (splitlabel(self.seed, index) % self.classes.max(1) as u64) as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        self.encoded_len
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let n = 3 * self.height * self.width;
        let pixels = decode_bytes(&raw.bytes, n);
        let img = Tensor::from_u8(pixels, &[3, self.height, self.width], DeviceId::Cpu)?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![img],
            label: raw.label,
        })
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        _like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let [image] = rows_of(rows)?;
        let pixels = image.bytes_mut(DType::U8, &[3, self.height, self.width])?;
        decode_bytes_into(&raw.bytes, pixels);
        Ok(raw.label)
    }

    fn name(&self) -> &str {
        "synthetic-imagenet"
    }
}

/// LibriSpeech-like audio dataset for CLMR-style training.
///
/// Samples decode to `F32 [samples_per_clip]` waveforms. CLMR uses raw
/// windows of 59049 samples; FLAC compresses roughly 2:1, reflected in the
/// default encoded size.
#[derive(Debug, Clone)]
pub struct SyntheticAudioDataset {
    len: usize,
    samples_per_clip: usize,
    encoded_len: usize,
    seed: u64,
}

impl SyntheticAudioDataset {
    /// A dataset of `len` clips of `samples_per_clip` samples.
    pub fn new(len: usize, samples_per_clip: usize, seed: u64) -> Self {
        Self {
            len,
            samples_per_clip,
            encoded_len: samples_per_clip, // ~2:1 over 16-bit PCM
            seed,
        }
    }

    /// LibriSpeech/CLMR-like configuration (59049-sample windows).
    pub fn librispeech_like(len: usize, seed: u64) -> Self {
        Self::new(len, 59_049, seed)
    }

    /// Samples per decoded clip.
    pub fn samples_per_clip(&self) -> usize {
        self.samples_per_clip
    }
}

impl Dataset for SyntheticAudioDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        check_index(index, self.len)?;
        Ok(RawSample {
            index,
            bytes: encode_stub(self.seed ^ 0xA0D10, index as u64, self.encoded_len),
            label: (splitlabel(self.seed, index) % 2451) as i64, // speaker ids
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        self.encoded_len
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let mut wave = vec![0u8; 4 * self.samples_per_clip];
        decode_f32_into(&raw.bytes, &mut wave);
        let t = Tensor::from_bytes(wave, DType::F32, &[self.samples_per_clip], DeviceId::Cpu)?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![t],
            label: raw.label,
        })
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        _like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let [wave] = rows_of(rows)?;
        let wave = wave.bytes_mut(DType::F32, &[self.samples_per_clip])?;
        decode_f32_into(&raw.bytes, wave);
        Ok(raw.label)
    }

    fn name(&self) -> &str {
        "synthetic-librispeech"
    }
}

/// CC3M-like image–caption dataset for DALL-E 2 prior training.
///
/// Samples decode to an image `U8 [3, H, W]` plus caption token ids
/// `I64 [tokens]` (fixed CLIP context length of 77).
#[derive(Debug, Clone)]
pub struct SyntheticCaptionDataset {
    len: usize,
    height: usize,
    width: usize,
    tokens: usize,
    encoded_len: usize,
    seed: u64,
}

impl SyntheticCaptionDataset {
    /// A dataset of `len` image–caption pairs.
    pub fn new(len: usize, seed: u64) -> Self {
        Self {
            len,
            height: 224,
            width: 224,
            tokens: 77,
            encoded_len: 90_000,
            seed,
        }
    }

    /// Caption context length.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Token ids derived from the head of the encoded sample.
    fn caption(&self, raw: &RawSample) -> impl Iterator<Item = i64> {
        let tok_bytes = decode_bytes(&raw.bytes[..8.min(raw.bytes.len())], self.tokens);
        tok_bytes.into_iter().map(|b| (b as i64) % 49408)
    }
}

impl Dataset for SyntheticCaptionDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        check_index(index, self.len)?;
        Ok(RawSample {
            index,
            bytes: encode_stub(self.seed ^ 0xCC3A, index as u64, self.encoded_len),
            label: index as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        self.encoded_len
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let n = 3 * self.height * self.width;
        let pixels = decode_bytes(&raw.bytes, n);
        let img = Tensor::from_u8(pixels, &[3, self.height, self.width], DeviceId::Cpu)?;
        let toks: Vec<i64> = self.caption(raw).collect();
        let caption = Tensor::from_i64(&toks, &[self.tokens], DeviceId::Cpu)?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![img, caption],
            label: raw.label,
        })
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        _like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let [image, caption] = rows_of(rows)?;
        let pixels = image.bytes_mut(DType::U8, &[3, self.height, self.width])?;
        decode_bytes_into(&raw.bytes, pixels);
        let toks = caption.bytes_mut(DType::I64, &[self.tokens])?;
        write_i64s(self.caption(raw), toks);
        Ok(raw.label)
    }

    fn name(&self) -> &str {
        "synthetic-cc3m"
    }
}

/// Alpaca-like instruction-tuning dataset.
///
/// Samples decode to `I64 [max_tokens]` padded token sequences, the shape a
/// TorchTune fine-tuning recipe consumes.
#[derive(Debug, Clone)]
pub struct SyntheticTextDataset {
    len: usize,
    max_tokens: usize,
    vocab: i64,
    seed: u64,
}

impl SyntheticTextDataset {
    /// A dataset of `len` sequences padded to `max_tokens`.
    pub fn new(len: usize, max_tokens: usize, seed: u64) -> Self {
        Self {
            len,
            max_tokens,
            vocab: 151_936, // Qwen2.5 vocabulary
            seed,
        }
    }

    /// Alpaca-like configuration (512-token sequences).
    pub fn alpaca_like(len: usize, seed: u64) -> Self {
        Self::new(len, 512, seed)
    }

    /// Padded sequence length.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// The sample's `max_tokens` token ids: the sequence length varies
    /// between 25% and 100% of max, the rest is pad(0).
    fn tokens(&self, raw: &RawSample) -> impl Iterator<Item = i64> {
        let span = splitlabel(self.seed, raw.index) as usize;
        let real = self.max_tokens / 4 + span % (3 * self.max_tokens / 4).max(1);
        let vocab = self.vocab;
        let bytes = decode_bytes(&raw.bytes, real * 2);
        (0..self.max_tokens).map(move |i| match bytes.get(2 * i..2 * i + 2) {
            Some(pair) => ((u16::from_le_bytes([pair[0], pair[1]]) as i64) % (vocab - 1)) + 1,
            None => 0,
        })
    }
}

impl Dataset for SyntheticTextDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        check_index(index, self.len)?;
        // Text samples are tiny on disk; 4 bytes per (varint-ish) token.
        Ok(RawSample {
            index,
            bytes: encode_stub(self.seed ^ 0xA1BACA, index as u64, self.max_tokens * 2),
            label: index as i64,
        })
    }

    fn encoded_sample_bytes(&self) -> usize {
        self.max_tokens * 2
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let toks: Vec<i64> = self.tokens(raw).collect();
        let t = Tensor::from_i64(&toks, &[self.max_tokens], DeviceId::Cpu)?;
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![t],
            label: raw.label,
        })
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        _like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let [toks] = rows_of(rows)?;
        let toks = toks.bytes_mut(DType::I64, &[self.max_tokens])?;
        write_i64s(self.tokens(raw), toks);
        Ok(raw.label)
    }

    fn name(&self) -> &str {
        "synthetic-alpaca"
    }
}

fn splitlabel(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_dataset_shapes_and_determinism() {
        let ds = SyntheticImageDataset::new(10, 32, 48, 1).with_encoded_len(256);
        assert_eq!(ds.len(), 10);
        let raw = ds.get(3).unwrap();
        assert_eq!(raw.bytes.len(), 256);
        let dec = ds.decode(&raw).unwrap();
        assert_eq!(dec.fields[0].shape(), &[3, 32, 48]);
        let again = ds.decode(&ds.get(3).unwrap()).unwrap();
        assert!(dec.fields[0].data_eq(&again.fields[0]));
        assert!((0..1000).contains(&dec.label));
    }

    #[test]
    fn image_out_of_range() {
        let ds = SyntheticImageDataset::new(2, 8, 8, 0);
        assert!(matches!(
            ds.get(2).unwrap_err(),
            DataError::IndexOutOfRange { index: 2, len: 2 }
        ));
    }

    #[test]
    fn audio_dataset_waveforms() {
        let ds = SyntheticAudioDataset::new(4, 1024, 9);
        let dec = ds.decode(&ds.get(0).unwrap()).unwrap();
        assert_eq!(dec.fields[0].shape(), &[1024]);
        let v = dec.fields[0].to_vec_f32().unwrap();
        assert!(v.iter().all(|x| (-1.0..=1.0).contains(x)));
    }

    #[test]
    fn caption_dataset_has_two_fields() {
        let mut ds = SyntheticCaptionDataset::new(4, 2);
        ds.height = 16;
        ds.width = 16;
        ds.encoded_len = 128;
        let dec = ds.decode(&ds.get(1).unwrap()).unwrap();
        assert_eq!(dec.fields.len(), 2);
        assert_eq!(dec.fields[0].shape(), &[3, 16, 16]);
        assert_eq!(dec.fields[1].shape(), &[77]);
        let toks = dec.fields[1].to_vec_i64().unwrap();
        assert!(toks.iter().all(|&t| (0..49408).contains(&t)));
    }

    #[test]
    fn text_dataset_padded_tokens() {
        let ds = SyntheticTextDataset::new(6, 64, 3);
        let dec = ds.decode(&ds.get(2).unwrap()).unwrap();
        assert_eq!(dec.fields[0].shape(), &[64]);
        let toks = dec.fields[0].to_vec_i64().unwrap();
        // starts with non-pad tokens, may end padded
        assert!(toks[0] > 0);
        assert!(toks.iter().all(|&t| t >= 0));
        // at least 25% of tokens are real
        assert!(toks.iter().filter(|&&t| t > 0).count() >= 16);
    }

    #[test]
    fn different_indices_have_different_payloads() {
        let ds = SyntheticImageDataset::new(4, 8, 8, 0).with_encoded_len(64);
        assert_ne!(ds.get(0).unwrap().bytes, ds.get(1).unwrap().bytes);
    }
}
