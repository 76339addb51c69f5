//! Dataset combinators: concatenation and subsetting, mirroring
//! `torch.utils.data.ConcatDataset` / `Subset`.
//!
//! These matter to the sharing story: Joader's selling point is sharing
//! across *overlapping* datasets, which users typically build with exactly
//! these combinators (a subset for a cheap trial, a concat for an extended
//! corpus). With TensorSocket, consumers of a subset simply attach to the
//! producer of the superset's loader.

use crate::sample::{Dataset, DecodedSample, RawSample};
use crate::{DataError, Result};
use std::sync::Arc;
use ts_tensor::RowMut;

/// Chains several datasets end to end.
pub struct ConcatDataset {
    parts: Vec<Arc<dyn Dataset>>,
    /// Exclusive prefix sums of part lengths.
    offsets: Vec<usize>,
    len: usize,
}

impl ConcatDataset {
    /// Concatenates `parts` in order.
    ///
    /// # Panics
    /// Panics when `parts` is empty.
    pub fn new(parts: Vec<Arc<dyn Dataset>>) -> Self {
        assert!(!parts.is_empty(), "ConcatDataset of zero parts");
        let mut offsets = Vec::with_capacity(parts.len());
        let mut acc = 0usize;
        for p in &parts {
            offsets.push(acc);
            acc += p.len();
        }
        Self {
            parts,
            offsets,
            len: acc,
        }
    }

    fn locate(&self, index: usize) -> Result<(usize, usize)> {
        if index >= self.len {
            return Err(DataError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        let part = self
            .offsets
            .partition_point(|&off| off <= index)
            .saturating_sub(1);
        Ok((part, index - self.offsets[part]))
    }

    /// The part that decodes `raw`, and `raw` as that part indexes it.
    fn local(&self, raw: &RawSample) -> Result<(&dyn Dataset, RawSample)> {
        let (part, local) = self.locate(raw.index)?;
        let local_raw = RawSample {
            index: local,
            bytes: raw.bytes.clone(),
            label: raw.label,
        };
        Ok((&*self.parts[part], local_raw))
    }
}

impl Dataset for ConcatDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        let (part, local) = self.locate(index)?;
        let mut raw = self.parts[part].get(local)?;
        raw.index = index;
        Ok(raw)
    }

    fn encoded_sample_bytes(&self) -> usize {
        // conservative: the largest of the parts
        self.parts
            .iter()
            .map(|p| p.encoded_sample_bytes())
            .max()
            .unwrap_or(0)
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let (part, local_raw) = self.local(raw)?;
        let mut dec = part.decode(&local_raw)?;
        dec.index = raw.index;
        Ok(dec)
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let (part, local_raw) = self.local(raw)?;
        part.decode_into(&local_raw, like, rows)
    }

    fn name(&self) -> &str {
        "concat"
    }
}

/// A view of selected indices of another dataset.
pub struct SubsetDataset {
    base: Arc<dyn Dataset>,
    indices: Vec<usize>,
}

impl SubsetDataset {
    /// Selects `indices` (in the given order) from `base`.
    ///
    /// # Errors
    /// Fails when any index is out of range for `base`.
    pub fn new(base: Arc<dyn Dataset>, indices: Vec<usize>) -> Result<Self> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= base.len()) {
            return Err(DataError::IndexOutOfRange {
                index: bad,
                len: base.len(),
            });
        }
        Ok(Self { base, indices })
    }

    /// The first `n` samples of `base`.
    pub fn head(base: Arc<dyn Dataset>, n: usize) -> Result<Self> {
        let n = n.min(base.len());
        Self::new(base, (0..n).collect())
    }

    /// `raw` as the base dataset indexes it.
    fn base_raw(&self, raw: &RawSample) -> Result<RawSample> {
        let &base_index = self
            .indices
            .get(raw.index)
            .ok_or(DataError::IndexOutOfRange {
                index: raw.index,
                len: self.indices.len(),
            })?;
        Ok(RawSample {
            index: base_index,
            bytes: raw.bytes.clone(),
            label: raw.label,
        })
    }
}

impl Dataset for SubsetDataset {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn get(&self, index: usize) -> Result<RawSample> {
        let &base_index = self.indices.get(index).ok_or(DataError::IndexOutOfRange {
            index,
            len: self.indices.len(),
        })?;
        let mut raw = self.base.get(base_index)?;
        raw.index = index;
        Ok(raw)
    }

    fn encoded_sample_bytes(&self) -> usize {
        self.base.encoded_sample_bytes()
    }

    fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
        let mut dec = self.base.decode(&self.base_raw(raw)?)?;
        dec.index = raw.index;
        Ok(dec)
    }

    fn decode_into(
        &self,
        raw: &RawSample,
        like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        self.base.decode_into(&self.base_raw(raw)?, like, rows)
    }

    fn name(&self) -> &str {
        "subset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticImageDataset;

    fn img(n: usize, seed: u64) -> Arc<dyn Dataset> {
        Arc::new(SyntheticImageDataset::new(n, 8, 8, seed).with_encoded_len(64))
    }

    #[test]
    fn concat_reindexes_across_parts() {
        let ds = ConcatDataset::new(vec![img(3, 1), img(2, 2)]);
        assert_eq!(ds.len(), 5);
        // index 3 maps to part 1, local 0
        let raw3 = ds.get(3).unwrap();
        assert_eq!(raw3.index, 3);
        let direct = img(2, 2).get(0).unwrap();
        assert_eq!(raw3.bytes, direct.bytes);
        assert!(ds.get(5).is_err());
    }

    #[test]
    fn concat_decode_round_trips() {
        let ds = ConcatDataset::new(vec![img(3, 1), img(2, 2)]);
        for i in 0..ds.len() {
            let raw = ds.get(i).unwrap();
            let dec = ds.decode(&raw).unwrap();
            assert_eq!(dec.index, i);
            assert_eq!(dec.fields[0].shape(), &[3, 8, 8]);
        }
    }

    #[test]
    fn subset_selects_and_reorders() {
        let base = img(10, 3);
        let sub = SubsetDataset::new(base.clone(), vec![7, 2, 5]).unwrap();
        assert_eq!(sub.len(), 3);
        let raw = sub.get(0).unwrap();
        assert_eq!(raw.bytes, base.get(7).unwrap().bytes);
        assert_eq!(raw.index, 0);
        assert!(sub.get(3).is_err());
    }

    #[test]
    fn subset_rejects_bad_indices() {
        assert!(SubsetDataset::new(img(4, 0), vec![0, 4]).is_err());
    }

    #[test]
    fn head_clamps() {
        let sub = SubsetDataset::head(img(4, 0), 100).unwrap();
        assert_eq!(sub.len(), 4);
    }

    #[test]
    fn combinators_work_with_the_loader() {
        use crate::loader::{DataLoader, DataLoaderConfig};
        let ds = Arc::new(ConcatDataset::new(vec![img(6, 1), img(6, 2)]));
        let sub = Arc::new(SubsetDataset::head(ds, 8).unwrap());
        let loader = DataLoader::new(
            sub,
            DataLoaderConfig {
                batch_size: 4,
                num_workers: 2,
                shuffle: false,
                ..Default::default()
            },
        );
        let batches: Vec<_> = loader.epoch(0).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].fields[0].shape(), &[4, 3, 8, 8]);
    }
}
