//! Dataset and sample abstractions.

use crate::Result;
use bytes::Bytes;
use ts_tensor::{RowMut, Tensor, TensorError};

/// An undecoded sample as it comes off storage: encoded bytes plus label.
#[derive(Debug, Clone)]
pub struct RawSample {
    /// Position in the dataset.
    pub index: usize,
    /// Encoded payload (what would sit in the file on disk).
    pub bytes: Bytes,
    /// Supervised label (class id / token count / caption id).
    pub label: i64,
}

/// A decoded sample: one or more tensor fields plus the label.
///
/// Field conventions per modality:
/// * image: `fields[0]` = `U8 [3, H, W]`
/// * audio: `fields[0]` = `F32 [samples]`
/// * caption pair: `fields[0]` = image, `fields[1]` = `I64 [tokens]`
/// * text: `fields[0]` = `I64 [tokens]` (fixed length, padded)
#[derive(Debug, Clone)]
pub struct DecodedSample {
    /// Position in the dataset.
    pub index: usize,
    /// Tensor fields.
    pub fields: Vec<Tensor>,
    /// Supervised label.
    pub label: i64,
}

/// A map-style dataset: random access to raw samples.
///
/// Implementations must be cheap to `get` relative to decoding; the decode
/// cost belongs to the pipeline so that `num_workers` scales it, as in
/// PyTorch.
pub trait Dataset: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches the raw (encoded) sample at `index`.
    fn get(&self, index: usize) -> Result<RawSample>;

    /// Bytes a single encoded sample occupies on storage (used by the
    /// simulator's disk model and by I/O accounting).
    fn encoded_sample_bytes(&self) -> usize;

    /// Decodes a raw sample into tensor fields. This is where the real CPU
    /// work happens.
    fn decode(&self, raw: &RawSample) -> Result<DecodedSample>;

    /// Decodes a raw sample **straight into a batch**: `rows[f]` is the row
    /// field `f` of this sample occupies in the batch tensor under
    /// construction — heap memory, or a shared-memory slot consumers will
    /// map — so the decoder's write is the only one the payload ever gets.
    /// Returns the sample's label.
    ///
    /// `like` is the batch's first sample, decoded with
    /// [`Dataset::decode`]: it fixed the batch's field count and every
    /// field's dtype, shape and device, and there is one row per field of
    /// it. A row is filled by copying a tensor in ([`RowMut::write`]) or by
    /// declaring the dtype and shape about to be written and writing the
    /// bytes ([`RowMut::bytes_mut`]); either way the row checks what it is
    /// given against `like`'s field and refuses a mismatch with the error
    /// collating that sample would have raised. **Contract:** every row is
    /// written, exactly once and completely — a slice from `bytes_mut` is
    /// exactly one sample long and may hold a previous batch's bytes. The
    /// loader checks that no row was left out.
    ///
    /// The default decodes as usual and copies each field into its row
    /// (one copy); override it when the decoder can write where it is told
    /// to, as the synthetic datasets do.
    fn decode_into(
        &self,
        raw: &RawSample,
        like: &DecodedSample,
        rows: &mut [RowMut<'_>],
    ) -> Result<i64> {
        let _ = like;
        let decoded = self.decode(raw)?;
        write_fields(&decoded.fields, rows)?;
        Ok(decoded.label)
    }

    /// Short human-readable name.
    fn name(&self) -> &str {
        "dataset"
    }
}

/// Copies a decoded sample's fields into a batch's rows, one each.
pub(crate) fn write_fields(fields: &[Tensor], rows: &mut [RowMut<'_>]) -> Result<()> {
    if fields.len() != rows.len() {
        return Err(field_count_mismatch(fields.len(), rows.len()));
    }
    for (field, row) in fields.iter().zip(rows) {
        row.write(field)?;
    }
    Ok(())
}

/// A sample of `got` fields in a batch whose first sample has `expected`.
pub(crate) fn field_count_mismatch(got: usize, expected: usize) -> crate::DataError {
    TensorError::Shape(format!(
        "collate field count mismatch: a sample of {got} fields in a batch of {expected}"
    ))
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;

    struct TinyDataset;

    impl Dataset for TinyDataset {
        fn len(&self) -> usize {
            3
        }
        fn get(&self, index: usize) -> Result<RawSample> {
            if index >= 3 {
                return Err(crate::DataError::IndexOutOfRange { index, len: 3 });
            }
            Ok(RawSample {
                index,
                bytes: Bytes::from(vec![index as u8; 4]),
                label: index as i64,
            })
        }
        fn encoded_sample_bytes(&self) -> usize {
            4
        }
        fn decode(&self, raw: &RawSample) -> Result<DecodedSample> {
            let t = Tensor::from_u8(raw.bytes.to_vec(), &[4], DeviceId::Cpu)?;
            Ok(DecodedSample {
                index: raw.index,
                fields: vec![t],
                label: raw.label,
            })
        }
    }

    #[test]
    fn trait_object_usable() {
        let ds: Box<dyn Dataset> = Box::new(TinyDataset);
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        let raw = ds.get(1).unwrap();
        let dec = ds.decode(&raw).unwrap();
        assert_eq!(dec.fields[0].to_vec_u8().unwrap(), vec![1, 1, 1, 1]);
        assert!(ds.get(5).is_err());
    }
}
