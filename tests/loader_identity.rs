//! The loader builds a batch where it will stay — every sample decoded
//! straight into its row of the batch's memory, heap or leased arena slot
//! — and that must change nothing a trainer can see: every batch is
//! bit-identical to the reference built the long way round, `decode` per
//! sample and [`stack0`] per field. Plus the conservation half: whatever
//! happens to a batch built in an arena slot, the slot comes back.

use proptest::prelude::*;
// `rand::rngs::StdRng`, which `Transform::apply` is handed.
use proptest::TestRng as StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ts_data::{
    bind_slot_pool, Batch, DataLoader, DataLoaderConfig, Dataset, DecodedSample, Pipeline,
    RandomCrop, RawSample, Sampler, SequentialSampler, ShuffleSampler, SyntheticAudioDataset,
    SyntheticCaptionDataset, SyntheticImageDataset, SyntheticTextDataset, Transform,
};
use ts_device::DeviceId;
use ts_shm::ShmArena;
use ts_tensor::{stack0, SlotPool, Tensor};

/// `label == index`, one `F32 [2, 3, 4]` field encoding the index, and the
/// trait's default `decode_into` (decode, then one copy into the row).
struct IndexDataset {
    len: usize,
}

impl Dataset for IndexDataset {
    fn len(&self) -> usize {
        self.len
    }
    fn get(&self, index: usize) -> ts_data::Result<RawSample> {
        if index >= self.len {
            return Err(ts_data::DataError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        Ok(RawSample {
            index,
            bytes: bytes::Bytes::new(),
            label: index as i64,
        })
    }
    fn encoded_sample_bytes(&self) -> usize {
        0
    }
    fn decode(&self, raw: &RawSample) -> ts_data::Result<DecodedSample> {
        let values: Vec<f32> = (0..24).map(|i| (raw.index * 24 + i) as f32).collect();
        Ok(DecodedSample {
            index: raw.index,
            fields: vec![Tensor::from_f32(&values, &[2, 3, 4], DeviceId::Cpu)?],
            label: raw.label,
        })
    }
}

/// Keeps the first half of the last dimension **as a view**: not
/// contiguous for a field of two or more dimensions, so the row copy walks
/// strides.
struct FirstHalf;

impl Transform for FirstHalf {
    fn apply(&self, input: &Tensor, _rng: &mut StdRng) -> ts_data::Result<Tensor> {
        let last = input.ndim() - 1;
        Ok(input.narrow(last, 0, input.shape()[last].div_ceil(2))?)
    }
    fn name(&self) -> &str {
        "first_half"
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Augment {
    Identity,
    Crop,
    StridedView,
}

fn pipeline(augment: Augment, seed: u64) -> Arc<Pipeline> {
    let pipeline = Pipeline::new(seed);
    Arc::new(match augment {
        Augment::Identity => pipeline,
        Augment::Crop => pipeline.with(RandomCrop { out_h: 2, out_w: 3 }),
        Augment::StridedView => pipeline.with(FirstHalf),
    })
}

fn temp_arena(nslots: usize, slot_size: usize) -> (Arc<ShmArena>, SlotPool) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ts-loader-identity-{}-{}.arena",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let arena = ShmArena::create(path, nslots, slot_size).unwrap();
    (arena.clone(), SlotPool::new(arena, nslots))
}

/// The epoch built the long way round: the loader's sampler and batching
/// rules, then per sample `get` + `decode` + transform, per field `stack0`.
fn reference(
    dataset: &dyn Dataset,
    pipeline: &Pipeline,
    cfg: &DataLoaderConfig,
    epoch: u64,
) -> Vec<Batch> {
    let indices = if cfg.shuffle {
        ShuffleSampler { seed: cfg.seed }.epoch_indices(epoch, dataset.len())
    } else {
        SequentialSampler.epoch_indices(epoch, dataset.len())
    };
    let chunks: Vec<&[usize]> = indices
        .chunks(cfg.batch_size)
        .filter(|c| !cfg.drop_last || c.len() == cfg.batch_size)
        .collect();
    let build = |(index, chunk): (usize, &&[usize])| {
        let samples: Vec<DecodedSample> = chunk
            .iter()
            .map(|&i| {
                let mut dec = dataset.decode(&dataset.get(i).unwrap()).unwrap();
                if !pipeline.is_empty() {
                    dec.fields[0] = pipeline.apply(&dec.fields[0], epoch, i).unwrap();
                }
                dec
            })
            .collect();
        let field = |f: usize| {
            let column: Vec<Tensor> = samples.iter().map(|s| s.fields[f].clone()).collect();
            stack0(&column).unwrap()
        };
        let labels: Vec<i64> = samples.iter().map(|s| s.label).collect();
        Batch {
            epoch,
            index,
            fields: (0..samples[0].fields.len()).map(field).collect(),
            labels: Tensor::from_i64(&labels, &[labels.len()], DeviceId::Cpu).unwrap(),
            sample_indices: chunk.to_vec(),
            last_in_epoch: index + 1 == chunks.len(),
        }
    };
    chunks.iter().enumerate().map(build).collect()
}

fn assert_same_tensor(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dtype(), want.dtype(), "{what}: dtype");
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(got.device(), want.device(), "{what}: device");
    assert!(got.is_contiguous(), "{what}: a batch tensor is dense");
    assert_eq!(got.bytes().unwrap(), want.bytes().unwrap(), "{what}: bytes");
}

fn assert_same_batch(got: &Batch, want: &Batch, what: &str) {
    assert_eq!(
        (got.epoch, got.index, got.last_in_epoch),
        (want.epoch, want.index, want.last_in_epoch),
        "{what}: position"
    );
    assert_eq!(got.sample_indices, want.sample_indices, "{what}: samples");
    assert_eq!(got.fields.len(), want.fields.len(), "{what}: field count");
    for (f, (g, w)) in got.fields.iter().zip(&want.fields).enumerate() {
        assert_same_tensor(g, w, &format!("{what}: field {f}"));
    }
    assert_same_tensor(&got.labels, &want.labels, &format!("{what}: labels"));
}

/// One dataset through the whole grid — `num_workers` {0, 1, 3} × {heap,
/// arena-bound} × `augments` × `drop_last` {true, false} — against the
/// reference. Arena-bound epochs must also be built entirely in slots, and
/// hand every slot back when their batches drop.
fn check_dataset(
    name: &str,
    dataset: Arc<dyn Dataset>,
    augments: &[Augment],
    (batch_size, shuffle, seed, epoch): (usize, bool, u64, u64),
    (arena, pool): &(Arc<ShmArena>, SlotPool),
) {
    for &augment in augments {
        for drop_last in [true, false] {
            let pipeline = pipeline(augment, seed ^ 0x5eed);
            let cfg = DataLoaderConfig {
                batch_size,
                num_workers: 0,
                prefetch_factor: 2,
                drop_last,
                shuffle,
                seed,
            };
            let want = reference(&*dataset, &pipeline, &cfg, epoch);
            for num_workers in [0, 1, 3] {
                for in_arena in [false, true] {
                    let what = format!(
                        "{name} {augment:?} drop_last={drop_last} workers={num_workers} \
                         arena={in_arena}"
                    );
                    let cfg = DataLoaderConfig {
                        num_workers,
                        ..cfg.clone()
                    };
                    let loader = DataLoader::with_pipeline(dataset.clone(), pipeline.clone(), cfg);
                    let bound = in_arena.then(|| bind_slot_pool(pool.clone()));
                    let mut epoch_iter = loader.epoch(epoch);
                    // The binding is read when the epoch starts, once.
                    drop(bound);
                    assert_eq!(epoch_iter.len(), want.len(), "{what}: batches");
                    for (got, want) in epoch_iter.by_ref().zip(&want) {
                        assert_same_batch(&got, want, &what);
                        for t in got.fields.iter().chain([&got.labels]) {
                            assert_eq!(t.storage().is_shared_memory(), in_arena, "{what}");
                        }
                    }
                    let built = |kind: &str| loader.metrics().counter(kind).get() as usize;
                    let (in_place, heap) = match in_arena {
                        true => (want.len(), 0),
                        false => (0, want.len()),
                    };
                    assert_eq!(built("loader.in_place_batches"), in_place, "{what}");
                    assert_eq!(built("loader.heap_batches"), heap, "{what}");
                    drop(epoch_iter);
                    assert_eq!(arena.slots_in_use(), 0, "{what}: a slot leaked");
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn every_batch_is_bit_identical_to_decode_plus_stack0(
        len in 1usize..30,
        batch_size in 1usize..8,
        shuffle in prop::bool::ANY,
        seed in 0u64..1000,
        epoch in 0u64..3,
    ) {
        // 3 workers x (2 prefetched + 1 being built) + the one being
        // compared, of at most 2 tensors: 22 slots are never dry.
        let arena = temp_arena(32, 4096);
        let params = (batch_size, shuffle, seed, epoch);
        let any = [Augment::Identity, Augment::StridedView];
        let image = [Augment::Identity, Augment::Crop, Augment::StridedView];
        check_dataset(
            "image",
            Arc::new(SyntheticImageDataset::new(len, 4, 5, seed).with_encoded_len(48)),
            &image,
            params,
            &arena,
        );
        check_dataset("audio", Arc::new(SyntheticAudioDataset::new(len, 21, seed)), &any, params, &arena);
        check_dataset("text", Arc::new(SyntheticTextDataset::new(len, 12, seed)), &any, params, &arena);
        check_dataset("index", Arc::new(IndexDataset { len }), &image, params, &arena);
    }
}

/// The caption dataset has two fields and a fixed 3x224x224 image: the same
/// grid, fewer draws.
#[test]
fn two_field_batches_are_bit_identical_too() {
    let arena = temp_arena(36, 3 * 224 * 224 * 3);
    let all = [Augment::Identity, Augment::Crop, Augment::StridedView];
    for (len, batch_size, shuffle, seed, epoch) in [(5, 2, true, 7, 1), (3, 3, false, 8, 0)] {
        check_dataset(
            "caption",
            Arc::new(SyntheticCaptionDataset::new(len, seed)),
            &all,
            (batch_size, shuffle, seed, epoch),
            &arena,
        );
    }
}

#[test]
fn dropping_an_epoch_with_placed_batches_in_flight_frees_every_slot() {
    let (arena, pool) = temp_arena(32, 4096);
    let loader = DataLoader::new(
        Arc::new(SyntheticImageDataset::new(96, 4, 5, 3).with_encoded_len(48)),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 3,
            ..Default::default()
        },
    );
    let bound = bind_slot_pool(pool.clone());
    let mut epoch = loader.epoch(0);
    let first = epoch.next().unwrap();
    let clone = first.clone();
    // Let the workers fill their prefetch channels with placed batches.
    let placed = loader.metrics().counter("loader.in_place_batches");
    while placed.get() < 7 {
        std::thread::yield_now();
    }
    assert!(
        arena.slots_in_use() >= 14,
        "placed batches hold their slots"
    );
    drop(epoch);
    assert_eq!(arena.slots_in_use(), 2, "only the batch in hand is left");
    // A lease travels with the tensor through clones and is taken once...
    let lease = first.fields[0].storage().take_lease(&arena).unwrap();
    assert!(clone.fields[0].storage().take_lease(&arena).is_none());
    drop((first, clone));
    assert_eq!(arena.slots_in_use(), 1, "...and outlives the tensor");
    drop(lease);
    assert_eq!(arena.slots_in_use(), 0);
    // Unbound again, the same loader builds on the heap.
    drop(bound);
    let heap = loader.epoch(1).next().unwrap();
    assert!(!heap.fields[0].storage().is_shared_memory());
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
}
