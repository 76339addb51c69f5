//! The multi-worker, prefetching `DataLoader`.
//!
//! Reproduces the PyTorch `DataLoader` behaviours TensorSocket builds on
//! (§2 "Alleviating the bottlenecks"): a pool of `num_workers` threads each
//! preparing *whole batches*, bounded prefetch per worker, deterministic
//! per-epoch shuffling, and in-order batch delivery (batch *i* comes from
//! worker `i % num_workers`, each worker's output is FIFO).
//!
//! A worker builds a batch where it will stay: it gets the batch's memory
//! first ([`ts_tensor::BatchBuf`]) and the dataset decodes every sample
//! straight into its row ([`Dataset::decode_into`]), so a payload byte is
//! written once between the decoder and whoever trains on it. With a
//! shared-memory slot pool bound to the thread that starts the epoch
//! ([`bind_slot_pool`]) that memory is an arena slot consumers map, and the
//! batch reaches a TensorSocket producer with nothing left to place.

use crate::sample::{field_count_mismatch, write_fields, Dataset, DecodedSample};
use crate::sampler::{shard_bounds, Sampler, SequentialSampler, ShardedSampler, ShuffleSampler};
use crate::transforms::Pipeline;
use crate::{DataError, Result};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::cell::RefCell;
use std::sync::Arc;
use std::thread::JoinHandle;
use ts_device::DeviceId;
use ts_metrics::{Counter, Registry};
use ts_tensor::{BatchBuf, DType, RowMut, SlotPool, Tensor};

thread_local! {
    /// The slot pool epochs started on this thread build their batches in.
    static BOUND_POOL: RefCell<Option<SlotPool>> = const { RefCell::new(None) };
}

/// Binds `pool` to the calling thread until the returned guard drops:
/// every [`DataLoader::epoch`] started on this thread meanwhile builds its
/// batches — on whichever worker threads — in arena slots leased from
/// `pool` (the heap when the pool has none to lease): each batch in one
/// slot when a slot holds it, its fields and labels views of the slot's
/// storage, which carries the lease ([`ts_tensor::Storage::take_lease`])
/// until a publish step takes it or the batch is dropped.
///
/// This is how a TensorSocket producer's feeder thread offers its pool to
/// the loader it drives, and it is a thread-scoped binding rather than a
/// method of the producer's `EpochSource` trait on purpose: that trait is
/// public and its implementations wrap one another — a wrapper forwards
/// `epoch()` and nothing it does not know about, so a defaulted `bind_…()`
/// would silently never reach a wrapped loader, while the `epoch()` call
/// it does forward runs on the feeder thread whatever wraps it. Whether to
/// bind is the binder's decision (the producer binds only when the arena
/// has room for everything the loader keeps in flight); the loader reads
/// the binding in exactly one place.
pub fn bind_slot_pool(pool: SlotPool) -> SlotPoolBinding {
    SlotPoolBinding {
        previous: BOUND_POOL.with(|bound| bound.replace(Some(pool))),
        _this_thread: std::marker::PhantomData,
    }
}

/// Guard of [`bind_slot_pool`]; dropping it restores what was bound before.
pub struct SlotPoolBinding {
    previous: Option<SlotPool>,
    /// Undoes a thread-local: must drop on the thread that made it.
    _this_thread: std::marker::PhantomData<*const ()>,
}

impl Drop for SlotPoolBinding {
    fn drop(&mut self) {
        BOUND_POOL.with(|bound| *bound.borrow_mut() = self.previous.take());
    }
}

/// Configuration mirroring `torch.utils.data.DataLoader` arguments.
#[derive(Debug, Clone)]
pub struct DataLoaderConfig {
    /// Samples per batch.
    pub batch_size: usize,
    /// Worker threads; `0` loads synchronously on the caller's thread.
    pub num_workers: usize,
    /// In-flight batches per worker (PyTorch's `prefetch_factor`).
    pub prefetch_factor: usize,
    /// Drop the final partial batch of an epoch.
    pub drop_last: bool,
    /// Reshuffle each epoch (seeded).
    pub shuffle: bool,
    /// Base RNG seed for shuffling and augmentation.
    pub seed: u64,
}

impl Default for DataLoaderConfig {
    fn default() -> Self {
        Self {
            batch_size: 32,
            num_workers: 0,
            prefetch_factor: 2,
            drop_last: true,
            shuffle: true,
            seed: 0,
        }
    }
}

/// A collated batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Epoch this batch belongs to.
    pub epoch: u64,
    /// Batch index within the epoch.
    pub index: usize,
    /// Collated tensor fields; field 0 has shape `[B, ...]`.
    pub fields: Vec<Tensor>,
    /// Labels, `I64 [B]`.
    pub labels: Tensor,
    /// Dataset indices of the samples, in batch order.
    pub sample_indices: Vec<usize>,
    /// True for the final batch of the epoch.
    pub last_in_epoch: bool,
}

impl Batch {
    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.sample_indices.len()
    }
}

/// The shared data loader front-end.
pub struct DataLoader {
    dataset: Arc<dyn Dataset>,
    pipeline: Arc<Pipeline>,
    sampler: Arc<dyn Sampler>,
    cfg: DataLoaderConfig,
    /// `(shard, count)` when this loader serves one shard of the epoch.
    shard: Option<(usize, usize)>,
    metrics: Registry,
    counters: LoaderCounters,
}

/// The loader's counters, resolved once: workers count with atomics only.
#[derive(Clone)]
struct LoaderCounters {
    batches: Arc<Counter>,
    samples: Arc<Counter>,
    /// Batches built entirely in leased arena slots.
    in_place_batches: Arc<Counter>,
    /// Batches with at least one tensor built on the heap.
    heap_batches: Arc<Counter>,
}

impl std::fmt::Debug for DataLoader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataLoader")
            .field("dataset", &self.dataset.name())
            .field("len", &self.dataset.len())
            .field("shard", &self.shard)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl DataLoader {
    /// Creates a loader over `dataset` with an identity transform pipeline.
    pub fn new(dataset: Arc<dyn Dataset>, cfg: DataLoaderConfig) -> Self {
        let pipeline = Arc::new(Pipeline::new(cfg.seed));
        Self::with_pipeline(dataset, pipeline, cfg)
    }

    /// Creates a loader with an explicit transform pipeline.
    pub fn with_pipeline(
        dataset: Arc<dyn Dataset>,
        pipeline: Arc<Pipeline>,
        cfg: DataLoaderConfig,
    ) -> Self {
        let sampler: Arc<dyn Sampler> = if cfg.shuffle {
            Arc::new(ShuffleSampler { seed: cfg.seed })
        } else {
            Arc::new(SequentialSampler)
        };
        let metrics = Registry::new();
        let counters = LoaderCounters {
            batches: metrics.counter("loader.batches"),
            samples: metrics.counter("loader.samples"),
            in_place_batches: metrics.counter("loader.in_place_batches"),
            heap_batches: metrics.counter("loader.heap_batches"),
        };
        Self {
            dataset,
            pipeline,
            sampler,
            cfg,
            shard: None,
            metrics,
            counters,
        }
    }

    /// Replaces the sampler (used by the Joader baseline's dependent
    /// sampling). Call before [`DataLoader::with_shard`]: sharding wraps
    /// whatever sampler is current.
    pub fn with_sampler(mut self, sampler: Arc<dyn Sampler>) -> Self {
        self.sampler = sampler;
        self
    }

    /// Restricts this loader to shard `shard` of `count`: every epoch it
    /// evaluates the full (seeded) permutation, then loads only its own
    /// contiguous [`shard_bounds`] slice of it. The union of all `count`
    /// sharded loaders covers each epoch exactly once, and `count == 1`
    /// is bit-identical to the unsharded loader.
    ///
    /// # Panics
    /// Panics when `count == 0` or `shard >= count`.
    pub fn with_shard(mut self, shard: usize, count: usize) -> Self {
        assert!(count >= 1, "shard count must be >= 1");
        assert!(shard < count, "shard {shard} out of range for {count}");
        self.sampler = Arc::new(ShardedSampler {
            inner: self.sampler.clone(),
            shard,
            count,
        });
        self.shard = Some((shard, count));
        self
    }

    /// Builds `count` sharded loaders over one dataset, one per producer
    /// shard (shard `i` of `count`), all sharing the configuration.
    pub fn sharded(dataset: Arc<dyn Dataset>, cfg: DataLoaderConfig, count: usize) -> Vec<Self> {
        (0..count)
            .map(|i| Self::new(dataset.clone(), cfg.clone()).with_shard(i, count))
            .collect()
    }

    /// `(shard, count)` when this loader serves one shard of the epoch.
    pub fn shard(&self) -> Option<(usize, usize)> {
        self.shard
    }

    /// The loader's metric registry: `loader.batches`, `loader.samples`,
    /// and how the batches were built — `loader.in_place_batches` in arena
    /// slots leased from a bound pool ([`bind_slot_pool`]),
    /// `loader.heap_batches` on the heap (every batch of an unbound
    /// loader; under a binding, a batch whose worker found the pool dry or
    /// whose samples have a device-tagged field).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &DataLoaderConfig {
        &self.cfg
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Arc<dyn Dataset> {
        &self.dataset
    }

    /// Pipeline sizing hint `(num_workers, prefetch_factor)` for engines
    /// that hand prepared batches off a stage boundary (the
    /// `TensorProducer` reuses it to size its feeder stage and hand-off
    /// queue): how many worker threads this loader prepares batches on,
    /// and how many batches each keeps in flight.
    pub fn pipeline_hint(&self) -> (usize, usize) {
        (self.cfg.num_workers, self.cfg.prefetch_factor)
    }

    /// Batches per epoch (of this shard's slice, when sharded).
    pub fn batches_per_epoch(&self) -> usize {
        let n = match self.shard {
            Some((shard, count)) => {
                let (start, end) = shard_bounds(self.dataset.len(), shard, count);
                end - start
            }
            None => self.dataset.len(),
        };
        if self.cfg.drop_last {
            n / self.cfg.batch_size
        } else {
            n.div_ceil(self.cfg.batch_size)
        }
    }

    /// Starts iteration over one epoch. With a slot pool bound to the
    /// calling thread ([`bind_slot_pool`]) the epoch's batches are built in
    /// slots leased from it.
    pub fn epoch(&self, epoch: u64) -> EpochIter {
        let builder = |num_batches| BatchBuilder {
            dataset: self.dataset.clone(),
            pipeline: self.pipeline.clone(),
            counters: self.counters.clone(),
            pool: BOUND_POOL.with(|bound| bound.borrow().clone()),
            epoch,
            num_batches,
        };
        let indices = self.sampler.epoch_indices(epoch, self.dataset.len());
        let mut batches: Vec<Vec<usize>> = indices
            .chunks(self.cfg.batch_size)
            .map(|c| c.to_vec())
            .collect();
        if self.cfg.drop_last {
            batches.retain(|b| b.len() == self.cfg.batch_size);
        }
        let num_batches = batches.len();
        if self.cfg.num_workers == 0 || num_batches == 0 {
            return EpochIter {
                mode: IterMode::Sync {
                    worker: builder(num_batches),
                    batches,
                },
                next_index: 0,
                num_batches,
            };
        }
        let workers = self.cfg.num_workers.min(num_batches);
        let mut txs: Vec<Sender<Result<Batch>>> = Vec::with_capacity(workers);
        let mut rxs: Vec<Receiver<Result<Batch>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = bounded(self.cfg.prefetch_factor.max(1));
            txs.push(tx);
            rxs.push(rx);
        }
        let mut handles = Vec::with_capacity(workers);
        let builder = builder(num_batches);
        for (w, tx) in txs.into_iter().enumerate() {
            let my_batches: Vec<(usize, Vec<usize>)> = batches
                .iter()
                .enumerate()
                .skip(w)
                .step_by(workers)
                .map(|(i, b)| (i, b.clone()))
                .collect();
            let builder = builder.clone();
            handles.push(std::thread::spawn(move || {
                for (index, sample_indices) in my_batches {
                    let out = builder.build(index, &sample_indices);
                    if tx.send(out).is_err() {
                        return; // consumer went away; stop early
                    }
                }
            }));
        }
        EpochIter {
            mode: IterMode::Workers { rxs, handles },
            next_index: 0,
            num_batches,
        }
    }
}

/// Builds one collated batch; shared by sync and worker paths.
#[derive(Clone)]
struct BatchBuilder {
    dataset: Arc<dyn Dataset>,
    pipeline: Arc<Pipeline>,
    counters: LoaderCounters,
    /// Where batch memory is leased from; `None` builds on the heap.
    pool: Option<SlotPool>,
    epoch: u64,
    num_batches: usize,
}

impl BatchBuilder {
    /// Fetches, decodes and transforms one sample into tensors of its own.
    fn decode(&self, sample_index: usize) -> Result<DecodedSample> {
        let raw = self.dataset.get(sample_index)?;
        let mut dec = self.dataset.decode(&raw)?;
        if !self.pipeline.is_empty() && !dec.fields.is_empty() {
            dec.fields[0] = self
                .pipeline
                .apply(&dec.fields[0], self.epoch, sample_index)?;
        }
        Ok(dec)
    }

    fn build(&self, index: usize, sample_indices: &[usize]) -> Result<Batch> {
        let Some((&first_index, rest)) = sample_indices.split_first() else {
            return Err(DataError::Decode("a batch of zero samples".into()));
        };
        // The first sample is decoded on its own: it fixes the batch's
        // field count and every field's dtype, shape and device. Then the
        // batch's memory — one leased slot for the fields and the labels
        // when the pool has one — and every sample written once into its
        // row.
        let first = self.decode(first_index)?;
        let rows = sample_indices.len();
        let columns = first
            .fields
            .iter()
            .map(|t| (t.dtype(), t.shape(), t.device()));
        let labels = (DType::I64, &[][..], DeviceId::Cpu);
        let mut buf = BatchBuf::new(rows, columns.chain([labels]), self.pool.as_ref())?;
        let in_place = buf.is_leased();
        let nfields = first.fields.len();
        let push_label = |row: &mut RowMut<'_>, label: i64| -> Result<()> {
            row.bytes_mut(DType::I64, &[])?
                .copy_from_slice(&label.to_le_bytes());
            Ok(())
        };
        {
            let mut row = buf.row();
            write_fields(&first.fields, &mut row[..nfields])?;
            push_label(&mut row[nfields], first.label)?;
        }
        for &sample_index in rest {
            let mut row = buf.row();
            let (fields, label) = row.split_at_mut(nfields);
            if self.pipeline.is_empty() {
                let raw = self.dataset.get(sample_index)?;
                push_label(
                    &mut label[0],
                    self.dataset.decode_into(&raw, &first, fields)?,
                )?;
                let written = fields.iter().filter(|field| field.is_written()).count();
                if written != nfields {
                    return Err(field_count_mismatch(written, nfields));
                }
            } else {
                // A transform returns a tensor of its own: copied into its
                // row, the only copy it gets.
                let dec = self.decode(sample_index)?;
                write_fields(&dec.fields, fields)?;
                push_label(&mut label[0], dec.label)?;
            }
        }
        let mut fields = buf.freeze()?;
        let labels = fields.pop().expect("labels come last");
        self.counters.batches.inc();
        self.counters.samples.add(rows as u64);
        if in_place {
            self.counters.in_place_batches.inc();
        } else {
            self.counters.heap_batches.inc();
        }
        Ok(Batch {
            epoch: self.epoch,
            index,
            fields,
            labels,
            sample_indices: sample_indices.to_vec(),
            last_in_epoch: index + 1 == self.num_batches,
        })
    }
}

enum IterMode {
    Sync {
        worker: BatchBuilder,
        batches: Vec<Vec<usize>>,
    },
    Workers {
        rxs: Vec<Receiver<Result<Batch>>>,
        handles: Vec<JoinHandle<()>>,
    },
}

/// Iterator over one epoch's batches, in order.
///
/// # Panics
/// Panics if a worker fails to build a batch (mirrors PyTorch, whose worker
/// exceptions propagate and abort the epoch). The synthetic datasets in
/// this repository are infallible once constructed.
pub struct EpochIter {
    mode: IterMode,
    next_index: usize,
    num_batches: usize,
}

impl EpochIter {
    /// Total batches this epoch will yield.
    pub fn num_batches(&self) -> usize {
        self.num_batches
    }
}

impl Iterator for EpochIter {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.next_index >= self.num_batches {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        let result = match &mut self.mode {
            IterMode::Sync { worker, batches } => worker.build(index, &batches[index]),
            IterMode::Workers { rxs, .. } => {
                let w = index % rxs.len();
                rxs[w]
                    .recv()
                    .map_err(|_| DataError::WorkersGone)
                    .flatten_err()
            }
        };
        match result {
            Ok(b) => Some(b),
            Err(e) => panic!("data loader worker failed on batch {index}: {e}"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.num_batches - self.next_index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for EpochIter {}

impl Drop for EpochIter {
    fn drop(&mut self) {
        if let IterMode::Workers { rxs, handles } = &mut self.mode {
            // Close channels so blocked workers exit, then reap them.
            rxs.clear();
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Helper to flatten `Result<Result<T>>` from the channel.
trait FlattenErr<T> {
    fn flatten_err(self) -> Result<T>;
}

impl<T> FlattenErr<T> for std::result::Result<Result<T>, DataError> {
    fn flatten_err(self) -> Result<T> {
        match self {
            Ok(inner) => inner,
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticImageDataset;

    fn tiny_loader(workers: usize, batch: usize, n: usize) -> DataLoader {
        let ds = Arc::new(SyntheticImageDataset::new(n, 8, 8, 1).with_encoded_len(64));
        DataLoader::new(
            ds,
            DataLoaderConfig {
                batch_size: batch,
                num_workers: workers,
                prefetch_factor: 2,
                drop_last: true,
                shuffle: false,
                seed: 0,
            },
        )
    }

    #[test]
    fn sync_loader_yields_ordered_full_batches() {
        let loader = tiny_loader(0, 4, 10);
        let batches: Vec<Batch> = loader.epoch(0).collect();
        assert_eq!(batches.len(), 2); // drop_last drops the partial 2-sample batch
        assert_eq!(batches[0].index, 0);
        assert_eq!(batches[1].index, 1);
        assert_eq!(batches[0].fields[0].shape(), &[4, 3, 8, 8]);
        assert_eq!(batches[0].labels.shape(), &[4]);
        assert_eq!(batches[0].sample_indices, vec![0, 1, 2, 3]);
        assert!(!batches[0].last_in_epoch);
        assert!(batches[1].last_in_epoch);
    }

    #[test]
    fn worker_loader_matches_sync_loader() {
        let sync_batches: Vec<Batch> = tiny_loader(0, 4, 16).epoch(0).collect();
        let par_batches: Vec<Batch> = tiny_loader(3, 4, 16).epoch(0).collect();
        assert_eq!(sync_batches.len(), par_batches.len());
        for (a, b) in sync_batches.iter().zip(&par_batches) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.sample_indices, b.sample_indices);
            assert!(a.fields[0].data_eq(&b.fields[0]));
            assert!(a.labels.data_eq(&b.labels));
        }
    }

    #[test]
    fn shuffle_changes_order_but_covers_everything() {
        let ds = Arc::new(SyntheticImageDataset::new(32, 8, 8, 1).with_encoded_len(64));
        let loader = DataLoader::new(
            ds,
            DataLoaderConfig {
                batch_size: 8,
                num_workers: 2,
                shuffle: true,
                seed: 5,
                ..Default::default()
            },
        );
        let e0: Vec<usize> = loader.epoch(0).flat_map(|b| b.sample_indices).collect();
        let e1: Vec<usize> = loader.epoch(1).flat_map(|b| b.sample_indices).collect();
        assert_ne!(e0, e1);
        let mut sorted = e0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        // same epoch re-iterated is identical (reproducibility)
        let e0_again: Vec<usize> = loader.epoch(0).flat_map(|b| b.sample_indices).collect();
        assert_eq!(e0, e0_again);
    }

    #[test]
    fn keep_last_partial_batch_when_configured() {
        let ds = Arc::new(SyntheticImageDataset::new(10, 8, 8, 1).with_encoded_len(64));
        let loader = DataLoader::new(
            ds,
            DataLoaderConfig {
                batch_size: 4,
                drop_last: false,
                shuffle: false,
                ..Default::default()
            },
        );
        let batches: Vec<Batch> = loader.epoch(0).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].batch_size(), 2);
        assert!(batches[2].last_in_epoch);
    }

    #[test]
    fn early_drop_shuts_workers_down() {
        let loader = tiny_loader(2, 2, 64);
        let mut it = loader.epoch(0);
        let _first = it.next().unwrap();
        drop(it); // must not hang or leak threads
    }

    #[test]
    fn metrics_count_batches_and_samples() {
        let loader = tiny_loader(0, 4, 8);
        let _: Vec<Batch> = loader.epoch(0).collect();
        assert_eq!(loader.metrics().counter("loader.batches").get(), 2);
        assert_eq!(loader.metrics().counter("loader.samples").get(), 8);
    }

    #[test]
    fn batches_per_epoch_matches_iteration() {
        let loader = tiny_loader(0, 3, 11);
        assert_eq!(loader.batches_per_epoch(), 3);
        assert_eq!(loader.epoch(0).count(), 3);
        assert_eq!(loader.epoch(0).len(), 3); // ExactSizeIterator
    }

    #[test]
    fn empty_epoch_yields_nothing() {
        let loader = tiny_loader(2, 8, 4); // 4 samples, batch 8, drop_last
        assert_eq!(loader.epoch(0).count(), 0);
    }

    #[test]
    fn sharded_loaders_partition_each_epoch() {
        let ds = Arc::new(SyntheticImageDataset::new(22, 8, 8, 1).with_encoded_len(64));
        let cfg = DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            shuffle: true,
            seed: 13,
            drop_last: false,
            ..Default::default()
        };
        let full = DataLoader::new(ds.clone(), cfg.clone());
        let shards = DataLoader::sharded(ds, cfg, 3);
        for epoch in 0..2 {
            let full_order: Vec<usize> = full.epoch(epoch).flat_map(|b| b.sample_indices).collect();
            let mut union: Vec<usize> = Vec::new();
            let mut per_shard_batches = 0;
            for loader in &shards {
                assert_eq!(loader.batches_per_epoch(), loader.epoch(epoch).count());
                per_shard_batches += loader.batches_per_epoch();
                union.extend(loader.epoch(epoch).flat_map(|b| b.sample_indices));
            }
            // Concatenating the shards' slices reproduces the unsharded
            // permutation exactly: no duplicates, no drops, uneven tail
            // (22 % 3 != 0) included.
            assert_eq!(union, full_order, "epoch {epoch}");
            assert_eq!(per_shard_batches, 2 + 2 + 2);
        }
    }

    #[test]
    fn single_shard_loader_matches_unsharded() {
        let ds = Arc::new(SyntheticImageDataset::new(16, 8, 8, 1).with_encoded_len(64));
        let cfg = DataLoaderConfig {
            batch_size: 4,
            shuffle: true,
            seed: 5,
            ..Default::default()
        };
        let plain = DataLoader::new(ds.clone(), cfg.clone());
        let sharded = DataLoader::new(ds, cfg).with_shard(0, 1);
        assert_eq!(plain.batches_per_epoch(), sharded.batches_per_epoch());
        let a: Vec<Vec<usize>> = plain.epoch(0).map(|b| b.sample_indices).collect();
        let b: Vec<Vec<usize>> = sharded.epoch(0).map(|b| b.sample_indices).collect();
        assert_eq!(a, b);
    }

    /// Decodes an `F32 [2]` field, with a `decode_into` that does something
    /// else.
    struct Liar {
        lie: Lie,
    }

    #[derive(Clone, Copy)]
    enum Lie {
        /// `decode_into` as the trait provides it: the honest baseline.
        None,
        OtherDtype,
        OtherShape,
        /// Leaves the row unwritten.
        NoField,
        /// Writes the row twice.
        TwoFields,
        /// Not `decode_into` but `decode` itself returns another shape for
        /// every sample but the first — what a mismatched sample is today.
        OtherSample,
    }

    impl Dataset for Liar {
        fn len(&self) -> usize {
            8
        }
        fn get(&self, index: usize) -> Result<crate::RawSample> {
            Ok(crate::RawSample {
                index,
                bytes: bytes::Bytes::new(),
                label: index as i64,
            })
        }
        fn encoded_sample_bytes(&self) -> usize {
            0
        }
        fn decode(&self, raw: &crate::RawSample) -> Result<DecodedSample> {
            let len = match self.lie {
                Lie::OtherSample if raw.index > 0 => 3,
                _ => 2,
            };
            Ok(DecodedSample {
                index: raw.index,
                fields: vec![Tensor::from_f32(&vec![1.0; len], &[len], DeviceId::Cpu)?],
                label: raw.label,
            })
        }
        fn decode_into(
            &self,
            raw: &crate::RawSample,
            like: &DecodedSample,
            rows: &mut [RowMut<'_>],
        ) -> Result<i64> {
            let row = &mut rows[0];
            match self.lie {
                Lie::None | Lie::OtherSample => {
                    let decoded = self.decode(raw)?;
                    write_fields(&decoded.fields, rows)?;
                }
                Lie::OtherDtype => row.bytes_mut(DType::I64, &[2])?.fill(0),
                Lie::OtherShape => row.bytes_mut(DType::F32, &[3])?.fill(0),
                Lie::NoField => {}
                Lie::TwoFields => {
                    row.write(&like.fields[0])?;
                    row.write(&like.fields[0])?;
                }
            }
            Ok(raw.label)
        }
    }

    #[test]
    fn a_row_of_another_dtype_shape_or_field_count_is_the_error_collating_it_raised() {
        use ts_tensor::TensorError;
        let build = |lie| {
            let loader = DataLoader::new(
                Arc::new(Liar { lie }),
                DataLoaderConfig {
                    batch_size: 4,
                    shuffle: false,
                    ..Default::default()
                },
            );
            match &loader.epoch(0).mode {
                IterMode::Sync { worker, batches } => worker.build(0, &batches[0]),
                IterMode::Workers { .. } => unreachable!("no workers configured"),
            }
        };
        assert!(build(Lie::None).is_ok());
        // What `stack0` says of the same samples, decoded.
        let like = Tensor::from_f32(&[1.0; 2], &[2], DeviceId::Cpu).unwrap();
        let stacked = |other: Tensor| {
            DataError::Tensor(ts_tensor::stack0(&[like.clone(), other]).unwrap_err())
        };
        let other_dtype = Tensor::from_i64(&[0; 2], &[2], DeviceId::Cpu).unwrap();
        assert_eq!(build(Lie::OtherDtype).unwrap_err(), stacked(other_dtype));
        let other_shape = Tensor::from_f32(&[1.0; 3], &[3], DeviceId::Cpu).unwrap();
        assert_eq!(
            build(Lie::OtherShape).unwrap_err(),
            stacked(other_shape.clone())
        );
        assert_eq!(build(Lie::OtherSample).unwrap_err(), stacked(other_shape));
        for lie in [Lie::NoField, Lie::TwoFields] {
            assert!(matches!(
                build(lie).unwrap_err(),
                DataError::Tensor(TensorError::Shape(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "dtype error")]
    fn a_worker_that_hits_a_mismatched_row_aborts_the_epoch() {
        let cfg = DataLoaderConfig {
            batch_size: 4,
            num_workers: 2,
            ..Default::default()
        };
        let lie = Lie::OtherDtype;
        DataLoader::new(Arc::new(Liar { lie }), cfg).epoch(0).next();
    }

    #[test]
    fn augmentation_applies_in_workers() {
        let ds = Arc::new(SyntheticImageDataset::new(8, 16, 16, 1).with_encoded_len(64));
        let pipeline =
            Arc::new(Pipeline::new(3).with(crate::transforms::RandomCrop { out_h: 8, out_w: 8 }));
        let loader = DataLoader::with_pipeline(
            ds,
            pipeline,
            DataLoaderConfig {
                batch_size: 4,
                num_workers: 2,
                shuffle: false,
                ..Default::default()
            },
        );
        let b = loader.epoch(0).next().unwrap();
        assert_eq!(b.fields[0].shape(), &[4, 3, 8, 8]);
    }
}
