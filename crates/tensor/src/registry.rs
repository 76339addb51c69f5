//! The shared storage registry.
//!
//! In the real TensorSocket, the producer shares CUDA/shared-memory handles
//! and PyTorch's tensor-rebuilding machinery resolves them in the consumer
//! process. The [`SharedRegistry`] is that handle table: the producer
//! registers a storage before publishing a payload referencing it, and
//! consumers resolve the payload's storage id to an `Arc<Storage>` without
//! copying data. Releasing a storage (after all consumers acknowledged the
//! batch, §3.2.3) removes it from the table; late lookups fail with
//! [`crate::TensorError::DanglingPayload`] —
//! the equivalent of a use-after-free on a real device pointer, surfaced
//! as an error instead of UB.
//!
//! ## Cross-process sharing
//!
//! Within one process the table alone suffices. To share across OS
//! processes the bytes must already live in a [`ts_shm::ShmArena`]: the
//! registry never copies a payload byte.
//!
//! * the **producer** side binds one recycling [`SlotPool`] per shard
//!   ([`SharedRegistry::bind_shard_slot_pool`], which also binds the
//!   pool's arena). Its feeder leases a slot, collates the batch into it —
//!   every tensor of the batch a view of the slot's one storage — and
//!   registers that storage once with [`SharedRegistry::register_placed`];
//!   the handle it exposes via [`SharedRegistry::shm_handle`] is what
//!   [`crate::TensorPayload::pack_shared`] embeds in the metadata of each
//!   of the batch's tensors, beside the tensor's own `offset` in the slot.
//!   (Slots narrower than a batch hold it in several, one registration
//!   each.) [`SharedRegistry::register`] is the table insert alone — the
//!   heap placement of a producer with no arena;
//! * the **consumer** side (a different process that opened the same
//!   arena file, [`SharedRegistry::bind_arena`]) resolves payloads it has
//!   no local storage for by attaching the handle's slot — a zero-copy
//!   mmap view, wrapped as a [`Storage`] ([`SharedRegistry::resolve`]),
//!   once per slot of a batch ([`crate::TensorPayload::unpack_batch`]).
//!
//! Releases flow through too: [`SharedRegistry::release`] hands the
//! producer's slot reference back to the shard's pool, and a consumer's
//! view drops its reference when the rebuilt tensor goes away, so slots
//! recycle exactly when nobody reads them.

use crate::pool::SlotPool;
use crate::storage::Storage;
use crate::{Result, TensorError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use ts_shm::{ShmArena, ShmHandle};

#[derive(Debug)]
struct Registration {
    storage: Arc<Storage>,
    /// Live registrations of this id. A storage republished across an
    /// epoch boundary — e.g. a vector source re-sharing the same batches
    /// while the previous epoch's tail is still rubberband-pinned — must
    /// not have its arena slot reclaimed by the *first* release while the
    /// second registration is live: registrations count up and the slot
    /// is freed exactly once, when the count returns to zero.
    refs: u64,
    /// The arena slot holding the bytes and the shard whose pool leased
    /// it ([`SharedRegistry::register_placed`]); `None` for a heap
    /// registration.
    placed: Option<(ShmHandle, u32)>,
}

/// A process-wide table mapping storage ids to live storages, optionally
/// placed in a shared-memory arena for cross-process consumers.
///
/// Cloning shares the table.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    storages: Arc<Mutex<HashMap<u64, Registration>>>,
    arena: Arc<Mutex<Option<Arc<ShmArena>>>>,
    /// One recycling pool per producer shard (a single-pipeline producer
    /// is shard 0): each shard's pipeline leases and recycles its own
    /// slots, so shards never contend on one free list and per-shard pool
    /// stats stay attributable.
    shard_pools: Arc<Mutex<HashMap<u32, SlotPool>>>,
}

impl SharedRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a shared-memory arena, so [`SharedRegistry::resolve`] can
    /// attach the handles payloads carry (consumer side).
    pub fn bind_arena(&self, arena: Arc<ShmArena>) {
        *self.arena.lock() = Some(arena);
    }

    /// The bound arena, if any.
    pub fn arena(&self) -> Option<Arc<ShmArena>> {
        self.arena.lock().clone()
    }

    /// Binds shard `shard`'s recycling pool (and its arena, if none is
    /// bound yet). The shard's feeder leases its slots from it, and
    /// [`SharedRegistry::release`] reclaims every slot registered under
    /// this shard into it, independently of every other shard's.
    pub fn bind_shard_slot_pool(&self, shard: u32, pool: SlotPool) {
        let mut arena = self.arena.lock();
        if arena.is_none() {
            *arena = Some(pool.arena().clone());
        }
        self.shard_pools.lock().insert(shard, pool);
    }

    /// Shard `shard`'s recycling pool, if bound: the pool its feeder
    /// leases slots from. `None` means the shard has no arena and its
    /// batches stay on the heap.
    pub fn shard_slot_pool(&self, shard: u32) -> Option<SlotPool> {
        self.shard_pools.lock().get(&shard).cloned()
    }

    /// Registers a storage, making it resolvable by id — a table insert
    /// and nothing else: the heap placement of a producer with no arena.
    /// Registering an id that is already live counts one more
    /// registration.
    pub fn register(&self, storage: &Arc<Storage>) {
        self.insert(storage, None);
    }

    /// Registers `storage`, a view of the arena slot behind `handle` that
    /// shard `shard`'s feeder leased from its pool
    /// ([`SharedRegistry::shard_slot_pool`]) and collated into: the table
    /// adopts the handle, whose producer reference the lease transferred
    /// to the caller, and the eventual [`SharedRegistry::release`]
    /// reclaims the slot into that pool.
    ///
    /// A duplicate id (republished across an epoch boundary) is counted
    /// like [`SharedRegistry::register`]'s, and the redundant new slot is
    /// reclaimed immediately instead of clobbering the live placement.
    pub fn register_placed(&self, storage: &Arc<Storage>, handle: ShmHandle, shard: u32) {
        if !self.insert(storage, Some((handle, shard))) {
            // The id already has a live placement serving every consumer;
            // give the redundant slot back (outside the table lock).
            self.give_back(handle, shard);
        }
    }

    /// Adds a registration of `storage` placed at `placed`; false when the
    /// id was already live (its count went up, `placed` was not kept).
    fn insert(&self, storage: &Arc<Storage>, placed: Option<(ShmHandle, u32)>) -> bool {
        let mut storages = self.storages.lock();
        if let Some(reg) = storages.get_mut(&storage.id()) {
            reg.refs += 1;
            return false;
        }
        let reg = Registration {
            storage: Arc::clone(storage),
            refs: 1,
            placed,
        };
        storages.insert(storage.id(), reg);
        true
    }

    /// Returns a slot's producer reference to shard `shard`'s pool, the
    /// one it was leased from (pools are bound before any lease and never
    /// unbound).
    fn give_back(&self, handle: ShmHandle, shard: u32) {
        if let Some(pool) = self.shard_slot_pool(shard) {
            pool.reclaim(handle);
        }
    }

    /// The arena placement of a registered storage (producer side,
    /// registered with [`SharedRegistry::register_placed`]).
    pub fn shm_handle(&self, storage_id: u64) -> Option<ShmHandle> {
        let storages = self.storages.lock();
        storages.get(&storage_id)?.placed.map(|(handle, _)| handle)
    }

    /// Resolves a storage id to the live storage.
    pub fn lookup(&self, storage_id: u64) -> Result<Arc<Storage>> {
        self.storages
            .lock()
            .get(&storage_id)
            .map(|reg| Arc::clone(&reg.storage))
            .ok_or(TensorError::DanglingPayload { storage_id })
    }

    /// Resolves a payload's storage: the local table first (producer
    /// process, or in-process consumers), then the shared-memory arena via
    /// the payload's handle (consumers in other processes). The arena path
    /// returns a fresh zero-copy [`Storage`] holding a slot reference that
    /// drops with it — deliberately *not* cached in the table, so consumer
    /// references never outlive the tensors built from them.
    pub fn resolve(
        &self,
        storage_id: u64,
        shm: Option<ShmHandle>,
        device: ts_device::DeviceId,
    ) -> Result<Arc<Storage>> {
        if let Ok(local) = self.lookup(storage_id) {
            return Ok(local);
        }
        let (Some(handle), Some(arena)) = (shm, self.arena.lock().clone()) else {
            return Err(TensorError::DanglingPayload { storage_id });
        };
        let view = arena
            .attach(handle)
            .map_err(|_| TensorError::DanglingPayload { storage_id })?;
        Ok(Arc::new(Storage::from_shm_view(storage_id, view, device)))
    }

    /// Releases a storage id. Returns true when the id was present.
    ///
    /// An id registered more than once (republished across an epoch
    /// boundary while the earlier registration is still pinned) only
    /// decrements its count; the slot and table entry go when the count
    /// returns to zero, so a release for the *old* epoch never pulls a
    /// placement out from under the new one.
    ///
    /// Consumers that already resolved the storage keep their `Arc`; the
    /// bytes are freed only when the last reference drops (the paper's
    /// "tensors are kept in memory as long as any of the producers or
    /// consumers hold a reference"). The arena slot likewise keeps its
    /// bytes until every cross-process view lets go.
    pub fn release(&self, storage_id: u64) -> bool {
        let mut storages = self.storages.lock();
        match storages.get_mut(&storage_id) {
            None => return false,
            Some(reg) if reg.refs > 1 => {
                reg.refs -= 1;
                return true;
            }
            Some(_) => {}
        }
        // Drop the table's own reference BEFORE the slot can be leased
        // again: a storage that views its arena slot holds a read
        // reference on it, and a feeder waiting for exactly this slot
        // would otherwise find it busy and abandon it.
        let placed = storages.remove(&storage_id).and_then(|reg| reg.placed);
        drop(storages);
        if let Some((handle, shard)) = placed {
            // Recycling: the shard's pool keeps the producer reference
            // and rewrites the slot later.
            self.give_back(handle, shard);
        }
        true
    }

    /// Number of registered storages.
    pub fn len(&self) -> usize {
        self.storages.lock().len()
    }

    /// True when no storages are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of registered storages (producer-side bookkeeping).
    pub fn registered_bytes(&self) -> usize {
        self.storages
            .lock()
            .values()
            .map(|reg| reg.storage.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_device::DeviceId;

    #[test]
    fn register_lookup_release() {
        let reg = SharedRegistry::new();
        let s = Arc::new(Storage::new(vec![1, 2, 3], DeviceId::Gpu(0)));
        reg.register(&s);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.registered_bytes(), 3);
        let got = reg.lookup(s.id()).unwrap();
        assert_eq!(got.bytes(), &[1, 2, 3]);
        assert!(reg.release(s.id()));
        assert!(!reg.release(s.id()));
        assert!(reg.is_empty());
    }

    #[test]
    fn lookup_after_release_is_dangling() {
        let reg = SharedRegistry::new();
        let s = Arc::new(Storage::new(vec![0u8; 8], DeviceId::Cpu));
        let id = s.id();
        reg.register(&s);
        reg.release(id);
        assert!(matches!(
            reg.lookup(id).unwrap_err(),
            TensorError::DanglingPayload { storage_id } if storage_id == id
        ));
    }

    #[test]
    fn consumer_keeps_data_alive_after_release() {
        let reg = SharedRegistry::new();
        let s = Arc::new(Storage::new(vec![7u8; 4], DeviceId::Gpu(1)));
        reg.register(&s);
        let consumer_ref = reg.lookup(s.id()).unwrap();
        reg.release(s.id());
        drop(s);
        // consumer still holds valid bytes
        assert_eq!(consumer_ref.bytes(), &[7, 7, 7, 7]);
    }

    #[test]
    fn clone_shares_table() {
        let reg = SharedRegistry::new();
        let view = reg.clone();
        let s = Arc::new(Storage::new(vec![1], DeviceId::Cpu));
        reg.register(&s);
        assert!(view.lookup(s.id()).is_ok());
    }

    fn test_arena(tag: &str, nslots: usize, slot: usize) -> Arc<ShmArena> {
        let path = std::env::temp_dir().join(format!(
            "ts-registry-test-{}-{tag}.arena",
            std::process::id()
        ));
        ShmArena::create(path, nslots, slot).unwrap()
    }

    /// What a feeder does: lease a slot of `shard`'s pool, write `bytes`
    /// into it and register the slot. Returns the storage viewing it.
    fn publish(reg: &SharedRegistry, shard: u32, id: u64, bytes: &[u8]) -> Arc<Storage> {
        let pool = reg.shard_slot_pool(shard).expect("pool bound");
        let mut lease = pool.lease(bytes.len()).unwrap();
        lease.bytes_mut().copy_from_slice(bytes);
        let view = pool.arena().attach(lease.handle()).unwrap();
        let s = Arc::new(Storage::from_shm_view(id, view, DeviceId::Cpu));
        reg.register_placed(&s, lease.into_handle(), shard);
        s
    }

    #[test]
    fn register_is_a_table_insert_even_with_an_arena_bound() {
        let reg = SharedRegistry::new();
        let arena = test_arena("heap", 4, 64);
        reg.bind_arena(arena.clone());
        let s = Arc::new(Storage::new(vec![9u8; 16], DeviceId::Cpu));
        reg.register(&s);
        assert!(reg.lookup(s.id()).is_ok());
        assert_eq!(reg.shm_handle(s.id()), None, "no byte copied in");
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn placed_storage_resolves_in_another_registry_over_the_arena() {
        let reg = SharedRegistry::new();
        let arena = test_arena("place", 4, 64);
        reg.bind_shard_slot_pool(0, SlotPool::new(arena.clone(), 4));
        assert!(reg.arena().is_some(), "pool binding also binds its arena");
        let s = publish(&reg, 0, 9000, &[9u8; 16]);
        let handle = reg.shm_handle(9000).expect("placed in arena");
        assert_eq!(handle.len, 16);
        // A "consumer" registry over the same arena resolves it without a
        // local table entry.
        let consumer = SharedRegistry::new();
        consumer.bind_arena(arena.clone());
        let resolved = consumer.resolve(9000, Some(handle), DeviceId::Cpu).unwrap();
        assert!(resolved.is_shared_memory());
        assert_eq!(resolved.bytes(), &[9u8; 16]);
        assert_eq!(resolved.id(), 9000);
        // Release hands the producer reference back to the pool; once the
        // views are gone and the pool drains, the slot is free and the
        // stale handle no longer attaches.
        drop((resolved, s));
        assert!(reg.release(9000));
        reg.shard_slot_pool(0).unwrap().drain();
        assert_eq!(arena.slots_in_use(), 0);
        assert!(arena.attach(handle).is_err());
    }

    #[test]
    fn resolve_without_handle_or_arena_is_dangling() {
        let reg = SharedRegistry::new();
        assert!(matches!(
            reg.resolve(42, None, DeviceId::Cpu).unwrap_err(),
            TensorError::DanglingPayload { storage_id: 42 }
        ));
    }

    #[test]
    fn shard_pools_recycle_their_own_slots() {
        let reg = SharedRegistry::new();
        let arena = test_arena("sharded", 16, 64);
        reg.bind_shard_slot_pool(0, SlotPool::new(arena.clone(), 2));
        reg.bind_shard_slot_pool(1, SlotPool::new(arena.clone(), 2));
        // Interleaved publish/ack cycles on two shards: each shard's pool
        // sees exactly its own leases and reclaims, and the steady state
        // rewrites one slot per shard.
        for i in 0..10u8 {
            for shard in 0..2u32 {
                let id = u64::from(i) * 2 + u64::from(shard);
                let s = publish(&reg, shard, id, &[i; 8]);
                let handle = reg.shm_handle(id).expect("placed via shard pool");
                assert_eq!(&arena.attach(handle).unwrap()[..], &[i; 8]);
                drop(s);
                reg.release(id);
            }
        }
        for shard in 0..2u32 {
            let stats = reg.shard_slot_pool(shard).unwrap().stats();
            assert_eq!(stats.misses, 1, "shard {shard}: one warmup allocation");
            assert_eq!(stats.hits, 9, "shard {shard}: steady state recycles");
            assert_eq!(stats.returned, 10);
        }
        reg.shard_slot_pool(0).unwrap().drain();
        reg.shard_slot_pool(1).unwrap().drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn register_placed_duplicate_reclaims_redundant_slot() {
        let reg = SharedRegistry::new();
        let arena = test_arena("placed-dup", 4, 64);
        let pool = SlotPool::new(arena.clone(), 4);
        reg.bind_shard_slot_pool(0, pool.clone());
        let s = publish(&reg, 0, 77, &[3u8; 8]);
        let first_handle = reg.shm_handle(77).unwrap();
        assert_eq!(reg.lookup(77).unwrap().bytes(), &[3u8; 8]);
        // Epoch boundary: the same id republished with a fresh slot while
        // the first registration is still live (rubberband-pinned tail).
        // The duplicate slot is reclaimed at once, the placement stays.
        let second = pool.lease(8).unwrap();
        reg.register_placed(&s, second.into_handle(), 0);
        assert_eq!(
            reg.shm_handle(77),
            Some(first_handle),
            "first placement kept"
        );
        assert_eq!(pool.stats().returned, 1, "redundant slot reclaimed");
        // Two registrations → two releases to free; the first must not
        // recycle the slot the second still serves.
        assert!(reg.release(77));
        assert!(reg.lookup(77).is_ok());
        assert!(arena.attach(first_handle).is_ok(), "slot not recycled");
        assert!(reg.release(77));
        assert!(reg.lookup(77).is_err());
        assert!(!reg.release(77));
        assert_eq!(pool.stats().returned, 2, "freed exactly once");
        drop(s);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }
}
