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
//! processes, bind a [`ts_shm::ShmArena`] with
//! [`SharedRegistry::bind_arena`]:
//!
//! * the **producer** side then mirrors every registered storage into an
//!   arena slot and exposes its [`ShmHandle`] via
//!   [`SharedRegistry::shm_handle`], which
//!   [`crate::TensorPayload::pack_shared`] embeds in the payload metadata;
//! * the **consumer** side (a different process that opened the same
//!   arena file) resolves payloads it has no local storage for by
//!   attaching the handle's slot — a zero-copy mmap view, wrapped as a
//!   [`Storage`] ([`SharedRegistry::resolve`]).
//!
//! Releases flow through too: [`SharedRegistry::release`] drops the
//! producer's arena reference, and a consumer's view drops its reference
//! when the rebuilt tensor goes away, so slots recycle exactly when nobody
//! reads them.

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
}

#[derive(Debug, Default)]
struct Inner {
    storages: HashMap<u64, Registration>,
    /// Producer side: arena placement of registered storages.
    handles: HashMap<u64, ShmHandle>,
    /// Which pool placed each handle (`Some(shard)` = that shard's pool,
    /// `None` = the default pool), so the release reclaims into the pool
    /// that owns the slot. Absent = raw arena allocation.
    placed_by: HashMap<u64, Option<u32>>,
}

/// A process-wide table mapping storage ids to live storages, optionally
/// mirrored into a shared-memory arena for cross-process consumers.
///
/// Cloning shares the table.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<Inner>>,
    arena: Arc<Mutex<Option<Arc<ShmArena>>>>,
    /// Optional recycling pool: placements go through it instead of raw
    /// arena allocations, and releases return slots to it.
    slot_pool: Arc<Mutex<Option<SlotPool>>>,
    /// Per-shard recycling pools for sharded producer groups: each shard's
    /// publish pipeline recycles its own slots, so shards never contend on
    /// one free list and per-shard pool stats stay attributable.
    shard_pools: Arc<Mutex<HashMap<u32, SlotPool>>>,
}

impl SharedRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a shared-memory arena. On the producer side every subsequent
    /// [`SharedRegistry::register`] also places the bytes in the arena; on
    /// the consumer side [`SharedRegistry::resolve`] can attach handles
    /// from payloads.
    pub fn bind_arena(&self, arena: Arc<ShmArena>) {
        *self.arena.lock() = Some(arena);
    }

    /// The bound arena, if any.
    pub fn arena(&self) -> Option<Arc<ShmArena>> {
        self.arena.lock().clone()
    }

    /// Binds a recycling [`SlotPool`] (and its arena, if none is bound
    /// yet). Subsequent placements recycle acked slots in place instead of
    /// allocating fresh ones, so a steady-state producer performs zero
    /// arena allocations — see the pool docs.
    pub fn bind_slot_pool(&self, pool: SlotPool) {
        let mut arena = self.arena.lock();
        if arena.is_none() {
            *arena = Some(pool.arena().clone());
        }
        *self.slot_pool.lock() = Some(pool);
    }

    /// The bound recycling pool, if any.
    pub fn slot_pool(&self) -> Option<SlotPool> {
        self.slot_pool.lock().clone()
    }

    /// Binds shard `shard`'s recycling pool (and its arena, if none is
    /// bound yet). Storages registered through
    /// [`SharedRegistry::register_for_shard`] with this shard key place
    /// and recycle through this pool, independently of every other
    /// shard's — the per-shard half of the sharded producer group.
    pub fn bind_shard_slot_pool(&self, shard: u32, pool: SlotPool) {
        let mut arena = self.arena.lock();
        if arena.is_none() {
            *arena = Some(pool.arena().clone());
        }
        self.shard_pools.lock().insert(shard, pool);
    }

    /// Shard `shard`'s recycling pool, if bound.
    pub fn shard_slot_pool(&self, shard: u32) -> Option<SlotPool> {
        self.shard_pools.lock().get(&shard).cloned()
    }

    /// The pool a placement with key `shard` goes through: the shard's own
    /// pool when bound, else the default pool.
    fn pool_for(&self, shard: Option<u32>) -> (Option<SlotPool>, Option<u32>) {
        if let Some(s) = shard {
            if let Some(pool) = self.shard_pools.lock().get(&s).cloned() {
                return (Some(pool), Some(s));
            }
        }
        (self.slot_pool.lock().clone(), None)
    }

    /// The recycling pool a shard's feeder should lease slots from, plus
    /// the placement key to hand back to
    /// [`SharedRegistry::register_placed`]. `None` when no pool serves the
    /// shard — the caller then falls back to the copying publish path.
    pub fn lease_pool(&self, shard: Option<u32>) -> Option<(SlotPool, Option<u32>)> {
        let (pool, key) = self.pool_for(shard);
        pool.map(|p| (p, key))
    }

    /// Resolves a `placed_by` key back to its pool.
    fn pool_by_key(&self, key: Option<u32>) -> Option<SlotPool> {
        match key {
            Some(shard) => self.shard_pools.lock().get(&shard).cloned(),
            None => self.slot_pool.lock().clone(),
        }
    }

    /// Registers a storage, making it resolvable by id. Re-registering the
    /// same storage is a no-op.
    ///
    /// With an arena bound, the bytes are also copied into an arena slot so
    /// consumers in other processes can map them. If the arena is full the
    /// storage is still registered locally — in-process consumers are
    /// unaffected and cross-process consumers surface a dangling-payload
    /// error rather than stalling. `register` itself never waits: it runs
    /// on the thread that processes acks, the only one that returns
    /// producer-held slots, so fullness cannot clear while it blocks. That
    /// is a property of *this call site*, not a policy: a thread upstream
    /// of it can wait, and the runtime's feeder does — it leases the slot
    /// before collating ([`SlotPool::lease`]) and parks on
    /// [`ts_shm::ShmError::Full`] until an ack frees one, so batches it
    /// prepares arrive here already placed
    /// ([`SharedRegistry::register_placed`]) and this copying path only
    /// serves storages nobody could lease for.
    pub fn register(&self, storage: &Arc<Storage>) {
        self.register_for_shard(storage, None);
    }

    /// [`SharedRegistry::register`] on behalf of one shard of a producer
    /// group: arena placement goes through the shard's own recycling pool
    /// (see [`SharedRegistry::bind_shard_slot_pool`]), falling back to
    /// the default pool, then to raw arena allocation.
    pub fn register_for_shard(&self, storage: &Arc<Storage>, shard: Option<u32>) {
        let arena = self.arena.lock().clone();
        {
            let mut inner = self.inner.lock();
            if let Some(reg) = inner.storages.get_mut(&storage.id()) {
                // Republished id (epoch boundary with the earlier
                // registration still pinned): count it; the existing
                // arena placement keeps serving both.
                reg.refs += 1;
                return;
            }
            inner.storages.insert(
                storage.id(),
                Registration {
                    storage: Arc::clone(storage),
                    refs: 1,
                },
            );
        }
        // The arena copy happens outside the table lock so concurrent
        // lookups/releases never stall behind a large memcpy.
        let Some(arena) = arena else { return };
        // Never re-copy a storage that is itself an arena view (a
        // producer re-sharing a consumer-side tensor).
        if storage.is_shared_memory() {
            return;
        }
        let (pool, pool_key) = self.pool_for(shard);
        let placed = match &pool {
            Some(pool) => pool.place(storage.bytes()),
            None => arena.alloc(storage.bytes()),
        };
        if let Ok(handle) = placed {
            let mut inner = self.inner.lock();
            if inner.storages.contains_key(&storage.id()) {
                inner.handles.insert(storage.id(), handle);
                if pool.is_some() {
                    inner.placed_by.insert(storage.id(), pool_key);
                }
            } else {
                // Racing release already removed the storage: give the
                // slot straight back instead of leaking it.
                drop(inner);
                match &pool {
                    Some(pool) => pool.reclaim(handle),
                    None => {
                        arena.release(handle);
                    }
                }
            }
        }
    }

    /// Copyless registration for a feeder-leased slot: `storage` is itself
    /// a view of the arena slot behind `handle` (the feeder collated
    /// directly into the leased byte range), so there is nothing to place
    /// — the table simply adopts the handle, whose producer reference the
    /// lease transferred to the caller. `pool_key` names the recycling
    /// pool the lease came from ([`SharedRegistry::lease_pool`]); the
    /// eventual [`SharedRegistry::release`] reclaims the slot into it.
    ///
    /// A duplicate id (republished across an epoch boundary) is counted
    /// like [`SharedRegistry::register_for_shard`]'s, and the redundant
    /// new slot is reclaimed immediately instead of clobbering the live
    /// placement.
    pub fn register_placed(
        &self,
        storage: &Arc<Storage>,
        handle: ShmHandle,
        pool_key: Option<u32>,
    ) {
        {
            let mut inner = self.inner.lock();
            if let Some(reg) = inner.storages.get_mut(&storage.id()) {
                reg.refs += 1;
            } else {
                inner.storages.insert(
                    storage.id(),
                    Registration {
                        storage: Arc::clone(storage),
                        refs: 1,
                    },
                );
                inner.handles.insert(storage.id(), handle);
                inner.placed_by.insert(storage.id(), pool_key);
                return;
            }
        }
        // Duplicate: the id already has a live placement serving every
        // consumer; give the redundant slot back (outside the table lock).
        match self.pool_by_key(pool_key) {
            Some(pool) => pool.reclaim(handle),
            None => {
                if let Some(arena) = self.arena.lock().clone() {
                    arena.release(handle);
                }
            }
        }
    }

    /// The arena placement of a registered storage (producer side, arena
    /// bound, allocation succeeded).
    pub fn shm_handle(&self, storage_id: u64) -> Option<ShmHandle> {
        self.inner.lock().handles.get(&storage_id).copied()
    }

    /// Resolves a storage id to the live storage.
    pub fn lookup(&self, storage_id: u64) -> Result<Arc<Storage>> {
        self.inner
            .lock()
            .storages
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
        let arena = self.arena.lock().clone();
        let mut inner = self.inner.lock();
        match inner.storages.get_mut(&storage_id) {
            None => return false,
            Some(reg) if reg.refs > 1 => {
                reg.refs -= 1;
                return true;
            }
            Some(_) => {}
        }
        let placement = inner.handles.remove(&storage_id);
        let placed_by = inner.placed_by.remove(&storage_id);
        // Drop the table's own reference BEFORE the slot can be leased
        // again: a storage that views its arena slot holds a read
        // reference on it, and a feeder waiting for exactly this slot
        // would otherwise find it busy and abandon it.
        let present = inner.storages.remove(&storage_id).is_some();
        drop(inner);
        if let Some(handle) = placement {
            // Reclaim into the pool that placed the slot (a shard's own
            // pool, or the default one); raw allocations go back to the
            // arena.
            let pool = match placed_by {
                Some(Some(shard)) => self.shard_pools.lock().get(&shard).cloned(),
                Some(None) => self.slot_pool.lock().clone(),
                None => None,
            };
            match (pool, arena) {
                // Recycling: keep the producer reference, rewrite later.
                (Some(pool), _) => pool.reclaim(handle),
                (None, Some(arena)) => {
                    arena.release(handle);
                }
                (None, None) => {}
            }
        }
        present
    }

    /// Number of registered storages.
    pub fn len(&self) -> usize {
        self.inner.lock().storages.len()
    }

    /// True when no storages are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of registered storages (producer-side bookkeeping).
    pub fn registered_bytes(&self) -> usize {
        self.inner
            .lock()
            .storages
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

    #[test]
    fn arena_bound_register_places_bytes() {
        let reg = SharedRegistry::new();
        reg.bind_arena(test_arena("place", 4, 64));
        let s = Arc::new(Storage::new(vec![9u8; 16], DeviceId::Cpu));
        reg.register(&s);
        let handle = reg.shm_handle(s.id()).expect("placed in arena");
        assert_eq!(handle.len, 16);
        // A "consumer" registry over the same arena resolves it without a
        // local table entry.
        let consumer = SharedRegistry::new();
        consumer.bind_arena(reg.arena().unwrap());
        let resolved = consumer
            .resolve(s.id(), Some(handle), DeviceId::Cpu)
            .unwrap();
        assert!(resolved.is_shared_memory());
        assert_eq!(resolved.bytes(), &[9u8; 16]);
        assert_eq!(resolved.id(), s.id());
        // Release drops the producer reference; the consumer view still
        // pins the slot.
        drop(resolved);
        reg.release(s.id());
        assert_eq!(reg.arena().unwrap().slots_in_use(), 0);
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
    fn slot_pool_bound_registry_recycles_placements() {
        let reg = SharedRegistry::new();
        let arena = test_arena("pooled", 8, 64);
        reg.bind_slot_pool(SlotPool::new(arena.clone(), 4));
        assert!(reg.arena().is_some(), "pool binding also binds its arena");
        // A publish/ack cycle per storage: register places, release
        // reclaims, the next register recycles the same slot.
        for i in 0..20 {
            let s = Arc::new(Storage::new(vec![i as u8; 16], DeviceId::Cpu));
            reg.register(&s);
            let handle = reg.shm_handle(s.id()).expect("placed");
            assert_eq!(&arena.attach(handle).unwrap()[..], &[i as u8; 16]);
            reg.release(s.id());
        }
        let stats = reg.slot_pool().unwrap().stats();
        assert_eq!(stats.misses, 1, "only the first placement allocates");
        assert_eq!(stats.hits, 19);
        assert_eq!(stats.returned, 20);
        reg.slot_pool().unwrap().drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn shard_pools_place_and_reclaim_independently() {
        let reg = SharedRegistry::new();
        let arena = test_arena("sharded", 16, 64);
        reg.bind_shard_slot_pool(0, SlotPool::new(arena.clone(), 2));
        reg.bind_shard_slot_pool(1, SlotPool::new(arena.clone(), 2));
        // Interleaved publish/ack cycles on two shards: each shard's pool
        // sees exactly its own placements and reclaims.
        for i in 0..10u8 {
            for shard in 0..2u32 {
                let s = Arc::new(Storage::new(vec![i; 8], DeviceId::Cpu));
                reg.register_for_shard(&s, Some(shard));
                assert!(reg.shm_handle(s.id()).is_some(), "placed via shard pool");
                reg.release(s.id());
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
    fn shard_key_without_pool_falls_back_to_default() {
        let reg = SharedRegistry::new();
        let arena = test_arena("fallback", 8, 64);
        reg.bind_slot_pool(SlotPool::new(arena.clone(), 4));
        let s = Arc::new(Storage::new(vec![1u8; 8], DeviceId::Cpu));
        // Shard 7 has no pool of its own: the default pool serves it.
        reg.register_for_shard(&s, Some(7));
        assert!(reg.shm_handle(s.id()).is_some());
        reg.release(s.id());
        let stats = reg.slot_pool().unwrap().stats();
        assert_eq!((stats.misses, stats.returned), (1, 1));
        reg.slot_pool().unwrap().drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn republished_storage_survives_first_release() {
        let reg = SharedRegistry::new();
        let arena = test_arena("republish", 4, 64);
        reg.bind_slot_pool(SlotPool::new(arena.clone(), 4));
        let s = Arc::new(Storage::new(vec![5u8; 16], DeviceId::Cpu));
        reg.register(&s);
        let handle = reg.shm_handle(s.id()).expect("placed");
        // Epoch boundary: the same storage is republished while the first
        // registration is still live (rubberband-pinned tail).
        reg.register(&s);
        // Releasing the first epoch's registration must NOT reclaim the
        // slot — the second registration still serves consumers.
        assert!(reg.release(s.id()));
        assert!(reg.lookup(s.id()).is_ok(), "second registration still live");
        assert_eq!(reg.shm_handle(s.id()), Some(handle), "placement intact");
        assert!(arena.attach(handle).is_ok(), "slot not recycled");
        // The final release frees exactly once.
        assert!(reg.release(s.id()));
        assert!(reg.lookup(s.id()).is_err());
        assert!(!reg.release(s.id()));
        reg.slot_pool().unwrap().drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn register_placed_adopts_leased_slot_without_copy() {
        let reg = SharedRegistry::new();
        let arena = test_arena("placed", 4, 64);
        reg.bind_slot_pool(SlotPool::new(arena.clone(), 4));
        let (pool, key) = reg.lease_pool(None).expect("pool bound");
        let mut lease = pool.lease(8).unwrap();
        lease.bytes_mut().copy_from_slice(&[3u8; 8]);
        let handle = lease.handle();
        // The storage's view holds its own reference; the lease's producer
        // reference transfers to the registry below via `into_handle`.
        let view = arena.attach(handle).unwrap();
        let s = Arc::new(Storage::from_shm_view(9001, view, DeviceId::Cpu));
        reg.register_placed(&s, lease.into_handle(), key);
        assert_eq!(reg.shm_handle(9001), Some(handle));
        assert_eq!(reg.lookup(9001).unwrap().bytes(), &[3u8; 8]);
        drop(s);
        reg.release(9001);
        let stats = pool.stats();
        assert_eq!(stats.returned, 1, "released placement reclaims into pool");
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn register_placed_duplicate_reclaims_redundant_slot() {
        let reg = SharedRegistry::new();
        let arena = test_arena("placed-dup", 4, 64);
        reg.bind_slot_pool(SlotPool::new(arena.clone(), 4));
        let (pool, key) = reg.lease_pool(None).expect("pool bound");
        let first = pool.lease(8).unwrap();
        let first_handle = first.handle();
        let view = arena.attach(first_handle).unwrap();
        let s = Arc::new(Storage::from_shm_view(77, view, DeviceId::Cpu));
        reg.register_placed(&s, first.into_handle(), key);
        // Republish of the same id with a fresh slot: the duplicate slot
        // is reclaimed immediately, the original placement stays.
        let second = pool.lease(8).unwrap();
        reg.register_placed(&s, second.into_handle(), key);
        assert_eq!(
            reg.shm_handle(77),
            Some(first_handle),
            "first placement kept"
        );
        assert_eq!(pool.stats().returned, 1, "redundant slot reclaimed");
        // Two registrations → two releases to free.
        assert!(reg.release(77));
        assert!(reg.lookup(77).is_ok());
        assert!(reg.release(77));
        assert!(reg.lookup(77).is_err());
        drop(s);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn release_after_consumer_detach_frees_slot() {
        let reg = SharedRegistry::new();
        reg.bind_arena(test_arena("free", 2, 32));
        let s = Arc::new(Storage::new(vec![1u8; 8], DeviceId::Cpu));
        reg.register(&s);
        let handle = reg.shm_handle(s.id()).unwrap();
        let arena = reg.arena().unwrap();
        assert_eq!(arena.slots_in_use(), 1);
        reg.release(s.id());
        assert_eq!(arena.slots_in_use(), 0);
        // Stale handle can no longer be attached.
        assert!(arena.attach(handle).is_err());
    }
}
