//! The reuse pool for producer-batch memory: [`SlotPool`], shared-memory
//! arena slots.
//!
//! With a [`ts_shm::ShmArena`] bound, every published batch is built in
//! an arena slot the producer leased — one slot per batch, its tensors
//! packed in it ([`crate::SlotPacking`]); without recycling that is an
//! allocation (free-slot probe + claim) per batch. The slot
//! pool keeps slots whose consumers have all acked and hands them out
//! again ([`ts_shm::ShmArena::try_recycle_in_place`]) for the next batch,
//! so the steady-state publish path performs **zero arena allocations**:
//! each lease is a generation bump on an already-owned slot, written in
//! place by whoever collates the batch. Its [`SlotPool::stats`] make that
//! property assertable.

use parking_lot::Mutex;
use std::sync::Arc;
use ts_shm::{ShmArena, ShmError, ShmHandle};

#[derive(Debug, Default)]
struct SlotPoolInner {
    /// Slots this pool owns (producer reference held), ready to rewrite.
    free: Vec<ShmHandle>,
    hits: u64,
    misses: u64,
    returned: u64,
    busy_discards: u64,
}

/// Counters describing a [`SlotPool`]'s behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotPoolStats {
    /// Leases served by recycling an owned slot (zero-allocation path).
    pub hits: u64,
    /// Leases that had to claim a fresh slot from the arena.
    pub misses: u64,
    /// Slots returned to the pool after their batch was fully acked.
    pub returned: u64,
    /// Owned slots abandoned because a consumer still held a view when the
    /// pool tried to rewrite them (the slot frees itself once the view
    /// drops).
    pub busy_discards: u64,
}

/// A recycling pool of shared-memory arena slots.
///
/// The pool holds the *producer reference* of every slot on its free list:
/// a reclaimed slot is not released back to the arena, it is kept owned
/// and rewritten in place for the next lease. See the module docs for
/// why, and [`crate::SharedRegistry::bind_shard_slot_pool`] for the wiring.
///
/// Cloning shares the pool.
#[derive(Debug, Clone)]
pub struct SlotPool {
    arena: Arc<ShmArena>,
    /// Free-list depth cap; slots reclaimed beyond it are released to the
    /// arena for other users.
    max_free: usize,
    inner: Arc<Mutex<SlotPoolInner>>,
}

impl SlotPool {
    /// A pool over `arena` retaining at most `max_free` idle slots (the
    /// "pool depth"). Size it like the publish window: `buffer_size` plus
    /// rubberband headroom, in batches — a batch takes one slot when a
    /// slot is at least a packed batch wide, and as many as first-fit
    /// packing needs when slots are narrower — deep enough that a full
    /// window of in-flight batches can recycle without ever probing the
    /// arena, shallow enough to leave slots for other arena users.
    pub fn new(arena: Arc<ShmArena>, max_free: usize) -> Self {
        Self {
            arena,
            max_free,
            inner: Arc::new(Mutex::new(SlotPoolInner::default())),
        }
    }

    /// The arena the pool recycles slots of.
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }

    /// The free-list depth cap.
    pub fn depth(&self) -> usize {
        self.max_free
    }

    /// Pre-reserves up to `n` slots (the free list never exceeding the
    /// depth cap) so even the first placements hit the pool. Returns how
    /// many were reserved; stops early when the arena runs out of free
    /// slots or the pool is already at depth.
    pub fn preallocate(&self, n: usize) -> usize {
        let mut reserved = 0;
        for _ in 0..n {
            {
                let inner = self.inner.lock();
                if inner.free.len() >= self.max_free {
                    break;
                }
            }
            let Ok(handle) = self.arena.reserve(0) else {
                break;
            };
            let mut inner = self.inner.lock();
            if inner.free.len() < self.max_free {
                inner.free.push(handle);
                reserved += 1;
            } else {
                // A concurrent reclaim filled the pool meanwhile.
                drop(inner);
                self.arena.release(handle);
                break;
            }
        }
        reserved
    }

    /// Leases a writable slot for `len` bytes *without moving any bytes*.
    /// An owned slot is
    /// rewritten in place ([`ts_shm::ShmArena::try_recycle_in_place`],
    /// counted as a hit); with none available a fresh slot is claimed
    /// ([`ts_shm::ShmArena::lease`], counted as a miss). Busy slots —
    /// a consumer still mapping acked contents — are released to free
    /// themselves once the view drops, and counted.
    ///
    /// The caller collates directly into [`ts_shm::ShmLease::bytes_mut`]
    /// and then publishes [`ts_shm::ShmLease::into_handle`]; the handle's
    /// producer reference comes back via [`SlotPool::reclaim`].
    pub fn lease(&self, len: usize) -> Result<ts_shm::ShmLease, ShmError> {
        loop {
            // LIFO on purpose: the slot reclaimed last is the one a consumer
            // most likely still maps, but it is also the one already
            // resident. LIFO keeps rewriting the few slots the window
            // needs: the producer's arena PSS on ts-e2e's `logged_replay`
            // is 1–13 MiB, now most of its footprint since the log gives
            // its pages back. FIFO would touch every slot of an explicit
            // arena (544 there) and make it all resident.
            let candidate = self.inner.lock().free.pop();
            let Some(handle) = candidate else {
                let lease = self.arena.lease(len)?;
                self.inner.lock().misses += 1;
                return Ok(lease);
            };
            match self.arena.try_recycle_in_place(handle, len) {
                Ok(lease) => {
                    self.inner.lock().hits += 1;
                    return Ok(lease);
                }
                Err(ShmError::Busy { .. }) => {
                    self.arena.release(handle);
                    self.inner.lock().busy_discards += 1;
                }
                Err(e) => {
                    self.arena.release(handle);
                    return Err(e);
                }
            }
        }
    }

    /// Takes back a slot whose batch was fully acked, keeping its producer
    /// reference for recycling. Beyond the depth cap the slot is released
    /// to the arena instead.
    pub fn reclaim(&self, handle: ShmHandle) {
        let mut inner = self.inner.lock();
        inner.returned += 1;
        if inner.free.len() < self.max_free {
            inner.free.push(handle);
        } else {
            drop(inner);
            self.arena.release(handle);
        }
    }

    /// Releases every idle slot back to the arena (e.g. at the end of a
    /// run, so `slots_in_use` drains to zero).
    pub fn drain(&self) {
        let free = std::mem::take(&mut self.inner.lock().free);
        for handle in free {
            self.arena.release(handle);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> SlotPoolStats {
        let inner = self.inner.lock();
        SlotPoolStats {
            hits: inner.hits,
            misses: inner.misses,
            returned: inner.returned,
            busy_discards: inner.busy_discards,
        }
    }

    /// Idle slots currently owned by the pool.
    pub fn free_count(&self) -> usize {
        self.inner.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_arena(tag: &str, nslots: usize, slot: usize) -> Arc<ShmArena> {
        let path =
            std::env::temp_dir().join(format!("ts-pool-test-{}-{tag}.arena", std::process::id()));
        ShmArena::create(path, nslots, slot).unwrap()
    }

    /// Leases a slot and writes `bytes` into it, as a collate does.
    fn put(pool: &SlotPool, bytes: &[u8]) -> ShmHandle {
        let mut lease = pool.lease(bytes.len()).unwrap();
        lease.bytes_mut().copy_from_slice(bytes);
        lease.into_handle()
    }

    #[test]
    fn slot_pool_leases_recycle_without_arena_allocations() {
        let arena = test_arena("lease", 8, 64);
        let pool = SlotPool::new(arena.clone(), 4);
        let mut handle = put(&pool, b"batch-0");
        assert_eq!(pool.stats().misses, 1);
        // Steady state: every lease rewrites the reclaimed slot in place.
        for i in 1..50 {
            pool.reclaim(handle);
            handle = put(&pool, format!("batch-{i}").as_bytes());
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "steady state must not touch the arena");
        assert_eq!(stats.hits, 49);
        assert_eq!(&arena.attach(handle).unwrap()[..], b"batch-49");
        assert_eq!(arena.slots_in_use(), 1, "one slot served every batch");
    }

    #[test]
    fn slot_pool_lease_skips_slots_pinned_by_readers() {
        let arena = test_arena("lease-busy", 4, 64);
        let pool = SlotPool::new(arena.clone(), 4);
        let h = put(&pool, b"pinned");
        let view = arena.attach(h).unwrap();
        pool.reclaim(h);
        // The reader still maps the old bytes: the pool must abandon that
        // slot (not corrupt it) and claim a fresh one.
        let h2 = put(&pool, b"fresh");
        assert_ne!(h2.slot, h.slot);
        assert_eq!(&view[..], b"pinned", "reader's bytes untouched");
        let stats = pool.stats();
        assert_eq!(stats.busy_discards, 1);
        assert_eq!(stats.misses, 2);
        drop(view);
        pool.reclaim(h2);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn slot_pool_depth_caps_retained_slots() {
        let arena = test_arena("depth", 8, 64);
        let pool = SlotPool::new(arena.clone(), 2);
        let handles: Vec<_> = (0..5).map(|_| put(&pool, b"x")).collect();
        for h in handles {
            pool.reclaim(h);
        }
        assert_eq!(pool.free_count(), 2);
        // Slots beyond the cap were released back to the arena.
        assert_eq!(arena.slots_in_use(), 2);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
        assert_eq!(pool.stats().returned, 5);
    }

    #[test]
    fn slot_pool_preallocation_never_exceeds_depth() {
        let arena = test_arena("prealloc-cap", 8, 32);
        let pool = SlotPool::new(arena.clone(), 3);
        assert_eq!(pool.preallocate(2), 2);
        // A second call tops up to the cap, never past it.
        assert_eq!(pool.preallocate(4), 1);
        assert_eq!(pool.preallocate(4), 0);
        assert_eq!(pool.free_count(), 3);
        assert_eq!(arena.slots_in_use(), 3);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn slot_pool_preallocation_makes_first_lease_a_hit() {
        let arena = test_arena("prealloc", 4, 32);
        let pool = SlotPool::new(arena.clone(), 4);
        assert_eq!(pool.preallocate(2), 2);
        assert_eq!(pool.free_count(), 2);
        let h = put(&pool, b"first");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        pool.reclaim(h);
        pool.drain();
        assert_eq!(arena.slots_in_use(), 0);
    }
}
