//! A file-backed, cross-process epoch-barrier cell.
//!
//! The in-process `EpochCoordinator` (in the core crate) keeps a sharded
//! producer group's epoch boundaries, join decisions and rubberband pin
//! set consistent behind one `Mutex`. That works only while every shard
//! pipeline lives in one process. Multi-host-era deployments run shard
//! pipelines in *separate* producer processes on one node, so the same
//! state machine needs a home every process can map: this module is that
//! home — the coordinator's word set mirrored into a `MAP_SHARED` file,
//! guarded by a shared-memory spinlock.
//!
//! The cell stores only plain `u64` words (no pointers, no host-local
//! `Instant`s): per-shard progress arrays plus a fixed table of decision
//! entries keyed by consumer id. Times are milliseconds on a
//! **cooperative monotonic clock** — a shared high-water mark that every
//! participant advances from its own `Instant` — so the apply-timeout
//! expiry (the guard against a dead consumer wedging the barrier) works
//! across processes without trusting wall clocks: an NTP step backwards
//! cannot make a stale admission immortal, and a step forwards cannot
//! expire a fresh one instantly. Decision memos are stamped with the
//! barrier generation they were made in and expire implicitly when the
//! next barrier opens, exactly like the local coordinator's
//! `decisions.clear()`.
//!
//! Lock discipline: one word holds a spinlock acquired with a CAS and a
//! `yield_now` backoff. Every operation is short (bounded scans over
//! fixed arrays), mirroring the local coordinator's mutex critical
//! sections; the barrier itself stays poll-based, so nothing sleeps while
//! holding the lock.

use crate::mmap::SharedMapping;
use crate::ShmError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Coord file magic: `b"TSCOORD1"` little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"TSCOORD1");
/// On-disk format version. v2 added the shared monotonic-clock word
/// (`W_MONO`) that admission expiry is measured against; v3 the per-shard
/// member counts (`W_MEMBERS`) that make "nobody is training" a fact
/// about the group.
const VERSION: u64 = 3;

/// Most shards a shared cell can coordinate (one bit per shard in each
/// decision entry's unapplied mask).
pub const MAX_COORD_SHARDS: usize = 64;
/// Decision-table capacity: distinct consumers with a live memo or a
/// pending (unapplied) admission at one time.
const MAX_DECISIONS: usize = 128;

// Word-indexed layout. Everything is a u64 so the whole file is one
// naturally-aligned atomic array.
const W_MAGIC: usize = 0;
const W_VERSION: usize = 1;
const W_LOCK: usize = 2;
const W_SHARDS: usize = 3;
const W_GENERATION: usize = 4;
const W_ARRIVED: usize = 5;
const W_PENDING_EPOCH: usize = 6;
const W_EPOCH: usize = 7;
const W_STOPPED: usize = 8;
/// The cooperative monotonic clock (ms): the high-water mark of every
/// participant's `Instant`-derived elapsed time. Admission expiry is
/// measured on this timeline, never on wall clocks — an NTP step
/// (backwards *or* forwards) in any participating process cannot make
/// admissions immortal or expire them instantly.
const W_MONO: usize = 9;
const W_ACTIVE: usize = 10;
const W_PUBLISHED: usize = W_ACTIVE + MAX_COORD_SHARDS;
const W_PIN_LIMIT: usize = W_PUBLISHED + MAX_COORD_SHARDS;
/// Per shard: consumers admitted there right now.
const W_MEMBERS: usize = W_PIN_LIMIT + MAX_COORD_SHARDS;
const W_ENTRIES: usize = W_MEMBERS + MAX_COORD_SHARDS;

// Decision entry fields (per-entry word offsets).
const E_ID: usize = 0; // consumer id; 0 = free slot
const E_DECISION: usize = 1; // wire code of the memoized decision
const E_GENERATION: usize = 2; // barrier generation the memo belongs to
const E_DECIDED_MS: usize = 3; // shared-monotonic ms, for cross-process expiry
const E_UNAPPLIED: usize = 4; // bitmask of shards yet to apply
const ENTRY_WORDS: usize = 5;

const TOTAL_WORDS: usize = W_ENTRIES + MAX_DECISIONS * ENTRY_WORDS;

/// The group-level outcome of a consumer's join, as stored in a shared
/// cell. The core crate maps this 1:1 onto its `GroupJoin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordDecision {
    /// Admit now; each shard replays its pinned epoch prefix.
    AdmitReplay,
    /// Admit at each shard's current position.
    AdmitAtCurrent,
    /// Defer to the next coordinated epoch boundary.
    WaitNextEpoch,
}

impl CoordDecision {
    fn code(self) -> u64 {
        match self {
            CoordDecision::AdmitReplay => 1,
            CoordDecision::AdmitAtCurrent => 2,
            CoordDecision::WaitNextEpoch => 3,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            1 => CoordDecision::AdmitReplay,
            2 => CoordDecision::AdmitAtCurrent,
            _ => CoordDecision::WaitNextEpoch,
        }
    }
}

/// A shared-memory epoch-coordinator cell: the cross-process backing for
/// the core crate's `EpochCoordinator`. One process [`ShmCoordCell::create`]s
/// the file (and unlinks it on drop); every other shard process
/// [`ShmCoordCell::open`]s it. All methods take `&self` and synchronize
/// through the in-file spinlock, so one cell can also be shared by
/// threads within a process.
pub struct ShmCoordCell {
    map: SharedMapping,
    path: PathBuf,
    shards: usize,
    apply_timeout_ms: u64,
    owner: bool,
    /// This mapping's monotonic reference point.
    clock_base: Instant,
    /// The shared clock's value when this mapping joined; the local
    /// contribution to `W_MONO` is `clock_base_ms + clock_base.elapsed()`,
    /// continuing the shared timeline instead of restarting it.
    clock_base_ms: u64,
    /// Test-only injected skew, to prove expiry is immune to it.
    clock_skew_ms: AtomicI64,
}

// Safety: all mutation goes through atomics under the in-file spinlock.
unsafe impl Send for ShmCoordCell {}
unsafe impl Sync for ShmCoordCell {}

impl std::fmt::Debug for ShmCoordCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmCoordCell")
            .field("path", &self.path)
            .field("shards", &self.shards)
            .finish()
    }
}

impl ShmCoordCell {
    /// Creates (or truncates) the coordination file at `path` for a group
    /// of `shards` pipelines. `apply_timeout` bounds how long a decided
    /// admission may stay unapplied before it is abandoned.
    pub fn create(
        path: impl AsRef<Path>,
        shards: usize,
        apply_timeout: Duration,
    ) -> Result<Self, ShmError> {
        if shards == 0 || shards > MAX_COORD_SHARDS {
            return Err(ShmError::Io(format!(
                "coordinator cell supports 1..={MAX_COORD_SHARDS} shards, got {shards}"
            )));
        }
        let path = path.as_ref().to_path_buf();
        let map = SharedMapping::create(&path, TOTAL_WORDS * 8)?;
        let cell = Self {
            map,
            path,
            shards,
            apply_timeout_ms: apply_timeout.as_millis().max(1) as u64,
            owner: true,
            clock_base: Instant::now(),
            clock_base_ms: 0,
            clock_skew_ms: AtomicI64::new(0),
        };
        for shard in 0..shards {
            cell.word(W_ACTIVE + shard).store(1, Ordering::SeqCst);
        }
        cell.word(W_SHARDS).store(shards as u64, Ordering::SeqCst);
        cell.word(W_VERSION).store(VERSION, Ordering::SeqCst);
        // Magic last: an `open` racing the create never sees a
        // half-initialized header as valid.
        cell.word(W_MAGIC).store(MAGIC, Ordering::SeqCst);
        Ok(cell)
    }

    /// Maps a coordination file created by another process. The shard
    /// count comes from the file header.
    pub fn open(path: impl AsRef<Path>, apply_timeout: Duration) -> Result<Self, ShmError> {
        let path = path.as_ref().to_path_buf();
        let map = SharedMapping::open(&path)?;
        if map.len() < TOTAL_WORDS * 8 {
            return Err(ShmError::Io("coordinator file too small".into()));
        }
        // Safety: offsets are within the (validated-length) mapping and
        // 8-aligned.
        let read = |idx: usize| unsafe {
            (*(map.ptr().add(idx * 8) as *const AtomicU64)).load(Ordering::SeqCst)
        };
        if read(W_MAGIC) != MAGIC {
            return Err(ShmError::Io(format!(
                "{} is not a coordinator file",
                path.display()
            )));
        }
        if read(W_VERSION) != VERSION {
            return Err(ShmError::Io("coordinator version mismatch".into()));
        }
        let shards = read(W_SHARDS) as usize;
        if shards == 0 || shards > MAX_COORD_SHARDS {
            return Err(ShmError::Io(format!(
                "coordinator file advertises {shards} shards"
            )));
        }
        let clock_base_ms = read(W_MONO);
        Ok(Self {
            map,
            path,
            shards,
            apply_timeout_ms: apply_timeout.as_millis().max(1) as u64,
            owner: false,
            clock_base: Instant::now(),
            clock_base_ms,
            clock_skew_ms: AtomicI64::new(0),
        })
    }

    /// Number of shards the cell was created for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn word(&self, idx: usize) -> &AtomicU64 {
        debug_assert!(idx < TOTAL_WORDS);
        // Safety: idx is within the mapping (checked at create/open) and
        // every word is 8-aligned.
        unsafe { &*(self.map.ptr().add(idx * 8) as *const AtomicU64) }
    }

    fn entry(&self, slot: usize, field: usize) -> &AtomicU64 {
        self.word(W_ENTRIES + slot * ENTRY_WORDS + field)
    }

    /// Runs `f` with the in-file spinlock held.
    fn locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let lock = self.word(W_LOCK);
        loop {
            if lock
                .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        let out = f();
        lock.store(0, Ordering::Release);
        out
    }

    /// Lock held: reads and advances the cooperative monotonic clock.
    ///
    /// Each call folds this mapping's `Instant`-derived elapsed time into
    /// the shared high-water mark, so the returned value never decreases
    /// across any sequence of calls by any participant — even when their
    /// wall clocks step in either direction. A participant whose local
    /// monotonic clock lags simply reads the high-water mark; one that
    /// leads advances it. Decision stamps and expiry checks both read
    /// this clock, so they live on one timeline.
    fn mono_ms_locked(&self) -> u64 {
        let shared = self.word(W_MONO).load(Ordering::SeqCst);
        let local = (self.clock_base_ms + self.clock_base.elapsed().as_millis() as u64)
            .saturating_add_signed(self.clock_skew_ms.load(Ordering::Relaxed));
        let now = shared.max(local);
        self.word(W_MONO).store(now, Ordering::SeqCst);
        now
    }

    /// Test hook: skews this mapping's *local* clock contribution by `ms`
    /// (either sign), standing in for a host whose time source misbehaves.
    /// Expiry regression tests use it to prove admissions neither become
    /// immortal (backwards skew) nor expire instantly (forwards skew
    /// present before the decision).
    #[doc(hidden)]
    pub fn inject_clock_skew_ms(&self, ms: i64) {
        self.clock_skew_ms.store(ms, Ordering::Relaxed);
    }

    fn active_mask(&self) -> u64 {
        let mut mask = 0u64;
        for shard in 0..self.shards {
            if self.word(W_ACTIVE + shard).load(Ordering::SeqCst) != 0 {
                mask |= 1 << shard;
            }
        }
        mask
    }

    /// Lock held: expire stale admissions, then open the barrier when
    /// every active shard arrived and every decided admission was applied
    /// (or abandoned) everywhere.
    fn try_open_locked(&self) {
        let now = self.mono_ms_locked();
        let active_mask = self.active_mask();
        let mut pending = false;
        for slot in 0..MAX_DECISIONS {
            if self.entry(slot, E_ID).load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mask = self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst);
            if mask != 0 {
                let decided = self.entry(slot, E_DECIDED_MS).load(Ordering::SeqCst);
                if now.saturating_sub(decided) >= self.apply_timeout_ms {
                    self.entry(slot, E_UNAPPLIED).store(0, Ordering::SeqCst);
                } else if mask & active_mask != 0 {
                    pending = true;
                }
            }
        }
        let active = active_mask.count_ones() as u64;
        let arrived = self.word(W_ARRIVED).load(Ordering::SeqCst);
        if active > 0 && arrived >= active && !pending {
            let generation = self.word(W_GENERATION).load(Ordering::SeqCst) + 1;
            self.word(W_GENERATION).store(generation, Ordering::SeqCst);
            self.word(W_ARRIVED).store(0, Ordering::SeqCst);
            let epoch = self.word(W_PENDING_EPOCH).load(Ordering::SeqCst);
            self.word(W_EPOCH).store(epoch, Ordering::SeqCst);
            for shard in 0..self.shards {
                self.word(W_PUBLISHED + shard).store(0, Ordering::SeqCst);
            }
            // Memos from the closed epoch died with the generation bump;
            // reclaim every entry with nothing left to apply.
            for slot in 0..MAX_DECISIONS {
                if self.entry(slot, E_ID).load(Ordering::SeqCst) != 0
                    && self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst) == 0
                {
                    self.entry(slot, E_ID).store(0, Ordering::SeqCst);
                }
            }
        }
    }

    /// A shard announces it finished the previous epoch and is ready to
    /// publish `epoch`. Returns the barrier generation to wait for via
    /// [`ShmCoordCell::reached`].
    pub fn arrive(&self, shard: u32, epoch: u64, pin_limit: u64) -> u64 {
        self.locked(|| {
            self.word(W_PIN_LIMIT + shard as usize)
                .store(pin_limit, Ordering::SeqCst);
            self.word(W_PUBLISHED + shard as usize)
                .store(0, Ordering::SeqCst);
            self.word(W_PENDING_EPOCH).store(epoch, Ordering::SeqCst);
            let arrived = self.word(W_ARRIVED).load(Ordering::SeqCst) + 1;
            self.word(W_ARRIVED).store(arrived, Ordering::SeqCst);
            let target = self.word(W_GENERATION).load(Ordering::SeqCst) + 1;
            self.try_open_locked();
            target
        })
    }

    /// True once barrier generation `target` has opened.
    pub fn reached(&self, target: u64) -> bool {
        self.locked(|| {
            if self.word(W_GENERATION).load(Ordering::SeqCst) < target {
                self.try_open_locked();
            }
            self.word(W_GENERATION).load(Ordering::SeqCst) >= target
        })
    }

    /// The epoch most recently announced to the barrier.
    pub fn pending_epoch(&self) -> u64 {
        self.locked(|| self.word(W_PENDING_EPOCH).load(Ordering::SeqCst))
    }

    /// A shard reports its publish progress within the current epoch.
    pub fn note_published(&self, shard: u32, published_in_epoch: u64) {
        self.locked(|| {
            self.word(W_PUBLISHED + shard as usize)
                .store(published_in_epoch, Ordering::SeqCst);
        })
    }

    /// A shard reports how many consumers it has admitted right now.
    pub fn note_members(&self, shard: u32, members: u64) {
        self.locked(|| {
            self.word(W_MEMBERS + shard as usize)
                .store(members, Ordering::SeqCst);
        })
    }

    /// Lock held: no active shard has a consumer, and no admission decided
    /// for one is still on its way to a shard.
    fn nobody_training_locked(&self, active_mask: u64) -> bool {
        let no_members = (0..self.shards)
            .filter(|&s| active_mask & (1 << s) != 0)
            .all(|s| self.word(W_MEMBERS + s).load(Ordering::SeqCst) == 0);
        no_members
            && (0..MAX_DECISIONS).all(|slot| {
                self.entry(slot, E_ID).load(Ordering::SeqCst) == 0
                    || self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst) & active_mask == 0
            })
    }

    /// Lock held: no shard crossed into the next boundary and every
    /// active shard is still within its rubberband pin window.
    fn group_window_open_locked(&self) -> bool {
        if self.word(W_ARRIVED).load(Ordering::SeqCst) != 0 {
            return false;
        }
        for shard in 0..self.shards {
            if self.word(W_ACTIVE + shard).load(Ordering::SeqCst) == 0 {
                continue;
            }
            let published = self.word(W_PUBLISHED + shard).load(Ordering::SeqCst);
            let limit = self.word(W_PIN_LIMIT + shard).load(Ordering::SeqCst);
            if published > limit {
                return false;
            }
        }
        true
    }

    /// True while shard `shard` must keep its epoch prefix pinned.
    pub fn pin_window_open(&self, shard: u32) -> bool {
        self.locked(|| {
            if self.group_window_open_locked() {
                return true;
            }
            let bit = 1u64 << shard;
            (0..MAX_DECISIONS).any(|slot| {
                self.entry(slot, E_ID).load(Ordering::SeqCst) != 0
                    && self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst) & bit != 0
            })
        })
    }

    /// Decides (or recalls) the group outcome for consumer `id`'s join,
    /// returning the decision and the epoch it was made for. Mirrors the
    /// local coordinator's policy exactly; the memo lives in the decision
    /// table and is keyed by (consumer id, barrier generation).
    pub fn decide_join(&self, id: u64) -> (CoordDecision, u64) {
        self.locked(|| {
            let generation = self.word(W_GENERATION).load(Ordering::SeqCst);
            let epoch = self.word(W_EPOCH).load(Ordering::SeqCst);
            let mut free = None;
            for slot in 0..MAX_DECISIONS {
                let slot_id = self.entry(slot, E_ID).load(Ordering::SeqCst);
                if slot_id == id
                    && self.entry(slot, E_GENERATION).load(Ordering::SeqCst) == generation
                {
                    let code = self.entry(slot, E_DECISION).load(Ordering::SeqCst);
                    return (CoordDecision::from_code(code), epoch);
                }
                // A slot is reusable when empty, or when it holds only a
                // stale memo with nothing left to apply.
                if free.is_none()
                    && (slot_id == 0
                        || (self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst) == 0
                            && self.entry(slot, E_GENERATION).load(Ordering::SeqCst) != generation))
                {
                    free = Some(slot);
                }
            }
            let stopped = self.word(W_STOPPED).load(Ordering::SeqCst) != 0;
            let arrived = self.word(W_ARRIVED).load(Ordering::SeqCst);
            let active_mask = self.active_mask();
            let all_at_zero = (0..self.shards)
                .filter(|&s| active_mask & (1 << s) != 0)
                .all(|s| self.word(W_PUBLISHED + s).load(Ordering::SeqCst) == 0);
            let decision = if stopped || arrived > 0 {
                CoordDecision::WaitNextEpoch
            } else if all_at_zero {
                CoordDecision::AdmitReplay
            } else if self.nobody_training_locked(active_mask) {
                CoordDecision::AdmitAtCurrent
            } else if self.group_window_open_locked() {
                CoordDecision::AdmitReplay
            } else {
                CoordDecision::WaitNextEpoch
            };
            let Some(slot) = free else {
                // Table full: answer conservatively without a memo. Safe
                // (WaitNextEpoch never pins anything) but only reachable
                // with > MAX_DECISIONS simultaneous joiners.
                return (CoordDecision::WaitNextEpoch, epoch);
            };
            self.entry(slot, E_ID).store(id, Ordering::SeqCst);
            self.entry(slot, E_DECISION)
                .store(decision.code(), Ordering::SeqCst);
            self.entry(slot, E_GENERATION)
                .store(generation, Ordering::SeqCst);
            self.entry(slot, E_DECIDED_MS)
                .store(self.mono_ms_locked(), Ordering::SeqCst);
            let mask = match decision {
                CoordDecision::AdmitReplay | CoordDecision::AdmitAtCurrent => active_mask,
                CoordDecision::WaitNextEpoch => 0,
            };
            self.entry(slot, E_UNAPPLIED).store(mask, Ordering::SeqCst);
            (decision, epoch)
        })
    }

    /// Shard `shard` applied consumer `id`'s admission.
    pub fn applied(&self, shard: u32, id: u64) {
        self.locked(|| {
            let bit = 1u64 << shard;
            for slot in 0..MAX_DECISIONS {
                if self.entry(slot, E_ID).load(Ordering::SeqCst) == id {
                    let mask = self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst);
                    self.entry(slot, E_UNAPPLIED)
                        .store(mask & !bit, Ordering::SeqCst);
                }
            }
            self.try_open_locked();
        })
    }

    /// Consumer `id` left or was detached: forget any admission still
    /// waiting to be applied for it.
    pub fn abandon(&self, id: u64) {
        self.locked(|| {
            for slot in 0..MAX_DECISIONS {
                if self.entry(slot, E_ID).load(Ordering::SeqCst) == id {
                    self.entry(slot, E_UNAPPLIED).store(0, Ordering::SeqCst);
                }
            }
            self.try_open_locked();
        })
    }

    /// Shard `shard`'s producer loop exited; it no longer counts toward
    /// barriers or admission decisions.
    pub fn retire(&self, shard: u32) {
        self.locked(|| {
            if self.word(W_ACTIVE + shard as usize).load(Ordering::SeqCst) == 0 {
                return;
            }
            self.word(W_ACTIVE + shard as usize)
                .store(0, Ordering::SeqCst);
            let bit = 1u64 << shard;
            for slot in 0..MAX_DECISIONS {
                if self.entry(slot, E_ID).load(Ordering::SeqCst) != 0 {
                    let mask = self.entry(slot, E_UNAPPLIED).load(Ordering::SeqCst);
                    self.entry(slot, E_UNAPPLIED)
                        .store(mask & !bit, Ordering::SeqCst);
                }
            }
            self.try_open_locked();
        })
    }

    /// Asks every shard to wind down.
    pub fn stop(&self) {
        self.locked(|| self.word(W_STOPPED).store(1, Ordering::SeqCst))
    }

    /// True once [`ShmCoordCell::stop`] was called (by any process).
    pub fn is_stopped(&self) -> bool {
        self.locked(|| self.word(W_STOPPED).load(Ordering::SeqCst) != 0)
    }
}

impl Drop for ShmCoordCell {
    fn drop(&mut self) {
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ts-coord-test-{}-{}-{tag}.coord",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    const T: Duration = Duration::from_secs(5);

    #[test]
    fn barrier_across_two_mappings() {
        // Two mappings of one file stand in for two shard processes (the
        // integration suite covers real fork/exec).
        let path = temp_path("cross");
        let a = ShmCoordCell::create(&path, 2, T).unwrap();
        let b = ShmCoordCell::open(&path, T).unwrap();
        assert_eq!(b.shards(), 2);
        let g = a.arrive(0, 0, 1);
        assert!(!a.reached(g), "one of two shards arrived");
        assert_eq!(b.arrive(1, 0, 1), g);
        assert!(a.reached(g), "barrier opened for the creator's mapping");
        assert!(b.reached(g), "…and for the opener's mapping");
        // The next epoch needs a fresh round of arrivals.
        let g2 = b.arrive(1, 1, 1);
        assert!(!a.reached(g2));
    }

    #[test]
    fn decisions_memoized_across_mappings() {
        let path = temp_path("memo");
        let a = ShmCoordCell::create(&path, 2, T).unwrap();
        let b = ShmCoordCell::open(&path, T).unwrap();
        let g = a.arrive(0, 0, 2);
        let _ = b.arrive(1, 0, 2);
        assert!(a.reached(g));
        a.note_published(0, 1);
        b.note_published(1, 1);
        // Somebody is training: the rubberband path.
        a.note_members(0, 1);
        assert_eq!(a.decide_join(7).0, CoordDecision::AdmitReplay);
        // The other process races past its pin boundary…
        b.note_published(1, 5);
        // …but recalls the same memo and keeps pinning until applied.
        assert_eq!(b.decide_join(7).0, CoordDecision::AdmitReplay);
        assert!(b.pin_window_open(1));
        a.applied(0, 7);
        b.applied(1, 7);
        assert!(!b.pin_window_open(1));
        // A fresh joiner now waits: shard 1 is past its window.
        assert_eq!(b.decide_join(8).0, CoordDecision::WaitNextEpoch);
    }

    #[test]
    fn expired_admissions_release_the_barrier() {
        let path = temp_path("expire");
        let a = ShmCoordCell::create(&path, 2, Duration::from_millis(40)).unwrap();
        let b = ShmCoordCell::open(&path, Duration::from_millis(40)).unwrap();
        let g = a.arrive(0, 0, 5);
        let _ = b.arrive(1, 0, 5);
        assert!(a.reached(g));
        a.note_published(0, 1);
        a.note_members(0, 1);
        assert_eq!(a.decide_join(3).0, CoordDecision::AdmitReplay);
        a.applied(0, 3); // shard 1's process never applies
        let g2 = a.arrive(0, 1, 5);
        let _ = b.arrive(1, 1, 5);
        assert!(!b.reached(g2), "barrier waits on the unapplied admission");
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.reached(g2), "expired admission abandoned");
    }

    #[test]
    fn expiry_survives_backwards_clock_skew() {
        // Regression: with unix-ms stamps, a wall clock stepping backwards
        // after the decision made `now.saturating_sub(decided)` stick at 0
        // forever — the admission never expired and the barrier deadlocked.
        // On the shared monotonic clock a skewed participant cannot drag
        // time backwards (it just reads the high-water mark), so expiry
        // still happens on schedule.
        let path = temp_path("skew-back");
        let a = ShmCoordCell::create(&path, 2, Duration::from_millis(40)).unwrap();
        let b = ShmCoordCell::open(&path, Duration::from_millis(40)).unwrap();
        let g = a.arrive(0, 0, 5);
        let _ = b.arrive(1, 0, 5);
        assert!(a.reached(g));
        a.note_published(0, 1);
        a.note_members(0, 1);
        assert_eq!(a.decide_join(3).0, CoordDecision::AdmitReplay);
        a.applied(0, 3); // shard 1's process never applies
                         // Shard 1's host "steps back" by a day.
        b.inject_clock_skew_ms(-86_400_000);
        let g2 = a.arrive(0, 1, 5);
        let _ = b.arrive(1, 1, 5);
        assert!(!b.reached(g2), "barrier waits on the unapplied admission");
        std::thread::sleep(Duration::from_millis(60));
        // The healthy participant advances the shared clock past the
        // timeout; the skewed one reads the high-water mark. (A skewed
        // mapping alone never *advances* time — it defers to the
        // healthiest clock in the group, which is the point.)
        assert!(a.reached(g2), "healthy participant expires the admission");
        assert!(
            b.reached(g2),
            "skewed participant observes the expiry via the shared clock"
        );
    }

    #[test]
    fn fresh_admissions_survive_forwards_clock_skew() {
        // Regression: with unix-ms stamps, a wall clock stepping forwards
        // between two participants expired admissions the moment they were
        // decided (double-admit / lost replay). On the shared clock the
        // decision stamp and the expiry check read the same timeline, so
        // a decision made *after* a huge forward step is still fresh.
        let path = temp_path("skew-fwd");
        let a = ShmCoordCell::create(&path, 2, Duration::from_secs(5)).unwrap();
        let b = ShmCoordCell::open(&path, Duration::from_secs(5)).unwrap();
        // Shard 1's host is a day "ahead"; touching the barrier propagates
        // the skew into the shared clock before anything is decided.
        b.inject_clock_skew_ms(86_400_000);
        let g = a.arrive(0, 0, 5);
        let _ = b.arrive(1, 0, 5);
        assert!(b.reached(g));
        a.note_published(0, 1);
        a.note_members(0, 1);
        assert_eq!(a.decide_join(3).0, CoordDecision::AdmitReplay);
        a.applied(0, 3); // b has not applied yet
        let g2 = a.arrive(0, 1, 5);
        let _ = b.arrive(1, 1, 5);
        // Neither mapping may treat the fresh admission as expired, no
        // matter whose clock answers the check.
        assert!(!a.reached(g2), "fresh admission must not expire instantly");
        assert!(!b.reached(g2), "fresh admission must not expire instantly");
        b.applied(1, 3);
        assert!(a.reached(g2), "barrier opens once actually applied");
    }

    #[test]
    fn retire_stop_and_abandon_are_shared() {
        let path = temp_path("retire");
        let a = ShmCoordCell::create(&path, 2, T).unwrap();
        let b = ShmCoordCell::open(&path, T).unwrap();
        let g = a.arrive(0, 0, 5);
        assert!(!a.reached(g));
        b.retire(1);
        assert!(a.reached(g), "lone survivor proceeds");
        a.note_published(0, 1);
        a.note_members(0, 1);
        assert_eq!(a.decide_join(11).0, CoordDecision::AdmitReplay);
        assert!(a.pin_window_open(0));
        b.abandon(11);
        a.note_published(0, 6); // past the pin limit, nothing unapplied
        assert!(!a.pin_window_open(0));
        b.stop();
        assert!(a.is_stopped());
        assert_eq!(a.decide_join(12).0, CoordDecision::WaitNextEpoch);
    }

    #[test]
    fn nobody_training_is_a_fact_about_the_group() {
        // Shard 0 has a consumer and has published; a second consumer's
        // join reaches shard 1 (no members of its own) first. Admitting it
        // at the current position would skip shard 0's prefix.
        let path = temp_path("nobody");
        let a = ShmCoordCell::create(&path, 2, T).unwrap();
        let b = ShmCoordCell::open(&path, T).unwrap();
        let g = a.arrive(0, 0, 4);
        let _ = b.arrive(1, 0, 4);
        assert!(a.reached(g));
        assert_eq!(a.decide_join(1).0, CoordDecision::AdmitReplay); // all at zero
        a.applied(0, 1);
        a.note_members(0, 1);
        a.note_published(0, 2);
        assert_eq!(b.decide_join(2).0, CoordDecision::AdmitReplay);
        assert_eq!(a.decide_join(2).0, CoordDecision::AdmitReplay);
        // Everybody gone mid-epoch: now the current position is right, but
        // only once no earlier admission is still on its way to a shard.
        a.note_members(0, 0);
        assert_eq!(b.decide_join(3).0, CoordDecision::AdmitReplay);
        for id in [1, 2, 3] {
            a.abandon(id);
        }
        assert_eq!(b.decide_join(4).0, CoordDecision::AdmitAtCurrent);
        assert_eq!(a.decide_join(4).0, CoordDecision::AdmitAtCurrent);
    }

    #[test]
    fn create_and_open_validate_the_header() {
        assert!(matches!(
            ShmCoordCell::create(temp_path("zero"), 0, T),
            Err(ShmError::Io(_))
        ));
        assert!(matches!(
            ShmCoordCell::create(temp_path("many"), MAX_COORD_SHARDS + 1, T),
            Err(ShmError::Io(_))
        ));
        // An arena file is not a coordinator file.
        let arena_path = temp_path("notcoord");
        let _arena = crate::ShmArena::create(&arena_path, 2, 4096).unwrap();
        assert!(matches!(
            ShmCoordCell::open(&arena_path, T),
            Err(ShmError::Io(_))
        ));
    }

    use std::sync::atomic::AtomicU64;
}
