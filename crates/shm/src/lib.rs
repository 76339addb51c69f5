#![warn(missing_docs)]

//! # ts-shm — a file-backed shared-memory payload arena
//!
//! TensorSocket's headline scenario is *collocated training processes*
//! sharing one data-loading pipeline: metadata (batch announcements, acks)
//! crosses a socket while the batch bytes themselves move through shared
//! memory — the producer writes a batch once, every consumer process maps
//! the same physical pages and reads it zero-copy (§3.2.4 of the paper;
//! "RPC Considered Harmful" makes the same metadata/bulk-path split).
//!
//! The [`ShmArena`] is that bulk path. It is a single file mapped with
//! `MAP_SHARED` into every participating process, carved into fixed-size
//! **slots**. Each slot carries a header with:
//!
//! * a **generation** counter — bumped on every (re)allocation, so a stale
//!   [`ShmHandle`] from a previous occupant can never read the wrong data
//!   (the moral equivalent of a use-after-free surfaces as
//!   [`ShmError::Stale`], not garbage bytes);
//! * a cross-process **refcount** — the producer holds one reference from
//!   allocation until release, and every consumer [`ShmArena::attach`]
//!   takes another for as long as it reads. A slot is reusable only when
//!   the count returns to zero, mirroring the paper's "tensors are kept in
//!   memory as long as any of the producers or consumers hold a
//!   reference".
//!
//! **A slot holds a batch.** The producer lays all the tensors of one
//! batch out in one slot, each at its own offset, so a batch is one
//! handle, one producer reference and one [`ShmArena::attach`] per
//! consumer; slots narrower than a batch hold it in as many slots as its
//! tensors need.
//!
//! Handles are 16-byte POD ([`ShmHandle::encode`]) and ride inside the
//! announce metadata on the socket; the payload bytes never do.
//!
//! ```no_run
//! use ts_shm::ShmArena;
//!
//! // producer process
//! let arena = ShmArena::create("/dev/shm/ts-demo.arena", 8, 1 << 20).unwrap();
//! let handle = arena.alloc(b"batch bytes").unwrap();
//! // ... send handle.encode() over a socket ...
//!
//! // consumer process
//! let arena = ShmArena::open("/dev/shm/ts-demo.arena").unwrap();
//! let view = arena.attach(handle).unwrap();
//! assert_eq!(&view[..], b"batch bytes");
//! drop(view);            // consumer reference released
//! arena.release(handle); // producer reference released -> slot reusable
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod mmap;

use mmap::SharedMapping;

/// Arena file magic: `b"TSARENA1"` little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"TSARENA1");
/// On-disk format version.
const VERSION: u32 = 1;
/// Byte offset of the slot-header table (one page reserved for the arena
/// header).
const HEADER_BYTES: usize = 4096;
/// Bytes per slot header (one cache line, keeps slot atomics unshared).
const SLOT_HEADER_BYTES: usize = 64;

/// Errors from arena operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// Every slot is currently referenced.
    Full,
    /// The payload exceeds the arena's slot size.
    TooLarge {
        /// Requested bytes.
        requested: usize,
        /// Slot capacity in bytes.
        slot_size: usize,
    },
    /// The handle's generation no longer matches the slot (the slot was
    /// released and possibly reused) — the shared-memory analogue of a
    /// dangling pointer.
    Stale {
        /// Slot index of the handle.
        slot: u32,
        /// Generation the handle carried.
        generation: u32,
    },
    /// The slot cannot be recycled in place because readers other than the
    /// producer still reference it.
    Busy {
        /// Slot index of the handle.
        slot: u32,
        /// References currently held (including the producer's).
        refs: u32,
    },
    /// The handle's slot index is out of range for this arena.
    BadSlot(u32),
    /// Underlying file/mapping error.
    Io(String),
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmError::Full => write!(f, "arena full: all slots referenced"),
            ShmError::TooLarge {
                requested,
                slot_size,
            } => write!(
                f,
                "payload of {requested} B exceeds slot size {slot_size} B"
            ),
            ShmError::Stale { slot, generation } => {
                write!(f, "stale handle: slot {slot} generation {generation}")
            }
            ShmError::Busy { slot, refs } => {
                write!(f, "slot {slot} still referenced by {refs} readers")
            }
            ShmError::BadSlot(slot) => write!(f, "slot {slot} out of range"),
            ShmError::Io(e) => write!(f, "arena io: {e}"),
        }
    }
}

impl std::error::Error for ShmError {}

impl From<std::io::Error> for ShmError {
    fn from(e: std::io::Error) -> Self {
        ShmError::Io(e.to_string())
    }
}

/// A compact, POD reference to bytes in a [`ShmArena`]: slot index,
/// generation tag and payload length. 16 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShmHandle {
    /// Slot index.
    pub slot: u32,
    /// Generation of the slot at allocation time.
    pub generation: u32,
    /// Payload length in bytes.
    pub len: u64,
}

/// Encoded size of a [`ShmHandle`].
pub const HANDLE_BYTES: usize = 16;

impl ShmHandle {
    /// Packs the handle into its 16-byte wire form.
    pub fn encode(&self) -> [u8; HANDLE_BYTES] {
        let mut out = [0u8; HANDLE_BYTES];
        out[0..4].copy_from_slice(&self.slot.to_le_bytes());
        out[4..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..16].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Unpacks a handle from its wire form; `None` when truncated.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < HANDLE_BYTES {
            return None;
        }
        Some(Self {
            slot: u32::from_le_bytes(buf[0..4].try_into().ok()?),
            generation: u32::from_le_bytes(buf[4..8].try_into().ok()?),
            len: u64::from_le_bytes(buf[8..16].try_into().ok()?),
        })
    }
}

/// Raw slot header view over the mapping.
///
/// Generation and refcount live in one atomic word
/// (`generation << 32 | refs`) so every lifecycle transition is a single
/// CAS — there is no window where a stale handle can observe a matching
/// generation with someone else's refcount (including double-release
/// underflow, which a split representation would allow).
struct SlotHeader<'a> {
    state: &'a AtomicU64,
    len: &'a AtomicU64,
}

fn state_generation(state: u64) -> u32 {
    (state >> 32) as u32
}

fn state_refs(state: u64) -> u32 {
    state as u32
}

fn make_state(generation: u32, refs: u32) -> u64 {
    ((generation as u64) << 32) | refs as u64
}

/// An arena's self-description: the backing file path plus the slot
/// geometry. This is what a producer advertises over its attach
/// handshake so a consumer process can [`ShmArena::open`] the same arena
/// with zero out-of-band configuration (the geometry fields are
/// informational — `open` reads the authoritative copy from the file
/// header — but let peers validate capacity before mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaGeometry {
    /// Path of the backing file.
    pub path: PathBuf,
    /// Number of slots.
    pub nslots: usize,
    /// Capacity of each slot in bytes.
    pub slot_size: usize,
}

/// A file-backed shared-memory arena. See the crate docs for the protocol.
///
/// All methods take `&self`; the arena is `Send + Sync` and is normally
/// held in an `Arc` shared by every socket/consumer in the process.
pub struct ShmArena {
    map: SharedMapping,
    path: PathBuf,
    nslots: usize,
    slot_size: usize,
    /// Round-robin allocation cursor (process-local hint only).
    next_slot: AtomicUsize,
    /// Whether this process created (and on drop unlinks) the file.
    owner: bool,
}

impl std::fmt::Debug for ShmArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmArena")
            .field("path", &self.path)
            .field("nslots", &self.nslots)
            .field("slot_size", &self.slot_size)
            .field("in_use", &self.slots_in_use())
            .finish()
    }
}

impl ShmArena {
    /// Creates (or truncates) the arena file at `path` with `nslots` slots
    /// of `slot_size` bytes each and maps it. The creating process owns
    /// the file and unlinks it when the arena drops.
    pub fn create(
        path: impl AsRef<Path>,
        nslots: usize,
        slot_size: usize,
    ) -> Result<Arc<Self>, ShmError> {
        let path = path.as_ref().to_path_buf();
        assert!(nslots > 0, "arena needs at least one slot");
        assert!(slot_size > 0, "slot size must be positive");
        let total = HEADER_BYTES + nslots * SLOT_HEADER_BYTES + nslots * slot_size;
        let map = SharedMapping::create(&path, total)?;
        let arena = Self {
            map,
            path,
            nslots,
            slot_size,
            next_slot: AtomicUsize::new(0),
            owner: true,
        };
        // Header: magic, version, geometry.
        arena.header_u64(0).store(MAGIC, Ordering::SeqCst);
        arena.header_u64(8).store(VERSION as u64, Ordering::SeqCst);
        arena
            .header_u64(16)
            .store(slot_size as u64, Ordering::SeqCst);
        arena.header_u64(24).store(nslots as u64, Ordering::SeqCst);
        Ok(Arc::new(arena))
    }

    /// Maps an existing arena file created by another process.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Self>, ShmError> {
        let path = path.as_ref().to_path_buf();
        let map = SharedMapping::open(&path)?;
        if map.len() < HEADER_BYTES {
            return Err(ShmError::Io("arena file too small".into()));
        }
        // Safety: offsets are within the (>= HEADER_BYTES) mapping and
        // 8-aligned.
        let read_u64 = |offset: usize| unsafe {
            (*(map.ptr().add(offset) as *const AtomicU64)).load(Ordering::SeqCst)
        };
        if read_u64(0) != MAGIC {
            return Err(ShmError::Io(format!(
                "{} is not an arena file",
                path.display()
            )));
        }
        if read_u64(8) != VERSION as u64 {
            return Err(ShmError::Io("arena version mismatch".into()));
        }
        let slot_size = read_u64(16) as usize;
        let nslots = read_u64(24) as usize;
        let need = HEADER_BYTES + nslots * SLOT_HEADER_BYTES + nslots * slot_size;
        if map.len() < need {
            return Err(ShmError::Io("arena file truncated".into()));
        }
        Ok(Arc::new(Self {
            map,
            path,
            nslots,
            slot_size,
            next_slot: AtomicUsize::new(0),
            owner: false,
        }))
    }

    /// Number of slots.
    pub fn nslots(&self) -> usize {
        self.nslots
    }

    /// Capacity of each slot in bytes.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The arena's geometry advertisement: everything a peer process
    /// needs to open (or recreate a compatible view of) this arena. The
    /// producer embeds it in the attach handshake so consumers map the
    /// arena without any out-of-band configuration.
    pub fn geometry(&self) -> ArenaGeometry {
        ArenaGeometry {
            path: self.path.clone(),
            nslots: self.nslots,
            slot_size: self.slot_size,
        }
    }

    /// Slots whose refcount is non-zero right now.
    pub fn slots_in_use(&self) -> usize {
        (0..self.nslots)
            .filter(|&i| state_refs(self.slot(i).state.load(Ordering::SeqCst)) > 0)
            .count()
    }

    fn header_u64(&self, offset: usize) -> &AtomicU64 {
        // Safety: offset is within the always-mapped header page and
        // 8-aligned by construction.
        unsafe { &*(self.map.ptr().add(offset) as *const AtomicU64) }
    }

    fn slot(&self, i: usize) -> SlotHeader<'_> {
        debug_assert!(i < self.nslots);
        let base = HEADER_BYTES + i * SLOT_HEADER_BYTES;
        // Safety: the slot-header table is within the mapping and each
        // field offset is naturally aligned (64-byte records).
        unsafe {
            SlotHeader {
                state: &*(self.map.ptr().add(base) as *const AtomicU64),
                len: &*(self.map.ptr().add(base + 8) as *const AtomicU64),
            }
        }
    }

    fn slot_data_ptr(&self, i: usize) -> *mut u8 {
        let off = HEADER_BYTES + self.nslots * SLOT_HEADER_BYTES + i * self.slot_size;
        // Safety: in range by construction.
        unsafe { self.map.ptr().add(off) }
    }

    /// Copies `bytes` into a free slot and returns its handle. The caller
    /// (the producer) holds one reference until [`ShmArena::release`].
    ///
    /// Fails with [`ShmError::Full`] when every slot is referenced and
    /// [`ShmError::TooLarge`] when the payload exceeds the slot size.
    pub fn alloc(&self, bytes: &[u8]) -> Result<ShmHandle, ShmError> {
        let handle = self.reserve(bytes.len())?;
        // Safety: the reservation's claim CAS (free -> new generation,
        // refs = 1) gave us exclusive access to the slot body.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.slot_data_ptr(handle.slot as usize),
                bytes.len(),
            );
        }
        Ok(handle)
    }

    /// Claims a free slot for `len` bytes without writing anything — the
    /// reservation half of the recycling protocol. The caller holds the
    /// producer reference and exclusive write access; fill the slot later
    /// through [`ShmArena::try_recycle_in_place`] (which also stamps a
    /// fresh generation, so a reserved-but-never-written slot can never
    /// serve a forged read).
    ///
    /// The slot contents are unspecified until written; the handle is
    /// attachable (it reads `len` bytes of whatever the slot held before),
    /// so only hand it out after writing.
    pub fn reserve(&self, len: usize) -> Result<ShmHandle, ShmError> {
        if len > self.slot_size {
            return Err(ShmError::TooLarge {
                requested: len,
                slot_size: self.slot_size,
            });
        }
        let start = self.next_slot.load(Ordering::Relaxed);
        for probe in 0..self.nslots {
            let i = (start + probe) % self.nslots;
            let hdr = self.slot(i);
            let current = hdr.state.load(Ordering::SeqCst);
            if state_refs(current) != 0 {
                continue;
            }
            let mut generation = state_generation(current).wrapping_add(1);
            if generation == 0 {
                generation = 1;
            }
            if hdr
                .state
                .compare_exchange(
                    current,
                    make_state(generation, 1),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                continue;
            }
            self.next_slot.store(i + 1, Ordering::Relaxed);
            hdr.len.store(len as u64, Ordering::SeqCst);
            return Ok(ShmHandle {
                slot: i as u32,
                generation,
                len: len as u64,
            });
        }
        Err(ShmError::Full)
    }

    /// Rewrites a slot the caller already owns (sole producer reference)
    /// for `len` bytes and bumps the generation, so every previously
    /// issued handle to the slot goes stale — but moves **no bytes**. The
    /// caller's reference carries over into the returned [`ShmLease`],
    /// which grants exclusive write access to the slot body; filling it is
    /// the caller's job ([`ShmLease::bytes_mut`]).
    ///
    /// This is the steady-state path of the producer's slot pool: the
    /// feeder collates *directly into* a recycled slot, so the publish
    /// stage never copies payload bytes.
    ///
    /// Fails with [`ShmError::BadSlot`] for a slot out of range,
    /// [`ShmError::TooLarge`] when `len` exceeds the slot size,
    /// [`ShmError::Stale`] when `handle` is not the slot's live
    /// generation, and [`ShmError::Busy`] while consumers still hold views
    /// on the old contents. On error the slot is untouched and still owned
    /// via `handle`.
    pub fn try_recycle_in_place(
        self: &Arc<Self>,
        handle: ShmHandle,
        len: usize,
    ) -> Result<ShmLease, ShmError> {
        let i = handle.slot as usize;
        if i >= self.nslots {
            return Err(ShmError::BadSlot(handle.slot));
        }
        if len > self.slot_size {
            return Err(ShmError::TooLarge {
                requested: len,
                slot_size: self.slot_size,
            });
        }
        let hdr = self.slot(i);
        let current = hdr.state.load(Ordering::SeqCst);
        if state_generation(current) != handle.generation || state_refs(current) == 0 {
            return Err(ShmError::Stale {
                slot: handle.slot,
                generation: handle.generation,
            });
        }
        if state_refs(current) != 1 {
            return Err(ShmError::Busy {
                slot: handle.slot,
                refs: state_refs(current),
            });
        }
        let mut generation = handle.generation.wrapping_add(1);
        if generation == 0 {
            generation = 1;
        }
        // (gen, 1) -> (gen+1, 1) in one CAS: a reader racing `attach` with
        // the old handle either bumps refs before us (we fail Busy) or
        // fails its generation check after us. Either way nobody reads
        // half-written bytes.
        if hdr
            .state
            .compare_exchange(
                current,
                make_state(generation, 1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            let raced = hdr.state.load(Ordering::SeqCst);
            return Err(ShmError::Busy {
                slot: handle.slot,
                refs: state_refs(raced),
            });
        }
        hdr.len.store(len as u64, Ordering::SeqCst);
        Ok(ShmLease {
            arena: Arc::clone(self),
            handle: ShmHandle {
                slot: handle.slot,
                generation,
                len: len as u64,
            },
            armed: true,
        })
    }

    /// Claims a *fresh* slot for `len` bytes as a writable [`ShmLease`] —
    /// [`ShmArena::reserve`] wrapped in the lease guard, for the arena-miss
    /// path of a recycling pool. The lease's generation is already final
    /// (unlike a bare `reserve` handle, which
    /// [`ShmArena::try_recycle_in_place`] re-stamps), so
    /// [`ShmLease::into_handle`] is directly publishable once the bytes
    /// are written.
    pub fn lease(self: &Arc<Self>, len: usize) -> Result<ShmLease, ShmError> {
        let handle = self.reserve(len)?;
        Ok(ShmLease {
            arena: Arc::clone(self),
            handle,
            armed: true,
        })
    }

    /// References currently held on the slot behind `handle`, or `None`
    /// when the handle is stale or out of range.
    pub fn ref_count(&self, handle: ShmHandle) -> Option<u32> {
        let i = handle.slot as usize;
        if i >= self.nslots {
            return None;
        }
        let state = self.slot(i).state.load(Ordering::SeqCst);
        if state_generation(state) != handle.generation || state_refs(state) == 0 {
            return None;
        }
        Some(state_refs(state))
    }

    /// [`ShmArena::alloc`], retrying while the arena is full for up to
    /// `timeout` (consumers still hold references; backpressure).
    pub fn alloc_wait(&self, bytes: &[u8], timeout: Duration) -> Result<ShmHandle, ShmError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.alloc(bytes) {
                Err(ShmError::Full) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                other => return other,
            }
        }
    }

    /// Takes a read reference on the slot behind `handle`, validating the
    /// generation tag. The returned guard derefs to the payload bytes and
    /// drops its reference when dropped.
    pub fn attach(self: &Arc<Self>, handle: ShmHandle) -> Result<ShmView, ShmError> {
        let i = handle.slot as usize;
        if i >= self.nslots {
            return Err(ShmError::BadSlot(handle.slot));
        }
        // A forged/corrupt handle must not produce a view past the slot:
        // the view derefs to `len` raw bytes of the mapping.
        if handle.len as usize > self.slot_size {
            return Err(ShmError::TooLarge {
                requested: handle.len as usize,
                slot_size: self.slot_size,
            });
        }
        let hdr = self.slot(i);
        // Take a reference only while the handle's generation is the live
        // one: a single CAS on the combined word makes generation check
        // and refcount increment atomic.
        loop {
            let current = hdr.state.load(Ordering::SeqCst);
            if state_generation(current) != handle.generation || state_refs(current) == 0 {
                return Err(ShmError::Stale {
                    slot: handle.slot,
                    generation: handle.generation,
                });
            }
            if hdr
                .state
                .compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        Ok(ShmView {
            arena: Arc::clone(self),
            slot: i,
            len: handle.len as usize,
        })
    }

    /// Drops the producer's (allocation-time) reference. Returns `true`
    /// when the slot became free, `false` while consumers still read it.
    ///
    /// Releasing a stale handle is a no-op returning `false`.
    pub fn release(&self, handle: ShmHandle) -> bool {
        let i = handle.slot as usize;
        if i >= self.nslots {
            return false;
        }
        let hdr = self.slot(i);
        loop {
            let current = hdr.state.load(Ordering::SeqCst);
            // Wrong generation or already free (double release): no-op.
            // The atomic word makes this check-and-decrement race-free —
            // a split refcount would underflow here and resurrect the
            // slot for stale handles.
            if state_generation(current) != handle.generation || state_refs(current) == 0 {
                return false;
            }
            if hdr
                .state
                .compare_exchange(current, current - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return state_refs(current) == 1;
            }
        }
    }

    fn drop_ref(&self, slot: usize) {
        // A live view pins refs > 0 and the generation cannot move while
        // it does, so a plain decrement is safe here.
        self.slot(slot).state.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for ShmArena {
    fn drop(&mut self) {
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A pinned, zero-copy view of one allocation. Holds a reference on the
/// slot (and on the mapping) until dropped.
pub struct ShmView {
    arena: Arc<ShmArena>,
    slot: usize,
    len: usize,
}

impl ShmView {
    /// The arena this view pins.
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }
}

impl std::ops::Deref for ShmView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Safety: the refcount held by this view keeps the slot from being
        // reallocated, so the bytes are stable for the view's lifetime.
        unsafe { std::slice::from_raw_parts(self.arena.slot_data_ptr(self.slot), self.len) }
    }
}

impl std::fmt::Debug for ShmView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmView")
            .field("slot", &self.slot)
            .field("len", &self.len)
            .finish()
    }
}

impl Drop for ShmView {
    fn drop(&mut self) {
        self.arena.drop_ref(self.slot);
    }
}

/// Exclusive write access to one leased slot, before publication.
///
/// Produced by [`ShmArena::lease`] / [`ShmArena::try_recycle_in_place`].
/// The lease holds the slot at `refs == 1` under a generation that has
/// never been handed out, so nothing can [`ShmArena::attach`] it — the
/// writer side of the producer's zero-copy collate path owns the byte
/// range outright until it either:
///
/// * [`ShmLease::into_handle`]s the lease — transferring the producer
///   reference to the returned [`ShmHandle`], which the caller then
///   publishes and eventually [`ShmArena::release`]s; or
/// * drops it — releasing the reference, freeing the slot (the abort
///   path; a leased-but-never-published slot must not leak).
///
/// **Contract:** write all `len` bytes before `into_handle`; the slot
/// contents are unspecified (the previous occupant's bytes) until
/// overwritten, and the handle is attachable the moment it is announced.
pub struct ShmLease {
    arena: Arc<ShmArena>,
    handle: ShmHandle,
    /// True while this lease still owns the producer reference.
    armed: bool,
}

impl ShmLease {
    /// The handle this lease will publish as. Attaching it before the
    /// bytes are written reads the previous occupant's bytes — hand it
    /// out only via [`ShmLease::into_handle`].
    pub fn handle(&self) -> ShmHandle {
        self.handle
    }

    /// Payload length in bytes (what was requested at lease time).
    pub fn len(&self) -> usize {
        self.handle.len as usize
    }

    /// True when the lease covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.handle.len == 0
    }

    /// The arena the leased slot lives in.
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }

    /// The writable byte range of the leased slot.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // Safety: the lease pins refs == 1 under a generation no other
        // party has seen, so no view can alias this range; the mapping
        // outlives the lease via the held Arc.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.arena.slot_data_ptr(self.handle.slot as usize),
                self.handle.len as usize,
            )
        }
    }

    /// Consumes the lease, transferring the producer reference to the
    /// returned handle. The caller is now responsible for the eventual
    /// [`ShmArena::release`] (directly or through a slot pool).
    pub fn into_handle(mut self) -> ShmHandle {
        self.armed = false;
        self.handle
    }
}

impl std::fmt::Debug for ShmLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmLease")
            .field("slot", &self.handle.slot)
            .field("generation", &self.handle.generation)
            .field("len", &self.handle.len)
            .finish()
    }
}

impl Drop for ShmLease {
    fn drop(&mut self) {
        if self.armed {
            self.arena.release(self.handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ts-shm-test-{}-{}-{tag}.arena",
            std::process::id(),
            fresh_id()
        ))
    }

    fn fresh_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    #[test]
    fn alloc_attach_release_round_trip() {
        let arena = ShmArena::create(temp_path("rt"), 4, 256).unwrap();
        let h = arena.alloc(b"hello world").unwrap();
        assert_eq!(h.len, 11);
        let view = arena.attach(h).unwrap();
        assert_eq!(&view[..], b"hello world");
        assert_eq!(arena.slots_in_use(), 1);
        assert!(!arena.release(h), "consumer still attached");
        drop(view);
        assert_eq!(arena.slots_in_use(), 0);
    }

    #[test]
    fn stale_handle_after_release_fails() {
        let arena = ShmArena::create(temp_path("stale"), 2, 64).unwrap();
        let h = arena.alloc(b"abc").unwrap();
        assert!(arena.release(h));
        assert!(matches!(arena.attach(h), Err(ShmError::Stale { .. })));
        // Reuse the slot: the old handle must still fail.
        let h2 = arena.alloc(b"def").unwrap();
        assert!(matches!(arena.attach(h), Err(ShmError::Stale { .. })));
        let v = arena.attach(h2).unwrap();
        assert_eq!(&v[..], b"def");
    }

    #[test]
    fn full_and_too_large() {
        let arena = ShmArena::create(temp_path("full"), 2, 16).unwrap();
        let a = arena.alloc(&[1u8; 16]).unwrap();
        let _b = arena.alloc(&[2u8; 8]).unwrap();
        assert_eq!(arena.alloc(&[3u8; 1]).unwrap_err(), ShmError::Full);
        assert!(matches!(
            arena.alloc(&[0u8; 17]).unwrap_err(),
            ShmError::TooLarge { .. }
        ));
        arena.release(a);
        assert!(arena.alloc(&[4u8; 4]).is_ok());
    }

    #[test]
    fn cross_mapping_visibility() {
        // Two mappings of the same file in one process stand in for two
        // processes (the integration test covers real fork/exec).
        let path = temp_path("cross");
        let producer = ShmArena::create(&path, 4, 128).unwrap();
        let consumer = ShmArena::open(&path).unwrap();
        let h = producer.alloc(b"shared-bytes").unwrap();
        let view = consumer.attach(h).unwrap();
        assert_eq!(&view[..], b"shared-bytes");
        // Refcounts are shared through the file: producer sees the
        // consumer's reference.
        assert!(!producer.release(h));
        drop(view);
        assert_eq!(producer.slots_in_use(), 0);
    }

    #[test]
    fn open_refuses_a_file_that_is_not_this_versions_arena() {
        // The one shared-memory file format: whatever is wrong with the
        // header, an attacher gets a typed error, never a mapping.
        let path = temp_path("header");
        let refused = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            matches!(ShmArena::open(&path), Err(ShmError::Io(_)))
        };
        let good = {
            let _arena = ShmArena::create(&path, 2, 64).unwrap();
            std::fs::read(&path).unwrap()
        };
        assert!(!path.exists(), "the owner unlinked it");
        assert!(refused(&good[..HEADER_BYTES - 1]), "no room for a header");
        assert!(refused(&vec![0u8; good.len()]), "no magic");
        let mut newer = good.clone();
        newer[8..16].copy_from_slice(&(VERSION as u64 + 1).to_le_bytes());
        assert!(refused(&newer), "another version's layout");
        assert!(refused(&good[..good.len() - 1]), "shorter than it says");
        assert!(!refused(&good), "and the intact file opens");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_rejects_oversized_len() {
        let arena = ShmArena::create(temp_path("oversz"), 2, 64).unwrap();
        let mut h = arena.alloc(b"ok").unwrap();
        // A forged/corrupt length beyond the slot must not produce a view.
        h.len = 65;
        assert!(matches!(
            arena.attach(h),
            Err(ShmError::TooLarge { requested: 65, .. })
        ));
        h.len = 64; // at the slot boundary is fine
        assert!(arena.attach(h).is_ok());
    }

    #[test]
    fn reserve_then_recycle_round_trip() {
        let arena = ShmArena::create(temp_path("reserve"), 2, 64).unwrap();
        let h = arena.reserve(16).unwrap();
        assert_eq!(h.len, 16);
        assert_eq!(arena.ref_count(h), Some(1));
        assert_eq!(arena.slots_in_use(), 1);
        // Filling the reserved slot stamps a fresh generation: the bare
        // reservation handle goes stale, the returned one reads the bytes.
        let mut lease = arena.try_recycle_in_place(h, 5).unwrap();
        lease.bytes_mut().copy_from_slice(b"first");
        let filled = lease.into_handle();
        assert_eq!(filled.slot, h.slot);
        assert_ne!(filled.generation, h.generation);
        assert!(matches!(arena.attach(h), Err(ShmError::Stale { .. })));
        assert_eq!(&arena.attach(filled).unwrap()[..], b"first");
        assert_eq!(arena.slots_in_use(), 1);
    }

    #[test]
    fn recycle_in_place_invalidates_old_handle() {
        let arena = ShmArena::create(temp_path("recycle"), 2, 64).unwrap();
        let first = arena.alloc(b"aaaa").unwrap();
        let mut lease = arena.try_recycle_in_place(first, 2).unwrap();
        lease.bytes_mut().copy_from_slice(b"bb");
        let second = lease.into_handle();
        assert_eq!(second.slot, first.slot);
        assert_eq!(second.len, 2);
        assert!(matches!(arena.attach(first), Err(ShmError::Stale { .. })));
        assert_eq!(&arena.attach(second).unwrap()[..], b"bb");
        // Only one slot was ever used; the producer reference carried over.
        assert_eq!(arena.slots_in_use(), 1);
        assert!(arena.release(second));
    }

    #[test]
    fn lease_writes_in_place_without_copy() {
        let arena = ShmArena::create(temp_path("lease"), 2, 64).unwrap();
        let mut lease = arena.lease(5).unwrap();
        lease.bytes_mut().copy_from_slice(b"fresh");
        let h = lease.into_handle();
        assert_eq!(&arena.attach(h).unwrap()[..], b"fresh");
        // Recycle the published slot in place: generation bumps, old
        // handle goes stale, and the new lease writes the same slot body.
        let mut lease2 = arena.try_recycle_in_place(h, 6).unwrap();
        assert_eq!(lease2.handle().slot, h.slot);
        assert_ne!(lease2.handle().generation, h.generation);
        assert!(matches!(arena.attach(h), Err(ShmError::Stale { .. })));
        lease2.bytes_mut().copy_from_slice(b"second");
        let h2 = lease2.into_handle();
        assert_eq!(&arena.attach(h2).unwrap()[..], b"second");
        assert_eq!(arena.slots_in_use(), 1);
        assert!(arena.release(h2));
    }

    #[test]
    fn dropped_lease_frees_the_slot() {
        let arena = ShmArena::create(temp_path("lease-drop"), 2, 64).unwrap();
        let lease = arena.lease(8).unwrap();
        let h = lease.handle();
        assert_eq!(arena.slots_in_use(), 1);
        drop(lease); // abort path: never published
        assert_eq!(arena.slots_in_use(), 0);
        assert!(matches!(arena.attach(h), Err(ShmError::Stale { .. })));
    }

    #[test]
    fn recycle_in_place_refuses_while_reader_attached() {
        let arena = ShmArena::create(temp_path("lease-busy"), 2, 64).unwrap();
        let h = arena.alloc(b"shared").unwrap();
        let view = arena.attach(h).unwrap();
        assert!(matches!(
            arena.try_recycle_in_place(h, 4),
            Err(ShmError::Busy { refs: 2, .. })
        ));
        // The reader's bytes were never touched and the slot is still
        // owned by the original handle.
        assert_eq!(&view[..], b"shared");
        drop(view);
        let lease = arena.try_recycle_in_place(h, 4).unwrap();
        assert_eq!(lease.len(), 4);
    }

    #[test]
    fn recycle_rejects_stale_and_oversized() {
        let arena = ShmArena::create(temp_path("lease-err"), 2, 16).unwrap();
        let h = arena.alloc(b"x").unwrap();
        assert!(matches!(
            arena.try_recycle_in_place(h, 17),
            Err(ShmError::TooLarge { requested: 17, .. })
        ));
        // A refused recycle leaves the slot owned and readable.
        assert_eq!(&arena.attach(h).unwrap()[..], b"x");
        let mut lease = arena.try_recycle_in_place(h, 1).unwrap();
        lease.bytes_mut().copy_from_slice(b"y");
        let newer = lease.into_handle();
        assert!(matches!(
            arena.try_recycle_in_place(h, 1),
            Err(ShmError::Stale { .. })
        ));
        assert!(arena.release(newer));
        assert_eq!(arena.ref_count(newer), None);
        // A released slot's last handle is stale too.
        assert!(matches!(
            arena.try_recycle_in_place(newer, 1),
            Err(ShmError::Stale { .. })
        ));
    }

    #[test]
    fn recycle_in_place_rejects_a_slot_out_of_range() {
        let arena = ShmArena::create(temp_path("lease-range"), 2, 16).unwrap();
        let h = arena.alloc(b"x").unwrap();
        assert!(matches!(
            arena.try_recycle_in_place(ShmHandle { slot: 2, ..h }, 1),
            Err(ShmError::BadSlot(2))
        ));
        assert_eq!(arena.ref_count(h), Some(1));
    }

    #[test]
    fn handle_wire_round_trip() {
        let h = ShmHandle {
            slot: 7,
            generation: 0xDEAD_BEEF,
            len: 1 << 33,
        };
        assert_eq!(ShmHandle::decode(&h.encode()), Some(h));
        assert_eq!(ShmHandle::decode(&[0u8; 8]), None);
    }

    use std::sync::atomic::AtomicU64;
}
