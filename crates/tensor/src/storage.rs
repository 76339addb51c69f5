//! Refcounted byte storage with device placement.
//!
//! A [`Storage`] is the unit of sharing: tensors are views over an
//! `Arc<Storage>`, and the [`crate::SharedRegistry`] hands `Arc` clones to
//! consumers. The storage id plays the role of the device pointer that the
//! real TensorSocket extracts from PyTorch tensors (§3.2.4): unique for the
//! lifetime of the process, never reused.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ts_device::DeviceId;

static NEXT_STORAGE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique storage id.
pub fn fresh_storage_id() -> u64 {
    NEXT_STORAGE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Where a storage's bytes live.
enum Backing {
    /// Process-private heap buffer; `Some` until drop (`Option` only so
    /// `Drop` can move it into the reclaim hook).
    Owned(Option<Vec<u8>>),
    /// A pinned view into a cross-process shared-memory arena
    /// ([`ts_shm::ShmView`]): zero-copy, and the view's drop releases the
    /// consumer's slot reference. A storage built over a slot its maker
    /// leased and filled ([`Storage::from_leased_slot`]) also carries that
    /// lease — the slot's producer reference — until someone takes it.
    Shm(ts_shm::ShmView, Mutex<Option<ts_shm::ShmLease>>),
    /// A window of a buffer someone else allocated — a received wire
    /// frame: zero-copy, and the buffer lives until the last storage (or
    /// other `Bytes` clone) over it drops.
    Bytes(bytes::Bytes),
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Owned(_) => f.write_str("Owned"),
            Backing::Shm(..) => f.write_str("Shm"),
            Backing::Bytes(_) => f.write_str("Bytes"),
        }
    }
}

/// Where an owned buffer goes when the last reference drops — the hook
/// behind device slab recycling: a staged tensor's buffer returns to its
/// VRAM slab pool (`ts-staging`) the moment producer *and* consumers let
/// go, so the slab can be rewritten in place for the next batch.
struct Reclaim(Box<dyn FnOnce(Vec<u8>) + Send + Sync>);

impl std::fmt::Debug for Reclaim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reclaim")
    }
}

/// An immutable, refcounted byte buffer placed on a device.
///
/// Buffers are *write-once*: they are built as `Vec<u8>` and frozen on
/// construction. A storage built over a recycled buffer
/// ([`Storage::new_with_reclaim`]) hands it back to its owner when the
/// last reference drops. Storages rebuilt by a consumer in another OS
/// process wrap a shared-memory view ([`Storage::from_shm_view`]) or a
/// slice of a received frame ([`Storage::from_shared_bytes`]) instead —
/// same API, no copy — and a batch a loader decoded straight into a leased
/// arena slot is a view of that slot which also carries the lease
/// ([`Storage::from_leased_slot`]).
#[derive(Debug)]
pub struct Storage {
    id: u64,
    device: DeviceId,
    data: Backing,
    reclaim: Option<Reclaim>,
}

impl Storage {
    /// Freezes `data` into a storage on `device`.
    pub fn new(data: Vec<u8>, device: DeviceId) -> Self {
        Self {
            id: fresh_storage_id(),
            device,
            data: Backing::Owned(Some(data)),
            reclaim: None,
        }
    }

    /// Freezes a recycled buffer; when the last reference drops, the
    /// buffer is handed to `reclaim` instead of being deallocated.
    ///
    /// This is how device-staged tensors ride the VRAM slab rotation: the
    /// staging engine leases a slab, copies the batch in, and wires the
    /// hook to return the slab to its pool — so the buffer's round trip
    /// (lease → storage → consumers → pool) needs no further accounting
    /// calls on the hot path.
    pub fn new_with_reclaim(
        data: Vec<u8>,
        device: DeviceId,
        reclaim: Box<dyn FnOnce(Vec<u8>) + Send + Sync>,
    ) -> Self {
        Self {
            id: fresh_storage_id(),
            device,
            data: Backing::Owned(Some(data)),
            reclaim: Some(Reclaim(reclaim)),
        }
    }

    /// Wraps a shared-memory view as a storage carrying the *producer's*
    /// storage id, so a rebuilt tensor reports the same identity in both
    /// processes. The view's slot reference is held until the last
    /// `Arc<Storage>` clone drops.
    pub fn from_shm_view(id: u64, view: ts_shm::ShmView, device: DeviceId) -> Self {
        Self {
            id,
            device,
            data: Backing::Shm(view, Mutex::new(None)),
            reclaim: None,
        }
    }

    /// Wraps `view` — a view of the slot behind `lease`, attached after the
    /// slot was written completely — as a storage under a fresh id that
    /// **carries the lease**: the slot's producer reference travels with
    /// the tensor (through clones, channels and a `Batch`) until a publish
    /// step [`Storage::take_lease`]s it and registers the slot
    /// ([`crate::SharedRegistry::register_placed`]). A storage dropped with
    /// the lease still aboard frees the slot, exactly as dropping the pair
    /// [`crate::cat0_leased`] returns does.
    pub fn from_leased_slot(
        view: ts_shm::ShmView,
        lease: ts_shm::ShmLease,
        device: DeviceId,
    ) -> Self {
        Self {
            id: fresh_storage_id(),
            device,
            data: Backing::Shm(view, Mutex::new(Some(lease))),
            reclaim: None,
        }
    }

    /// Takes the lease this storage carries, if it still carries one and
    /// the leased slot lives in `arena` (a lease of some other arena means
    /// nothing to the caller's pool and stays aboard). At most one caller
    /// ever gets it.
    pub fn take_lease(&self, arena: &Arc<ts_shm::ShmArena>) -> Option<ts_shm::ShmLease> {
        let Backing::Shm(_, lease) = &self.data else {
            return None;
        };
        let mut lease = lease.lock();
        match &*lease {
            Some(l) if Arc::ptr_eq(l.arena(), arena) => lease.take(),
            _ => None,
        }
    }

    /// Wraps a reference-counted byte slice as a storage under a fresh id,
    /// without copying it.
    pub fn from_shared_bytes(data: bytes::Bytes, device: DeviceId) -> Self {
        Self {
            id: fresh_storage_id(),
            device,
            data: Backing::Bytes(data),
            reclaim: None,
        }
    }

    /// Process-unique identifier (the "pointer" shared in payloads).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Placement of the buffer.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// True when the bytes live in a shared-memory arena rather than this
    /// process's heap.
    pub fn is_shared_memory(&self) -> bool {
        matches!(self.data, Backing::Shm(..))
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            Backing::Owned(d) => d.as_deref().expect("storage data present until drop"),
            Backing::Shm(view, _) => view,
            Backing::Bytes(data) => data,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        if let (Some(Reclaim(hook)), Backing::Owned(data)) = (self.reclaim.take(), &mut self.data) {
            if let Some(data) = data.take() {
                hook(data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = Storage::new(vec![0u8; 4], DeviceId::Cpu);
        let b = Storage::new(vec![0u8; 4], DeviceId::Cpu);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn holds_bytes_and_device() {
        let s = Storage::new(vec![1, 2, 3], DeviceId::Gpu(1));
        assert_eq!(s.bytes(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.device(), DeviceId::Gpu(1));
    }

    #[test]
    fn reclaim_hook_receives_the_buffer_on_last_drop() {
        let returned: Arc<parking_lot::Mutex<Option<Vec<u8>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let sink = returned.clone();
        let s = Arc::new(Storage::new_with_reclaim(
            vec![7, 8, 9],
            DeviceId::Gpu(0),
            Box::new(move |buf| *sink.lock() = Some(buf)),
        ));
        let clone = s.clone();
        drop(s);
        assert!(
            returned.lock().is_none(),
            "live references keep the buffer out of the hook"
        );
        drop(clone);
        assert_eq!(returned.lock().take().unwrap(), vec![7, 8, 9]);
    }
}
