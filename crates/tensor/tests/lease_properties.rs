//! Property tests of the zero-copy lease lifetime: a slot that is leased,
//! collated into, published and possibly republished across an epoch
//! boundary while rubberband-pinned is released exactly once — never
//! while any registration or consumer pin is live, and never leaked.
//!
//! Companion to `ts-shm`'s `arena_properties` suite: that one checks the
//! raw slot protocol (generations, refcounts), this one checks the layer
//! above — [`SlotPool`] leases, [`cat0_leased`] placement, the lease a
//! [`BatchBuf`]-built tensor's storage carries (taken at most once, freed
//! by `Drop` when nobody takes it) and the [`SharedRegistry`]'s refcounted
//! adoption of placed handles.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use ts_device::DeviceId;
use ts_shm::{ShmArena, ShmError, ShmView};
use ts_tensor::{cat0_leased, BatchBuf, SharedRegistry, SlotPool, Tensor, TensorError};

fn temp_arena(nslots: usize, slot_size: usize) -> std::sync::Arc<ShmArena> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ts-tensor-lease-prop-{}-{}.arena",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    ShmArena::create(path, nslots, slot_size).unwrap()
}

/// Deterministic, distinctive content for the `k`-th publication.
fn content_f32(k: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (k.wrapping_mul(31).wrapping_add(i as u64) % 251) as f32)
        .collect()
}

/// One published batch the model tracks: the producer-side tensor, its
/// registry id, the bytes it must keep reading, and how many live
/// registrations (initial publish + epoch republishes) it has.
struct Live {
    tensor: Tensor,
    id: u64,
    bytes: Vec<u8>,
    refs: u64,
}

/// Builds `src` as a one-row batch straight into a slot of `pool`; `None`
/// when the pool was dry and the batch went to the heap.
fn built_in_place(src: &Tensor, pool: &SlotPool) -> Option<Tensor> {
    let sample = std::slice::from_ref(src);
    let mut buf = BatchBuf::like(1, sample, Some(pool)).unwrap();
    buf.push(sample).unwrap();
    buf.is_leased()
        .then(|| buf.freeze().unwrap()[0].select(0, 0).unwrap())
}

proptest! {
    /// Model-checked lease lifetime. Ops: 0 = lease+collate+publish (odd
    /// lengths: built in place, the lease carried by the storage and taken
    /// at publish), 5 = build in place and drop unpublished,
    /// 1 = republish the same storage across an epoch boundary (duplicate
    /// registration must refcount, not double-place), 2 = consumer pin
    /// (attach the published handle and hold the view), 3 = release one
    /// registration, 4 = attach-and-verify a live publication.
    #[test]
    fn lease_released_exactly_once_and_never_while_pinned(
        nslots in 2usize..8,
        ops in prop::collection::vec((0u8..6, 0usize..32, 1usize..12), 1..100)
    ) {
        let arena = temp_arena(nslots, 64);
        let pool = SlotPool::new(arena.clone(), nslots);
        let registry = SharedRegistry::new();
        registry.bind_shard_slot_pool(0, pool.clone());
        let mut live: Vec<Live> = Vec::new();
        let mut pins: Vec<(ShmView, Vec<u8>)> = Vec::new();
        let mut counter = 0u64;
        for (op, pick, len) in ops {
            match op {
                0 => {
                    counter += 1;
                    let values = content_f32(counter, len);
                    let src = Tensor::from_f32(&values, &[len], DeviceId::Cpu).unwrap();
                    let expected = src.gather_bytes();
                    let placed = if len % 2 == 1 {
                        // The loader's path: the storage carries the lease
                        // until the publish step takes it — once.
                        built_in_place(&src, &pool)
                            .map(|tensor| {
                                let lease = tensor.storage().take_lease(&arena);
                                prop_assert!(tensor.storage().take_lease(&arena).is_none());
                                Ok((tensor, lease.expect("carried until taken")))
                            })
                            .unwrap_or(Err(TensorError::Arena(ShmError::Full)))
                    } else {
                        cat0_leased(&[src], &pool, DeviceId::Cpu)
                    };
                    match placed {
                        Ok((tensor, lease)) => {
                            // The collate wrote into the leased slot: the
                            // published tensor reads the source bytes.
                            prop_assert_eq!(tensor.gather_bytes(), expected.clone());
                            let id = tensor.storage_id();
                            registry.register_placed(tensor.storage(), lease.into_handle(), 0);
                            prop_assert!(registry.shm_handle(id).is_some());
                            live.push(Live { tensor, id, bytes: expected, refs: 1 });
                        }
                        // Arena full: every slot is held by a live
                        // publication or a consumer pin. Legal — the
                        // runtime's feeder waits for a slot here.
                        Err(TensorError::Arena(ts_shm::ShmError::Full)) => {}
                        Err(e) => prop_assert!(false, "unexpected collate error {e:?}"),
                    }
                }
                1 if !live.is_empty() => {
                    // Epoch republish: the same storage registered again
                    // with a freshly leased slot. The registry must bump
                    // the refcount and reclaim the redundant slot — not
                    // grow the table or orphan the first placement.
                    let idx = pick % live.len();
                    let e = &mut live[idx];
                    match pool.lease(e.bytes.len()) {
                        Ok(lease) => {
                            let before = registry.len();
                            registry.register_placed(e.tensor.storage(), lease.into_handle(), 0);
                            e.refs += 1;
                            prop_assert_eq!(registry.len(), before);
                            prop_assert!(registry.shm_handle(e.id).is_some());
                            prop_assert_eq!(e.tensor.gather_bytes(), e.bytes.clone());
                        }
                        Err(ShmError::Full) => {}
                        Err(err) => prop_assert!(false, "unexpected lease error {err:?}"),
                    }
                }
                2 if !live.is_empty() => {
                    let e = &live[pick % live.len()];
                    let handle = registry.shm_handle(e.id).unwrap();
                    let view = arena.attach(handle).unwrap();
                    prop_assert_eq!(&view[..], e.bytes.as_slice());
                    pins.push((view, e.bytes.clone()));
                }
                3 if !live.is_empty() => {
                    let idx = pick % live.len();
                    prop_assert!(registry.release(live[idx].id), "live registration releases");
                    if live[idx].refs > 1 {
                        // One registration down, others still live: the
                        // storage must stay resolvable and placed.
                        live[idx].refs -= 1;
                        prop_assert!(registry.lookup(live[idx].id).is_ok());
                        prop_assert!(registry.shm_handle(live[idx].id).is_some());
                        prop_assert_eq!(live[idx].tensor.gather_bytes(), live[idx].bytes.clone());
                    } else {
                        let e = live.remove(idx);
                        prop_assert!(registry.lookup(e.id).is_err());
                        prop_assert!(registry.shm_handle(e.id).is_none());
                        // Exactly once: a second release is a no-op.
                        prop_assert!(!registry.release(e.id));
                    }
                }
                5 => {
                    // A batch abandoned before publish (epoch abort, a
                    // producer map that replaced it): dropping the last
                    // clone frees the slot, with nothing else to call.
                    let src = Tensor::from_f32(&content_f32(pick as u64, len), &[len], DeviceId::Cpu).unwrap();
                    let in_use = arena.slots_in_use();
                    if let Some(tensor) = built_in_place(&src, &pool) {
                        let clone = tensor.clone();
                        drop(tensor);
                        prop_assert_eq!(clone.gather_bytes(), src.gather_bytes());
                        drop(clone);
                        // (One fewer when the lease rewrote a slot the pool
                        // had idle: a dropped lease goes to the arena.)
                        prop_assert!(arena.slots_in_use() <= in_use);
                    }
                }
                4 if !live.is_empty() => {
                    let e = &live[pick % live.len()];
                    prop_assert_eq!(e.tensor.gather_bytes(), e.bytes.clone());
                    let view = arena.attach(registry.shm_handle(e.id).unwrap()).unwrap();
                    prop_assert_eq!(&view[..], e.bytes.as_slice());
                }
                _ => {}
            }
        }
        // Drain the model: every remaining registration releases exactly
        // `refs` times, staying live until the last one.
        for e in live {
            for remaining in (1..=e.refs).rev() {
                prop_assert!(registry.lookup(e.id).is_ok());
                prop_assert!(registry.release(e.id));
                if remaining > 1 {
                    prop_assert!(registry.shm_handle(e.id).is_some());
                }
            }
            prop_assert!(!registry.release(e.id));
            // The producer-side tensor still reads its bytes: the storage
            // holds its own attach reference independent of the registry.
            prop_assert_eq!(e.tensor.gather_bytes(), e.bytes);
        }
        prop_assert!(registry.is_empty());
        // Consumer pins outlive every release: attach references keep the
        // bytes stable until the views drop.
        for (view, bytes) in &pins {
            prop_assert_eq!(&view[..], bytes.as_slice());
        }
        drop(pins);
        pool.drain();
        prop_assert_eq!(arena.slots_in_use(), 0, "no slot leaks, no double frees");
    }
}

/// The satellite scenario, directed: leased → published → consumer-pinned
/// → republished across the epoch boundary → released once per
/// registration — the slot frees exactly once, after the last release,
/// and the pin keeps reading its bytes throughout.
#[test]
fn republished_pinned_slot_frees_exactly_once() {
    let arena = temp_arena(4, 64);
    let pool = SlotPool::new(arena.clone(), 4);
    let registry = SharedRegistry::new();
    registry.bind_shard_slot_pool(0, pool.clone());

    let values = content_f32(7, 8);
    let src = Tensor::from_f32(&values, &[8], DeviceId::Cpu).unwrap();
    let expected = src.gather_bytes();
    let (tensor, lease) = cat0_leased(&[src], &pool, DeviceId::Cpu).unwrap();
    let id = tensor.storage_id();
    registry.register_placed(tensor.storage(), lease.into_handle(), 0);

    // Rubberband pin: a consumer attaches the published handle.
    let pin = arena.attach(registry.shm_handle(id).unwrap()).unwrap();
    assert_eq!(&pin[..], expected.as_slice());

    // Epoch boundary: the same storage republished with a fresh lease.
    let lease2 = pool.lease(expected.len()).unwrap();
    registry.register_placed(tensor.storage(), lease2.into_handle(), 0);
    assert_eq!(
        registry.len(),
        1,
        "republish refcounts, it does not duplicate"
    );

    // First release: the earlier epoch's registration retires, but the
    // republished one keeps the storage live and resolvable.
    assert!(registry.release(id));
    assert!(registry.lookup(id).is_ok());
    assert!(registry.shm_handle(id).is_some());
    assert_eq!(tensor.gather_bytes(), expected);

    // Last release: now the registration goes away — exactly once.
    assert!(registry.release(id));
    assert!(registry.lookup(id).is_err());
    assert!(!registry.release(id));

    // The pin still reads the published bytes after every release.
    assert_eq!(&pin[..], expected.as_slice());
    drop(pin);
    drop(tensor);
    pool.drain();
    assert_eq!(arena.slots_in_use(), 0);
}
