//! The doorbell of a [`crate::PullSocket`]: how anything that is not one of
//! its connections wakes the thread that waits on it.
//!
//! The owner of a pull socket blocks in one place,
//! [`crate::PullSocket::wait`]. Its pushers wake it by sending; whoever
//! else has something for it — a helper thread that filled a queue of its
//! own, a handle asking it to stop — enqueues first and then rings the
//! [`Bell`]. Latest-wins: any number of rings before the owner looks
//! collapse into one wake-up.
//!
//! A ring costs a system call only when the owner is actually asleep. Two
//! flags decide, both `SeqCst`: the ringer stores `rung` and then reads
//! `sleeping`, the owner stores `sleeping` and then reads `rung`, so at
//! least one of them sees the other — a ring between the owner's last look
//! and its sleep either keeps it from sleeping or wakes it, and a ring
//! while it is awake is two stores and nothing else.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A handle that wakes the owner of the [`crate::PullSocket`] it came from
/// ([`crate::PullSocket::bell`]). Cheap to clone; ring it *after* making
/// whatever the owner should find visible.
#[derive(Clone)]
pub struct Bell(Arc<Inner>);

struct Inner {
    /// The owner is in, or about to enter, its blocking call.
    sleeping: AtomicBool,
    /// Somebody rang since the owner last woke.
    rung: AtomicBool,
    waker: Waker,
}

enum Waker {
    /// `inproc://`: the owner parks; it leaves its handle here before it
    /// first sleeps.
    Thread(parking_lot::Mutex<Option<std::thread::Thread>>),
    /// `ipc://`, `tcp://`: the owner polls `rx` next to its connections; a
    /// ring that finds it asleep writes one byte to `tx`. Both ends are
    /// non-blocking and nobody else holds them.
    Fd { tx: UnixStream, rx: UnixStream },
}

impl std::fmt::Debug for Bell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bell").finish_non_exhaustive()
    }
}

impl Bell {
    /// A bell for an owner that parks.
    pub(crate) fn for_thread() -> Self {
        Self::new(Waker::Thread(parking_lot::Mutex::new(None)))
    }

    /// A bell for an owner that polls.
    pub(crate) fn for_poll() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self::new(Waker::Fd { tx, rx }))
    }

    fn new(waker: Waker) -> Self {
        Self(Arc::new(Inner {
            sleeping: AtomicBool::new(false),
            rung: AtomicBool::new(false),
            waker,
        }))
    }

    /// Wakes the owner if it sleeps; otherwise makes its next
    /// [`crate::PullSocket::wait`] return at once. Never blocks.
    pub fn ring(&self) {
        self.0.rung.store(true, Ordering::SeqCst);
        // `swap`: of the ringers that find one sleep, one pays for the
        // wake-up.
        if self.0.sleeping.swap(false, Ordering::SeqCst) {
            match &self.0.waker {
                Waker::Thread(owner) => {
                    if let Some(owner) = &*owner.lock() {
                        owner.unpark();
                    }
                }
                // A full pipe already holds more wake-ups than anyone
                // will read.
                Waker::Fd { tx, .. } => drop((&*tx).write(&[1])),
            }
        }
    }

    /// The owner's side: runs `block` — its blocking call, which must
    /// return when the bell's descriptor turns readable or the thread is
    /// unparked — unless somebody rang since the last call returned.
    pub(crate) fn sleep(&self, block: impl FnOnce()) {
        if let Waker::Thread(owner) = &self.0.waker {
            *owner.lock() = Some(std::thread::current());
        }
        self.0.sleeping.store(true, Ordering::SeqCst);
        if !self.0.rung.swap(false, Ordering::SeqCst) {
            block();
        }
        self.0.sleeping.store(false, Ordering::SeqCst);
        // The caller looks at every queue after this; a ring up to here
        // asked for nothing more.
        self.0.rung.store(false, Ordering::SeqCst);
    }

    /// The descriptor to poll with the connections, for a polling owner.
    pub(crate) fn fd(&self) -> Option<RawFd> {
        match &self.0.waker {
            Waker::Thread(_) => None,
            Waker::Fd { rx, .. } => Some(rx.as_raw_fd()),
        }
    }

    /// Empties the descriptor once poll reported it readable.
    pub(crate) fn drain(&self) {
        if let Waker::Fd { rx, .. } = &self.0.waker {
            let mut sink = [0u8; 64];
            while matches!((&*rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{poll_readable, PollFd};
    use std::time::Duration;

    fn in_the_kernel(bell: &Bell) -> bool {
        let mut fds = [PollFd::readable(bell.fd().unwrap())];
        poll_readable(&mut fds, Some(Duration::ZERO)).unwrap();
        fds[0].is_ready()
    }

    #[test]
    fn a_ring_costs_a_write_only_when_the_owner_sleeps() {
        let bell = Bell::for_poll().unwrap();
        // Awake: any number of rings are stores, and the next sleep is
        // skipped — once.
        bell.ring();
        bell.ring();
        assert!(!in_the_kernel(&bell));
        bell.sleep(|| panic!("slept through a ring"));
        let mut slept = false;
        bell.sleep(|| slept = true);
        assert!(slept, "one skipped sleep per look, not one per ring");
        // Asleep (the closure stands for the owner's `poll`): the first
        // ring writes, the rest find nobody sleeping.
        bell.sleep(|| {
            assert!(!in_the_kernel(&bell));
            bell.ring();
            assert!(in_the_kernel(&bell));
            bell.ring();
        });
        bell.drain();
        assert!(!in_the_kernel(&bell), "one byte for both rings");
        // Woken and looking: the ring that woke it asks for nothing more.
        let mut slept = false;
        bell.sleep(|| slept = true);
        assert!(slept);
    }
}
