//! PUSH/PULL: many-to-one fan-in, used for ACKs, heartbeats and joins,
//! over the stream transport ([`crate::transport`]) whatever the scheme.
//!
//! The puller binds, accepts many pushers and reads them all **on the
//! thread that owns it**: listener, connections and the socket's
//! [`Bell`] are one poll set, a connection that turns readable is read
//! once into its own `wire::Decoder`, and whole messages land in a local
//! queue in the order the connections were visited — round-robin, so one
//! chatty pusher cannot starve another. No thread is woken to hand a
//! message to another thread. What the owner has not read waits in the
//! kernel's socket buffer and, behind that, in the pushers' own queues:
//! once `hwm` messages are decoded and untaken, nothing more is read.
//!
//! A pusher writes a small message itself (`Outbox::send_staged`); a
//! bounded queue drained by a writer thread takes bulk frames and whatever
//! the kernel would not, so `send` applies HWM backpressure and `try_send`
//! reports `Full` once that queue is full. A pusher that connects before
//! the puller binds simply buffers — the same thread is its connector and
//! retries in the background.

use crate::bell::Bell;
use crate::endpoint::Context;
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::{
    check_frames, linger, poll_readable, Addr, AnyListener, AnyStream, Outbox, PollFd, Queued,
    TransportStats, CONNECT_RETRY_FOR, WRITER_IDLE_TICK,
};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::io;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One accepted pusher. The stream is non-blocking and nobody else holds
/// it.
struct PullConn {
    stream: AnyStream,
    decoder: wire::Decoder,
}

struct PullState {
    listener: AnyListener,
    /// False once `accept` failed for good; with no connection left either,
    /// the socket reads as closed.
    accepting: bool,
    conns: Vec<PullConn>,
    /// Decoded and not yet taken.
    ready: VecDeque<Multipart>,
    /// Nothing more is read while this many are ready.
    hwm: usize,
    bell: Bell,
    /// The poll set, rebuilt per sweep: the bell, the listener, then
    /// `conns` in order.
    fds: Vec<PollFd>,
    /// Which connection the next sweep visits first.
    turn: usize,
}

/// The receiving side of a PUSH/PULL endpoint. One binder per endpoint,
/// and one thread at a time receiving on it: that thread reads the
/// connections itself.
pub struct PullSocket {
    endpoint: String,
    bell: Bell,
    /// One owner at a time; the lock is held across the blocking `poll`.
    state: parking_lot::Mutex<PullState>,
}

impl std::fmt::Debug for PullSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PullSocket")
            .field("endpoint", &self.endpoint())
            .field("queued", &self.queued())
            .finish()
    }
}

impl PullSocket {
    /// Binds the receiver. Pushers may have connected first; anything they
    /// already queued is delivered.
    pub fn bind(ctx: &Context, name: &str) -> Result<Self, SendError> {
        let listener = AnyListener::bind(&ctx.resolve(name)?, name)?;
        let endpoint = listener.local_endpoint(name);
        let bell = Bell::new().map_err(|e| SendError::Io(format!("doorbell: {e}")))?;
        Ok(PullSocket {
            endpoint,
            bell: bell.clone(),
            state: parking_lot::Mutex::new(PullState {
                listener,
                accepting: true,
                conns: Vec::new(),
                ready: VecDeque::new(),
                hwm: ctx.hwm(),
                bell,
                fds: Vec::new(),
                turn: 0,
            }),
        })
    }

    /// Sleeps until one of `pulls` has a message to receive, one of their
    /// [`Bell`]s is rung, or `timeout` has passed — whichever comes first —
    /// and returns at once when a message is already there. Returns the
    /// index of a socket with a message (or closed: its
    /// [`PullSocket::try_recv`] says so), `None` when there is none: the
    /// time ran out or a bell rang. Look at whatever the bells stand for,
    /// take with `try_recv`, then wait again.
    ///
    /// This is the one blocking call of an owner that serves several
    /// sources: each `poll` spans every socket's listener, connections and
    /// bell, with the timeout at nanosecond resolution. A pusher that
    /// connects or half a message ends a poll, not the wait. The twin of
    /// [`crate::SubSocket::wait`].
    pub fn wait(pulls: &[&PullSocket], timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut states: Vec<_> = pulls.iter().map(|p| p.state.lock()).collect();
        let mut fds = Vec::new();
        let mut looked = false;
        loop {
            let taken = |s: &PullState| !s.ready.is_empty() || s.closed();
            if let Some(i) = states.iter().position(|s| taken(s)) {
                return Some(i);
            }
            // Looks at every socket at least once, whatever the timeout.
            let left = deadline.saturating_duration_since(Instant::now());
            if looked && left.is_zero() {
                return None;
            }
            looked = true;
            if sweep(&mut states, &mut fds, left) {
                return None;
            }
        }
    }

    /// The socket's doorbell: a handle any thread can ring to make the
    /// owner's current or next [`PullSocket::wait`] return. Ring it
    /// *after* putting whatever the owner should find where it will look.
    /// Ringing an owner that is awake is two atomic stores; only a
    /// sleeping one costs a system call (a one-byte `write`).
    pub fn bell(&self) -> Bell {
        self.bell.clone()
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Multipart, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            // Looks at the sockets at least once, whatever the timeout; a
            // ring or half a message ends a sweep early, not the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            state.sweep(left);
            match state.ready.pop_front() {
                Some(msg) => return Ok(msg),
                None if state.closed() => return Err(RecvError::Closed),
                None if left.is_zero() => return Err(RecvError::Timeout),
                None => {}
            }
        }
    }

    /// Non-blocking receive; `Ok(None)` when nothing has arrived.
    pub fn try_recv(&self) -> Result<Option<Multipart>, RecvError> {
        let mut state = self.state.lock();
        state.sweep(Duration::ZERO);
        match state.ready.pop_front() {
            Some(msg) => Ok(Some(msg)),
            None if state.closed() => Err(RecvError::Closed),
            None => Ok(None),
        }
    }

    /// Drains everything that has arrived.
    pub fn drain(&self) -> Vec<Multipart> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Messages received and not yet taken: what the owner has read off
    /// its connections; more may sit in the kernel's socket buffers.
    pub fn queued(&self) -> usize {
        self.state.lock().ready.len()
    }

    /// The endpoint this socket is bound to. For `tcp://host:0` binds this
    /// is the resolved address with the real port.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }
}

impl PullState {
    fn closed(&self) -> bool {
        !self.accepting && self.conns.is_empty() && self.ready.is_empty()
    }

    /// [`sweep`] over this socket alone, with its own poll-set buffer.
    fn sweep(&mut self, timeout: Duration) {
        let mut fds = std::mem::take(&mut self.fds);
        sweep(&mut [&mut *self], &mut fds, timeout);
        self.fds = fds;
    }

    /// This socket's part of a poll set: the bell, the listener, then
    /// `conns` in order.
    fn poll_set(&self, fds: &mut Vec<PollFd>) {
        fds.push(PollFd::readable(self.bell.fd()));
        // A listener that cannot accept any more would read as ready for
        // ever; a negative descriptor is an entry `poll` skips.
        fds.push(match self.accepting {
            true => self.listener.poll_fd(),
            false => PollFd::readable(-1),
        });
        fds.extend(self.conns.iter().map(|c| c.stream.poll_fd()));
    }

    /// Takes what `fds` — this socket's part of the poll set, as
    /// [`PullState::poll_set`] laid it out — found: one `accept` round and
    /// one `read` per connection that has something.
    fn take(&mut self, fds: &[PollFd]) {
        if fds[0].is_ready() {
            self.bell.drain();
        }
        // Connections accepted now are not in this poll set; they are read
        // from the next sweep on.
        let polled = self.conns.len();
        if fds[1].is_ready() {
            self.accept_pending();
        }
        let mut dead = Vec::new();
        for k in 0..polled {
            let i = (self.turn + k) % polled;
            if !fds[2 + i].is_ready() {
                continue;
            }
            if self.ready.len() >= self.hwm {
                break;
            }
            if !self.conns[i].read_into(&mut self.ready) {
                dead.push(i);
            }
        }
        self.turn = self.turn.wrapping_add(1);
        // Close and forget departed pushers so a long-lived puller does
        // not accumulate dead fds.
        dead.sort_unstable();
        for i in dead.into_iter().rev() {
            self.conns.remove(i).stream.shutdown();
        }
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(Some(stream)) => {
                    if stream.set_nonblocking().is_ok() {
                        let decoder = wire::Decoder::new();
                        self.conns.push(PullConn { stream, decoder });
                    }
                }
                Ok(None) => return,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(_) => {
                    self.accepting = false;
                    return;
                }
            }
        }
    }
}

/// Unless a message is ready already: one `poll` over every socket in
/// `states` — their listeners, connections and bells, laid out in `fds` —
/// for at most `timeout`, then what each found is taken. True when one of
/// the bells rang.
fn sweep<S>(states: &mut [S], fds: &mut Vec<PollFd>, timeout: Duration) -> bool
where
    S: DerefMut<Target = PullState>,
{
    if states.iter().any(|s| !s.ready.is_empty()) {
        return false;
    }
    fds.clear();
    for state in states.iter() {
        state.poll_set(fds);
    }
    let mut polled = Ok(());
    let rung = if timeout.is_zero() {
        // Just looking: the owner is not going to sleep, so a ringer has
        // nobody to wake.
        polled = poll_readable(fds, Some(timeout));
        false
    } else {
        let bells = states.iter().map(|s| &s.bell);
        Bell::sleep(bells, || polled = poll_readable(fds, Some(timeout)))
    };
    if polled.is_err() {
        // `ENOMEM`, say: nothing is ready that we know of, and the
        // caller's loop must not spin on it.
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        return rung;
    }
    let mut at = 0;
    for state in states.iter_mut() {
        let len = 2 + state.conns.len();
        state.take(&fds[at..at + len]);
        at += len;
    }
    rung
}

impl PullConn {
    /// One read and whatever whole messages it completed; false once the
    /// connection is finished (end of stream, an error, malformed framing).
    fn read_into(&mut self, ready: &mut VecDeque<Multipart>) -> bool {
        match self.decoder.fill(&mut self.stream) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return true,
            Err(_) => return false,
        }
        loop {
            match self.decoder.next() {
                Ok(Some(msg)) => ready.extend(msg.into_payload()),
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }
}

impl Drop for PullSocket {
    fn drop(&mut self) {
        for conn in self.state.get_mut().conns.drain(..) {
            conn.stream.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// push side
// ---------------------------------------------------------------------------

struct PushShared {
    stop: AtomicBool,
    /// The writer holds a connection and is still writing.
    connected: AtomicBool,
    out: Outbox,
}

/// The sending side of a PUSH/PULL endpoint. Many pushers may connect, and
/// many threads may share one pusher: each message arrives whole, and one
/// thread's messages in the order it sent them.
pub struct PushSocket {
    tx: Sender<Queued>,
    shared: Arc<PushShared>,
}

impl std::fmt::Debug for PushSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PushSocket").finish_non_exhaustive()
    }
}

impl PushSocket {
    /// Connects a pusher. A Unix-domain puller that is already bound is
    /// connected to before this returns; otherwise the connect retries in
    /// the background until the puller binds, and messages queue locally
    /// meanwhile.
    ///
    /// # Panics
    /// Panics if the endpoint name is malformed (wiring bug).
    pub fn connect(ctx: &Context, name: &str) -> Self {
        let addr = ctx
            .resolve(name)
            .unwrap_or_else(|e| panic!("invalid endpoint {name}: {e}"));
        let (tx, rx) = channel::bounded(ctx.hwm());
        let connected = AnyStream::connect_now(&addr)
            .and_then(|stream| Some((stream.try_clone().ok()?, stream)));
        let (closer, stream) = connected.unzip();
        let shared = Arc::new(PushShared {
            stop: AtomicBool::new(false),
            connected: AtomicBool::new(stream.is_some()),
            out: Outbox::new(stream, Arc::default()),
        });
        let writer_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-push-writer".into())
            .spawn(move || push_writer(addr, closer, writer_shared, rx))
            .expect("spawn push writer");
        PushSocket { tx, shared }
    }

    /// How this socket's messages reached the wire so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.out.stats()
    }

    fn send_by(&self, msg: Multipart, block: bool) -> Result<(), SendError> {
        check_frames(&[], &msg)?;
        let out = &self.shared.out;
        let staged = wire::staged_whole(wire::KIND_DATA, None, msg.frames(), msg.is_chunked());
        let sent = match staged {
            Some(staged) => out.send_staged(&self.tx, &Bytes::from(staged), block),
            None => out.enqueue(&self.tx, Queued::Bulk(None, msg), block),
        };
        sent.map_err(|e| match e {
            TrySendError::Full(_) => SendError::Full,
            TrySendError::Disconnected(_) => SendError::Disconnected,
        })
    }

    /// Sends a message, blocking while the queue is full — with no lock
    /// held: only this sender waits.
    pub fn send(&self, msg: Multipart) -> Result<(), SendError> {
        self.send_by(msg, true)
    }

    /// Non-blocking send.
    pub fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        self.send_by(msg, false)
    }
}

impl Drop for PushSocket {
    fn drop(&mut self) {
        // Let a connected writer put what is already queued on the wire (a
        // consumer's last ack and its LEAVE, say); one that never connected,
        // or lost its peer, has nothing to wait for.
        let s = &self.shared;
        linger(|| s.connected.load(Ordering::SeqCst) && s.out.backlog.pending());
        // Abort a pending connect; a live writer sees the sender side
        // close, finds the queue empty and exits.
        s.stop.store(true, Ordering::SeqCst);
    }
}

/// Connects unless `connect` already did (`closer`: a handle on that
/// connection), then writes what the senders queue.
fn push_writer(
    addr: Addr,
    closer: Option<AnyStream>,
    shared: Arc<PushShared>,
    rx: Receiver<Queued>,
) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let closer = match closer {
        Some(closer) => closer,
        None => {
            let stream = match AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up) {
                Ok(s) => s,
                Err(_) => return, // rx drops: senders observe Disconnected
            };
            let Ok(closer) = stream.try_clone() else {
                return;
            };
            // What queued up while there was no connection goes first:
            // senders find the backlog pending and stay behind it.
            shared.out.connected(stream);
            shared.connected.store(true, Ordering::SeqCst);
            closer
        }
    };
    loop {
        let item = match rx.recv_timeout(WRITER_IDLE_TICK) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => Queued::Nudge,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if shared.out.write(&item).is_err() {
            break; // peer gone: rx drops, senders observe Disconnected
        }
    }
    shared.connected.store(false, Ordering::SeqCst);
    closer.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Instant;

    const RECV: Duration = Duration::from_secs(10);

    fn msg(s: &'static [u8]) -> Multipart {
        Multipart::single(Bytes::from_static(s))
    }

    #[test]
    fn many_pushers_one_puller() {
        let ctx = Context::new();
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let p1 = PushSocket::connect(&ctx, "inproc://acks");
        let p2 = PushSocket::connect(&ctx, "inproc://acks");
        p1.send(msg(b"a")).unwrap();
        p2.send(msg(b"b")).unwrap();
        let mut got: Vec<Vec<u8>> = (0..2)
            .map(|_| pull.recv_timeout(RECV).unwrap().frames()[0].to_vec())
            .collect();
        got.sort();
        assert_eq!(got, [b"a", b"b"]);
        assert!(pull.drain().is_empty());
    }

    #[test]
    fn connect_before_bind_preserves_messages() {
        let ctx = Context::new();
        let push = PushSocket::connect(&ctx, "inproc://acks");
        push.send(msg(b"early")).unwrap();
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let m = pull.recv_timeout(RECV).unwrap();
        assert_eq!(&m.frames()[0][..], b"early");
    }

    #[test]
    fn double_bind_rejected() {
        let ctx = Context::new();
        let _pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        assert!(PullSocket::bind(&ctx, "inproc://acks").is_err());
    }

    #[test]
    fn push_to_dropped_puller_errors() {
        let ctx = Context::new();
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let push = PushSocket::connect(&ctx, "inproc://acks");
        push.send(msg(b"connected")).unwrap();
        pull.recv_timeout(RECV).unwrap();
        drop(pull);
        // The pusher finds out from its connection: at the latest when the
        // writer it queued behind fails.
        let deadline = Instant::now() + RECV;
        loop {
            match push.send(msg(b"x")) {
                Err(e) => break assert_eq!(e, SendError::Disconnected),
                Ok(()) => assert!(Instant::now() < deadline, "never disconnected"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn try_send_reports_full() {
        let ctx = Context::with_hwm(1);
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let push = PushSocket::connect(&ctx, "inproc://acks");
        // Nobody reads: once the socket buffers and the one-deep queue are
        // full, a non-blocking send says so.
        let big = Multipart::single(Bytes::from(vec![3u8; 1 << 20]));
        let full = (0..64).find_map(|_| push.try_send(big.clone()).err());
        assert_eq!(full, Some(SendError::Full));
        // The puller goes first, so the pusher has nobody to linger for.
        drop(pull);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let ctx = Context::new();
        let _p = crate::PubSocket::bind(&ctx, "inproc://x").unwrap();
        assert!(PullSocket::bind(&ctx, "inproc://x").is_err());
    }
    #[test]
    fn wait_returns_for_a_message_a_ring_or_the_timeout_on_both_transports() {
        use std::time::Instant;
        let ctx = Context::new();
        let path = std::env::temp_dir().join(format!("ts-wait-{}.sock", std::process::id()));
        let long = Duration::from_secs(20);
        for name in [
            "inproc://rung".to_string(),
            format!("ipc://{}", path.display()),
        ] {
            // A pusher that connected before the puller existed wakes it too.
            let early = PushSocket::connect(&ctx, &name);
            let pull = PullSocket::bind(&ctx, &name).unwrap();
            let started = Instant::now();
            assert_eq!(PullSocket::wait(&[&pull], Duration::from_millis(20)), None);
            assert!(pull.try_recv().unwrap().is_none());
            std::thread::scope(|s| {
                s.spawn(|| early.send(msg(b"a")).unwrap());
                while PullSocket::wait(&[&pull], long).is_none() {}
            });
            assert!(pull.try_recv().unwrap().is_some());
            // Rung while awake: the next wait does not sleep.
            pull.bell().ring();
            assert_eq!(PullSocket::wait(&[&pull], long), None);
            // Rung while asleep.
            let bell = pull.bell();
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    bell.ring();
                });
                assert_eq!(PullSocket::wait(&[&pull], long), None);
            });
            assert!(started.elapsed() < long, "{name}: a wake-up was lost");
        }
    }

    #[test]
    fn one_wait_over_two_sockets_ends_for_either_ones_message_or_bell() {
        use std::time::Instant;
        let ctx = Context::new();
        let path = std::env::temp_dir().join(format!("ts-wait2-{}.sock", std::process::id()));
        let names = [
            "inproc://first".to_string(),
            format!("ipc://{}", path.display()),
        ];
        let pulls = names
            .each_ref()
            .map(|name| PullSocket::bind(&ctx, name).unwrap());
        let both = [&pulls[0], &pulls[1]];
        let long = Duration::from_secs(20);
        // Nothing anywhere: the whole timeout, then `None`.
        let started = Instant::now();
        assert_eq!(PullSocket::wait(&both, Duration::from_millis(30)), None);
        assert!(started.elapsed() >= Duration::from_millis(30));
        // A message on the second socket, sent while the owner sleeps.
        let push = PushSocket::connect(&ctx, &names[1]);
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                push.send(msg(b"second")).unwrap();
            });
            assert_eq!(PullSocket::wait(&both, long), Some(1));
        });
        assert!(started.elapsed() < long, "the message did not end the wait");
        // Until it is taken, the wait returns at once, naming it.
        assert_eq!(PullSocket::wait(&both, long), Some(1));
        assert_eq!(
            &pulls[1].try_recv().unwrap().unwrap().frames()[0][..],
            b"second"
        );
        // A ring of either bell, awake or asleep, ends the wait with `None`.
        for pull in &pulls {
            pull.bell().ring();
            assert_eq!(PullSocket::wait(&both, long), None);
            let bell = pull.bell();
            let started = Instant::now();
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    bell.ring();
                });
                assert_eq!(PullSocket::wait(&both, long), None);
            });
            assert!(started.elapsed() < long, "the ring did not end the wait");
        }
        // Nothing is left over: the next wait sleeps its timeout again.
        assert_eq!(PullSocket::wait(&both, Duration::from_millis(10)), None);
        assert!(pulls.iter().all(|p| p.try_recv().unwrap().is_none()));
    }

    #[test]
    fn recv_timeout_times_out() {
        let ctx = Context::new();
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let _push = PushSocket::connect(&ctx, "inproc://acks");
        assert_eq!(
            pull.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn dropping_a_pusher_lingers_until_its_queue_is_on_the_wire() {
        // A process may exit right after dropping its last socket: whatever
        // is still queued then is lost, so `drop` must not return before a
        // connected writer flushed — and must not wait for one that never
        // connected.
        let path = std::env::temp_dir().join(format!("ts-linger-{}.sock", std::process::id()));
        let name = format!("ipc://{}", path.display());
        let ctx = Context::with_hwm(4096);
        let pull = PullSocket::bind(&ctx, &name).unwrap();
        let push = PushSocket::connect(&ctx, &name);
        let first = Multipart::single(Bytes::from_static(b"connect"));
        push.send(first).unwrap();
        pull.recv_timeout(Duration::from_secs(5))
            .expect("connected");
        // 2000 x 64 KiB is far more than the socket buffers hold, and
        // nobody reads a puller's connections in the background any more:
        // without this thread draining it, the pusher's writer would sit in
        // `write` and the drop below would give up after LINGER.
        const N: usize = 2000;
        let drained = std::thread::spawn(move || {
            for _ in 0..N {
                pull.recv_timeout(Duration::from_secs(5)).expect("flushed");
            }
            pull
        });
        for _ in 0..N {
            push.send(Multipart::single(Bytes::from(vec![7u8; 64 << 10])))
                .unwrap();
        }
        let shared = push.shared.clone();
        drop(push);
        assert!(!shared.out.backlog.pending(), "dropped with a backlog");
        drop(drained.join().expect("every message arrived"));
        let nobody = PushSocket::connect(&Context::with_hwm(16), &name);
        nobody
            .send(Multipart::single(Bytes::from_static(b"x")))
            .unwrap();
        let started = std::time::Instant::now();
        drop(nobody);
        assert!(
            started.elapsed() < crate::transport::LINGER / 4,
            "waited for a connection"
        );
    }
}
