//! PUSH/PULL over `ipc://`/`tcp://` streams.
//!
//! The puller binds, accepts many pushers and reads them all **on the
//! thread that owns it**: listener, connections and the socket's
//! [`Bell`] are one poll set, a connection that turns readable is read
//! once into its own [`wire::Decoder`], and whole messages land in a local
//! queue in the order the connections were visited — round-robin, so one
//! chatty pusher cannot starve another. No thread is woken to hand a
//! message to another thread. What the owner has not read waits in the
//! kernel's socket buffer and, behind that, in the pushers' own queues:
//! once `hwm` messages are decoded and untaken, nothing more is read.
//!
//! A pusher writes a small message itself ([`Outbox::send_staged`]); a
//! bounded queue drained by a writer thread takes bulk frames and whatever
//! the kernel would not, so `send` applies HWM backpressure and `try_send`
//! reports `Full` exactly like the broker path. A pusher that connects
//! before the puller binds simply buffers — the same thread is its
//! connector and retries in the background.

use crate::bell::Bell;
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::{
    check_frames, linger, poll_readable, AnyListener, AnyStream, EndpointAddr, Outbox, PollFd,
    Queued, TransportStats, CONNECT_RETRY_FOR, WRITER_IDLE_TICK,
};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::io;
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

/// The stream-transport receiving side.
pub(crate) struct StreamPull {
    endpoint: String,
    bell: Bell,
    /// One owner at a time; the lock is held across the blocking `poll`.
    state: parking_lot::Mutex<PullState>,
}

impl StreamPull {
    pub(crate) fn bind(
        addr: &EndpointAddr,
        endpoint: &str,
        hwm: usize,
    ) -> Result<StreamPull, SendError> {
        let listener = AnyListener::bind(addr)?;
        let endpoint = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.to_string());
        let bell = Bell::for_poll().map_err(|e| SendError::Io(format!("doorbell: {e}")))?;
        Ok(StreamPull {
            endpoint,
            bell: bell.clone(),
            state: parking_lot::Mutex::new(PullState {
                listener,
                accepting: true,
                conns: Vec::new(),
                ready: VecDeque::new(),
                hwm,
                bell,
                fds: Vec::new(),
                turn: 0,
            }),
        })
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub(crate) fn bell(&self) -> &Bell {
        &self.bell
    }

    /// Sleeps until a message is ready, the bell is rung or `timeout`
    /// passed — whichever is first; returns at once if a message already
    /// is.
    pub(crate) fn wait(&self, timeout: Duration) {
        self.state.lock().sweep(timeout);
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Multipart, RecvError> {
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

    pub(crate) fn try_recv(&self) -> Result<Option<Multipart>, RecvError> {
        let mut state = self.state.lock();
        state.sweep(Duration::ZERO);
        match state.ready.pop_front() {
            Some(msg) => Ok(Some(msg)),
            None if state.closed() => Err(RecvError::Closed),
            None => Ok(None),
        }
    }

    /// Messages decoded and not yet taken; what is still in socket buffers
    /// is not counted.
    pub(crate) fn queued(&self) -> usize {
        self.state.lock().ready.len()
    }
}

impl PullState {
    fn closed(&self) -> bool {
        !self.accepting && self.conns.is_empty() && self.ready.is_empty()
    }

    /// Unless a message is ready already: one `poll` over everything for at
    /// most `timeout`, then one `accept` round and one `read` per
    /// connection that has something.
    fn sweep(&mut self, timeout: Duration) {
        if !self.ready.is_empty() {
            return;
        }
        let bell_fd = self.bell.fd().expect("a puller's bell has a descriptor");
        self.fds.clear();
        self.fds.push(PollFd::readable(bell_fd));
        // A listener that cannot accept any more would read as ready for
        // ever; a negative descriptor is an entry `poll` skips.
        self.fds.push(match self.accepting {
            true => self.listener.poll_fd(),
            false => PollFd::readable(-1),
        });
        self.fds
            .extend(self.conns.iter().map(|c| c.stream.poll_fd()));
        let fds = &mut self.fds;
        let mut polled = Ok(());
        if timeout.is_zero() {
            // Just looking: the owner is not going to sleep, so a ringer
            // has nobody to wake.
            polled = poll_readable(fds, Some(timeout));
        } else {
            self.bell
                .sleep(|| polled = poll_readable(fds, Some(timeout)));
        }
        if polled.is_err() {
            // `ENOMEM`, say: nothing is ready that we know of, and the
            // caller's loop must not spin on it.
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            return;
        }
        if self.fds[0].is_ready() {
            self.bell.drain();
        }
        // Connections accepted now are not in this poll set; they are read
        // from the next sweep on.
        let polled = self.conns.len();
        if self.fds[1].is_ready() {
            self.accept_pending();
        }
        let mut dead = Vec::new();
        for k in 0..polled {
            let i = (self.turn + k) % polled;
            if !self.fds[2 + i].is_ready() {
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

impl Drop for StreamPull {
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

/// The stream-transport sending side.
pub(crate) struct StreamPush {
    tx: Sender<Queued>,
    shared: Arc<PushShared>,
}

impl StreamPush {
    pub(crate) fn connect(addr: EndpointAddr, hwm: usize) -> StreamPush {
        let (tx, rx) = channel::bounded(hwm);
        let shared = Arc::new(PushShared {
            stop: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            out: Outbox::new(None, Arc::default()),
        });
        let writer_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-push-writer".into())
            .spawn(move || push_writer(addr, writer_shared, rx))
            .expect("spawn push writer");
        StreamPush { tx, shared }
    }

    pub(crate) fn transport_stats(&self) -> TransportStats {
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

    /// Blocks on a full queue with no lock held: only this sender waits.
    pub(crate) fn send(&self, msg: Multipart) -> Result<(), SendError> {
        self.send_by(msg, true)
    }

    pub(crate) fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        self.send_by(msg, false)
    }
}

impl Drop for StreamPush {
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

fn push_writer(addr: EndpointAddr, shared: Arc<PushShared>, rx: Receiver<Queued>) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let stream = match AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up) {
        Ok(s) => s,
        Err(_) => return, // rx drops: senders observe Disconnected
    };
    let Ok(closer) = stream.try_clone() else {
        return;
    };
    // What queued up while there was no connection goes first: senders
    // find the backlog pending and stay behind it.
    shared.out.connected(stream);
    shared.connected.store(true, Ordering::SeqCst);
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

    #[test]
    fn dropping_a_pusher_lingers_until_its_queue_is_on_the_wire() {
        // A process may exit right after dropping its last socket: whatever
        // is still queued then is lost, so `drop` must not return before a
        // connected writer flushed — and must not wait for one that never
        // connected.
        let path = std::env::temp_dir().join(format!("ts-linger-{}.sock", std::process::id()));
        let name = format!("ipc://{}", path.display());
        let addr = EndpointAddr::parse(&name).unwrap();
        let pull = StreamPull::bind(&addr, &name, 4096).unwrap();
        let push = StreamPush::connect(addr.clone(), 4096);
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
        let nobody = StreamPush::connect(addr, 16);
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
