//! PUB/SUB over `ipc://`/`tcp://` streams.
//!
//! The publisher accepts connections; a message that stages whole (an
//! announce, a cursor, a `SUBACK`) is written to each matching subscriber
//! by the thread that sends it ([`Outbox::send_staged`]), and each subscriber
//! has a bounded queue (the socket HWM) drained by a dedicated writer
//! thread for bulk frames and for whatever the kernel would not take at
//! once, plus a reader thread that processes `SUB`/`UNSUB` control
//! messages — asleep in `poll` for input, so the frames the subscriber
//! drains do not wake it. Prefix filtering happens publisher-side, so only
//! matching topics cross the wire. Subscribes are acknowledged (`SUBACK`)
//! so a subscriber can order a subscription strictly before its next
//! control-plane message.
//!
//! The subscriber reads its connection **on the thread that receives**,
//! as a puller does: a connector thread (`ts-sub-conn`) connects,
//! registers the prefixes recorded so far and exits; from then on every
//! read happens inside `subscribe` (which reads its own `SUBACK`, queueing
//! the data that comes first), `recv_timeout`, `try_recv` or a
//! [`crate::SubSocket::wait`] over several subscribers. Messages are
//! assembled by a [`wire::Decoder`], so a publisher that stalls halfway
//! through one costs a receiver its timeout and nothing more, and a large
//! frame is read by the kernel straight into the buffer it keeps. What the
//! owner has not read waits in the kernel's socket buffer and, behind
//! that, in the publisher's queue for this subscriber.

use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::pubsub::SendPolicy;
use crate::transport::{
    check_frames, linger, poll_readable, AnyListener, AnyStream, EndpointAddr, Outbox, PollFd,
    Queued, TransportCounters, TransportStats, CONNECT_RETRY_FOR, POLL_EVERY, WRITER_IDLE_TICK,
};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::ops::DerefMut;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a blocking subscribe waits for its `SUBACK`.
const SUBSCRIBE_ACK_TIMEOUT: Duration = Duration::from_secs(10);

struct Peer {
    id: u64,
    alive: AtomicBool,
    prefixes: Mutex<Vec<Vec<u8>>>,
    tx: Sender<Queued>,
    /// For `shutdown`; writes go through `out`.
    stream: AnyStream,
    out: Outbox,
}

impl Peer {
    fn matches(&self, topic: &[u8]) -> bool {
        self.prefixes
            .lock()
            .expect("peer prefixes")
            .iter()
            .any(|p| topic.starts_with(p.as_slice()))
    }

    fn retire(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.stream.shutdown();
        // A writer that is not idle needs no waking: its next write fails.
        let _ = self.tx.try_send(Queued::Nudge);
    }

    /// See [`Outbox::send_staged`]; `Err(Full)` is a message dropped for
    /// this subscriber, `Err(Disconnected)` a dead peer.
    fn send_staged(&self, staged: &Bytes, block: bool) -> Result<(), TrySendError<Queued>> {
        self.out.send_staged(&self.tx, staged, block)
    }

    fn enqueue(&self, item: Queued, block: bool) -> Result<(), TrySendError<Queued>> {
        self.out.enqueue(&self.tx, item, block)
    }
}

struct PubShared {
    stop: AtomicBool,
    hwm: usize,
    peers: Mutex<Vec<Arc<Peer>>>,
    next_id: AtomicU64,
    /// Writer threads that may still be running. Dropping the socket joins
    /// them, so no queued message — and nothing a message borrows, such as
    /// an arena slot — outlives the socket.
    writers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    counters: Arc<TransportCounters>,
}

/// The stream-transport publishing side.
pub(crate) struct StreamPub {
    shared: Arc<PubShared>,
    policy: SendPolicy,
    endpoint: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Dropping it wakes the accept thread out of its `poll`.
    accept_stop: Option<UnixStream>,
}

impl StreamPub {
    pub(crate) fn bind(
        addr: &EndpointAddr,
        endpoint: &str,
        policy: SendPolicy,
        hwm: usize,
    ) -> Result<StreamPub, SendError> {
        let listener = AnyListener::bind(addr)?;
        let endpoint = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.to_string());
        let shared = Arc::new(PubShared {
            stop: AtomicBool::new(false),
            hwm,
            peers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            writers: Mutex::new(Vec::new()),
            counters: Arc::default(),
        });
        let (accept_stop, stopped) =
            UnixStream::pair().map_err(|e| SendError::Io(format!("stop pipe: {e}")))?;
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ts-pub-accept".into())
            .spawn(move || accept_loop(listener, stopped, accept_shared))
            .map_err(|e| SendError::Io(format!("spawn accept: {e}")))?;
        Ok(StreamPub {
            shared,
            policy,
            endpoint,
            accept_thread: Some(accept_thread),
            accept_stop: Some(accept_stop),
        })
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub(crate) fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }

    pub(crate) fn subscriber_count(&self) -> usize {
        self.shared
            .peers
            .lock()
            .expect("peers")
            .iter()
            .filter(|p| p.alive.load(Ordering::SeqCst))
            .count()
    }

    pub(crate) fn send(&self, topic: &[u8], msg: Multipart) -> Result<usize, SendError> {
        check_frames(topic, &msg)?;
        let peers: Vec<Arc<Peer>> = self.shared.peers.lock().expect("peers").clone();
        // Staged once for every subscriber, whoever ends up writing it.
        let staged =
            wire::staged_whole(wire::KIND_DATA, Some(topic), msg.frames(), msg.is_chunked())
                .map(Bytes::from);
        let bulk_topic = staged.is_none().then(|| Bytes::copy_from_slice(topic));
        let block = self.policy == SendPolicy::Block;
        let mut delivered = 0usize;
        let mut dead = Vec::new();
        for peer in &peers {
            if !peer.alive.load(Ordering::SeqCst) {
                dead.push(peer.id);
                continue;
            }
            if !peer.matches(topic) {
                continue;
            }
            let sent = match &staged {
                Some(staged) => peer.send_staged(staged, block),
                None => peer.enqueue(Queued::Bulk(bulk_topic.clone(), msg.clone()), block),
            };
            match sent {
                Ok(()) => delivered += 1,
                Err(TrySendError::Full(_)) => {}
                Err(TrySendError::Disconnected(_)) => dead.push(peer.id),
            }
        }
        if !dead.is_empty() {
            let mut peers = self.shared.peers.lock().expect("peers");
            peers.retain(|p| {
                if dead.contains(&p.id) {
                    p.retire();
                    false
                } else {
                    true
                }
            });
        }
        Ok(delivered)
    }
}

impl Drop for StreamPub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Let each live peer's writer flush what is already queued (a
        // just-published `End`, say) before tearing the connection down.
        linger(|| {
            let peers = self.shared.peers.lock().expect("peers");
            let mut live = peers.iter().filter(|p| p.alive.load(Ordering::SeqCst));
            live.any(|p| p.out.backlog.pending())
        });
        // The accept loop first, so no peer (and writer) is added below us.
        drop(self.accept_stop.take());
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for peer in self.shared.peers.lock().expect("peers").drain(..) {
            peer.retire();
        }
        let writers = std::mem::take(&mut *self.shared.writers.lock().expect("writers"));
        for writer in writers {
            let _ = writer.join();
        }
    }
}

/// Sleeps in `poll` until a subscriber connects or the publisher drops
/// its end of `stopped`.
fn accept_loop(listener: AnyListener, stopped: UnixStream, shared: Arc<PubShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(stream)) => {
                if let Err(e) = add_peer(&shared, stream) {
                    // Peer setup failed (fd exhaustion, ...): drop the
                    // connection, keep accepting.
                    let _ = e;
                }
            }
            Ok(None) => {
                let mut fds = [listener.poll_fd(), PollFd::readable(stopped.as_raw_fd())];
                if poll_readable(&mut fds, None).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

fn add_peer(shared: &Arc<PubShared>, stream: AnyStream) -> std::io::Result<()> {
    stream.grow_send_buffer();
    let write_half = stream.try_clone()?;
    let read_half = stream.try_clone()?;
    let (tx, rx) = channel::bounded::<Queued>(shared.hwm);
    let peer = Arc::new(Peer {
        id: shared.next_id.fetch_add(1, Ordering::SeqCst),
        alive: AtomicBool::new(true),
        prefixes: Mutex::new(Vec::new()),
        tx,
        stream,
        out: Outbox::new(Some(write_half), shared.counters.clone()),
    });
    shared.peers.lock().expect("peers").push(peer.clone());

    let writer_peer = peer.clone();
    let writer = std::thread::Builder::new()
        .name("ts-pub-writer".into())
        .spawn(move || peer_writer(rx, writer_peer))?;
    {
        let mut writers = shared.writers.lock().expect("writers");
        writers.retain(|w| !w.is_finished());
        writers.push(writer);
    }

    let reader_shared = shared.clone();
    std::thread::Builder::new()
        .name("ts-pub-reader".into())
        .spawn(move || peer_reader(read_half, peer, reader_shared))?;
    Ok(())
}

fn peer_writer(rx: Receiver<Queued>, peer: Arc<Peer>) {
    while peer.alive.load(Ordering::SeqCst) {
        let item = match rx.recv_timeout(WRITER_IDLE_TICK) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => Queued::Nudge,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if peer.out.write(&item).is_err() {
            break;
        }
    }
    peer.retire();
    // Nobody will write what is still queued; let go of it now rather than
    // when the last handle on the queue happens to drop.
    while rx.try_recv().is_ok() {}
}

/// Reads that sleep in `poll` for input rather than in `read`. A thread
/// blocked in `read` on a stream socket sleeps on the socket's wait queue,
/// which the kernel also wakes each time the peer drains bytes this side
/// sent (write space) — once per frame a subscriber takes. `poll` asks for
/// `POLLIN` alone and is not woken for that.
struct PollFirst {
    poll: PollFd,
    stream: Box<dyn std::io::Read + Send>,
}

impl std::io::Read for PollFirst {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.poll.revents = 0;
        // An interrupted poll reports nothing ready: poll again. A shut
        // down or failed connection reports ready, and `read` says which.
        while !self.poll.is_ready() {
            poll_readable(std::slice::from_mut(&mut self.poll), None)?;
        }
        self.stream.read(buf)
    }
}

fn peer_reader(read_half: AnyStream, peer: Arc<Peer>, shared: Arc<PubShared>) {
    // `BufReader` reads its inner reader only when its buffer cannot serve
    // the call: every such read waits in `poll` first.
    let poll = read_half.poll_fd();
    let stream = read_half.into_reader();
    let mut reader = BufReader::new(PollFirst { poll, stream });
    while peer.alive.load(Ordering::SeqCst) && !shared.stop.load(Ordering::SeqCst) {
        let msg = match wire::read_message(&mut reader) {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg.kind {
            wire::KIND_SUB if msg.frames.len() == 2 && msg.frames[1].len() == 8 => {
                peer.prefixes
                    .lock()
                    .expect("peer prefixes")
                    .push(msg.frames[0].to_vec());
                // Ack once the prefix is visible to `send`.
                let ack = wire::staged_whole(wire::KIND_SUBACK, None, &msg.frames[1..], false)
                    .expect("eight bytes stage whole");
                if peer.send_staged(&Bytes::from(ack), true).is_err() {
                    break;
                }
            }
            wire::KIND_UNSUB if msg.frames.len() == 1 => {
                let mut prefixes = peer.prefixes.lock().expect("peer prefixes");
                if let Some(pos) = prefixes.iter().position(|p| p[..] == msg.frames[0][..]) {
                    prefixes.remove(pos);
                }
            }
            _ => {} // unknown control: ignore, stay compatible forward
        }
    }
    peer.retire();
    shared
        .peers
        .lock()
        .expect("peers")
        .retain(|p| p.id != peer.id);
}

// ---------------------------------------------------------------------------
// subscriber side
// ---------------------------------------------------------------------------

/// What the connector hands over, and what `SUB`/`UNSUB` are written with.
struct SubState {
    /// Write half once connected.
    writer: Option<AnyStream>,
    /// Read half once connected, until the owner takes it into its
    /// [`Inbox`].
    reader: Option<AnyStream>,
    /// Locally recorded prefixes (flushed on connect).
    prefixes: Vec<Vec<u8>>,
    /// Highest request id of the connector's connect-time prefix flush;
    /// a subscribe that recorded its prefix pre-connection waits for this
    /// instead of re-sending (re-sending would register a duplicate).
    flushed_req: u64,
    /// True once there is no connection to wait for: the connector gave
    /// up, or the connection ended.
    failed: bool,
}

struct SubShared {
    stop: AtomicBool,
    state: Mutex<SubState>,
    cond: Condvar,
    next_req: AtomicU64,
}

/// The subscriber's end of its connection, read by whichever thread
/// receives.
struct Inbox {
    /// `None` until taken over from the connector.
    conn: Option<AnyStream>,
    decoder: wire::Decoder,
    /// Data messages decoded and not yet taken.
    ready: VecDeque<(Bytes, Multipart)>,
    /// Highest `SUBACK` request id read.
    acked: u64,
    /// Nothing more will come: end of stream, an error, malformed framing,
    /// or a connector that never got through.
    closed: bool,
}

/// The stream-transport subscribing side.
pub(crate) struct StreamSub {
    shared: Arc<SubShared>,
    /// One receiving thread at a time; held across the `poll`.
    inbox: parking_lot::Mutex<Inbox>,
    endpoint: String,
}

impl StreamSub {
    pub(crate) fn connect(addr: EndpointAddr, endpoint: &str) -> StreamSub {
        let shared = Arc::new(SubShared {
            stop: AtomicBool::new(false),
            state: Mutex::new(SubState {
                writer: None,
                reader: None,
                prefixes: Vec::new(),
                flushed_req: 0,
                failed: false,
            }),
            cond: Condvar::new(),
            next_req: AtomicU64::new(1),
        });
        let conn_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-sub-conn".into())
            .spawn(move || sub_connector(addr, conn_shared))
            .expect("spawn subscriber connector");
        StreamSub {
            shared,
            inbox: parking_lot::Mutex::new(Inbox {
                conn: None,
                decoder: wire::Decoder::new(),
                ready: VecDeque::new(),
                acked: 0,
                closed: false,
            }),
            endpoint: endpoint.to_string(),
        }
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Registers a prefix. Blocks (bounded) until the publisher has
    /// acknowledged it, so anything sent on another connection *after*
    /// this returns cannot race ahead of the subscription. The `SUBACK` is
    /// read here; data messages that arrive before it are queued, in order.
    pub(crate) fn subscribe(&self, prefix: &[u8]) {
        let deadline = Instant::now() + SUBSCRIBE_ACK_TIMEOUT;
        let Some(req) = self.request(prefix, deadline) else {
            return;
        };
        let mut inbox = self.inbox.lock();
        while inbox.acked < req && !inbox.closed && !self.shared.stop.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            look(&mut [(&mut *inbox, &*self.shared)], left);
        }
    }

    /// Records `prefix` and has it registered — by the connector's
    /// connect-time flush while there is no connection, by a `SUB` written
    /// here once there is — and returns the request id its `SUBACK` will
    /// carry; `None` when there is nothing to wait for.
    fn request(&self, prefix: &[u8], deadline: Instant) -> Option<u64> {
        let mut state = self.shared.state.lock().expect("sub state");
        state.prefixes.push(prefix.to_vec());
        let flushed_by_connector = state.writer.is_none();
        // The connector flushes recorded prefixes itself on connect, which
        // covers us if we time out here.
        while state.writer.is_none() && !state.failed {
            let now = Instant::now();
            if now >= deadline || self.shared.stop.load(Ordering::SeqCst) {
                return None;
            }
            let waited = self.shared.cond.wait_timeout(state, deadline - now);
            state = waited.expect("sub state").0;
        }
        if flushed_by_connector {
            return (!state.failed).then_some(state.flushed_req);
        }
        let req = self.shared.next_req.fetch_add(1, Ordering::SeqCst);
        let writer = state.writer.as_mut()?;
        let sub: [&[u8]; 2] = [prefix, &req.to_le_bytes()];
        wire::write_message(writer, wire::KIND_SUB, &sub).ok()?;
        Some(req)
    }

    pub(crate) fn unsubscribe(&self, prefix: &[u8]) {
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(pos) = state.prefixes.iter().position(|p| p == prefix) {
            state.prefixes.remove(pos);
        }
        if let Some(writer) = state.writer.as_mut() {
            let _ = wire::write_message(writer, wire::KIND_UNSUB, &[prefix]);
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<(Bytes, Multipart), RecvError> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock();
        loop {
            // Looks at the connection at least once, whatever the timeout;
            // half a message ends a look early, not the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            if !inbox.has_next() {
                look(&mut [(&mut *inbox, &*self.shared)], left);
            }
            match inbox.ready.pop_front() {
                Some(msg) => return Ok(msg),
                None if inbox.closed => return Err(RecvError::Closed),
                None if left.is_zero() => return Err(RecvError::Timeout),
                None => {}
            }
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<(Bytes, Multipart)>, RecvError> {
        let mut inbox = self.inbox.lock();
        if !inbox.has_next() {
            look(&mut [(&mut *inbox, &*self.shared)], Duration::ZERO);
        }
        match inbox.ready.pop_front() {
            Some(msg) => Ok(Some(msg)),
            None if inbox.closed => Err(RecvError::Closed),
            None => Ok(None),
        }
    }

    /// Messages decoded and not yet taken; what is still in the kernel's
    /// socket buffer is not counted.
    pub(crate) fn queued(&self) -> usize {
        self.inbox.lock().ready.len()
    }

    /// A message is ready, or the connection is over.
    pub(crate) fn has_next(&self) -> bool {
        self.inbox.lock().has_next()
    }

    /// Unless one of `subs` has something already: one `poll` over all
    /// their connections for at most `timeout`, and one read of each that
    /// turned readable.
    pub(crate) fn sweep_all(subs: &[&StreamSub], timeout: Duration) {
        let mut inboxes: Vec<_> = subs.iter().map(|s| (s.inbox.lock(), &*s.shared)).collect();
        if !inboxes.iter().any(|(inbox, _)| inbox.has_next()) {
            look(&mut inboxes, timeout);
        }
    }
}

/// One `poll` of at most `timeout` over the connections of `inboxes`, then
/// one read of each that turned readable. An inbox whose connector has not
/// got through yet is looked at again within [`POLL_EVERY`].
fn look<I: DerefMut<Target = Inbox>>(inboxes: &mut [(I, &SubShared)], timeout: Duration) {
    let mut timeout = timeout;
    let mut fds = Vec::with_capacity(inboxes.len());
    for (inbox, shared) in inboxes.iter_mut() {
        match inbox.connected(shared) {
            Some(conn) => fds.push(conn.poll_fd()),
            None => {
                // A negative descriptor is an entry `poll` skips.
                fds.push(PollFd::readable(-1));
                timeout = timeout.min(POLL_EVERY);
            }
        }
    }
    if poll_readable(&mut fds, Some(timeout)).is_err() {
        // `ENOMEM`, say: nothing is ready that we know of, and the
        // caller's loop must not spin on it.
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        return;
    }
    for ((inbox, shared), fd) in inboxes.iter_mut().zip(&fds) {
        if fd.is_ready() {
            inbox.read(shared);
        }
    }
}

impl Inbox {
    fn has_next(&self) -> bool {
        !self.ready.is_empty() || self.closed
    }

    /// The connection, taken over from the connector once it got through.
    fn connected(&mut self, shared: &SubShared) -> Option<&AnyStream> {
        if self.conn.is_none() && !self.closed {
            let mut state = shared.state.lock().expect("sub state");
            self.conn = state.reader.take();
            self.closed = self.conn.is_none() && state.failed;
        }
        self.conn.as_ref()
    }

    /// One read and the whole messages it completed; a connection that
    /// ended, failed or broke the framing closes the inbox.
    fn read(&mut self, shared: &SubShared) {
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let mut open = match self.decoder.fill(conn) {
            Ok(n) => n > 0,
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ),
        };
        while open {
            match self.decoder.next() {
                Ok(Some(msg)) => self.take_in(msg),
                Ok(None) => break,
                Err(_) => open = false,
            }
        }
        if !open {
            self.close(shared);
        }
    }

    fn take_in(&mut self, msg: wire::WireMessage) {
        match (msg.kind, &msg.frames[..]) {
            (wire::KIND_DATA, _) => self.ready.extend(msg.into_topic_and_payload()),
            (wire::KIND_SUBACK, [req]) => {
                if let Ok(req) = <[u8; 8]>::try_from(&req[..]) {
                    self.acked = self.acked.max(u64::from_le_bytes(req));
                }
            }
            _ => {} // unknown control: ignore, stay compatible forward
        }
    }

    /// Nothing more is read, and a later `subscribe` does not wait for a
    /// connection.
    fn close(&mut self, shared: &SubShared) {
        self.closed = true;
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
        let mut state = shared.state.lock().expect("sub state");
        state.failed = true;
        if let Some(writer) = state.writer.take() {
            writer.shutdown();
        }
        shared.cond.notify_all();
    }
}

impl Drop for StreamSub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(conn) = self.inbox.get_mut().conn.take() {
            conn.shutdown();
        }
        let mut state = self.shared.state.lock().expect("sub state");
        let halves = [state.writer.take(), state.reader.take()];
        for half in halves.into_iter().flatten() {
            half.shutdown();
        }
        self.shared.cond.notify_all();
    }
}

/// Connects, registers the prefixes recorded so far, hands the connection
/// over and exits: the subscriber reads it itself.
fn sub_connector(addr: EndpointAddr, shared: Arc<SubShared>) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let connected = AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up)
        .and_then(|stream| Ok((stream.try_clone()?, stream)));
    let mut state = shared.state.lock().expect("sub state");
    match connected {
        Ok((reader, mut writer)) if !shared.stop.load(Ordering::SeqCst) => {
            let mut last_req = 0;
            for prefix in &state.prefixes {
                let req = shared.next_req.fetch_add(1, Ordering::SeqCst);
                let sub: [&[u8]; 2] = [prefix, &req.to_le_bytes()];
                let _ = wire::write_message(&mut writer, wire::KIND_SUB, &sub);
                last_req = req;
            }
            state.flushed_req = last_req;
            state.writer = Some(writer);
            state.reader = Some(reader);
        }
        // Dropped while connecting.
        Ok((_, writer)) => writer.shutdown(),
        Err(_) => state.failed = true,
    }
    shared.cond.notify_all();
}
