//! PUB/SUB: one-to-many multicast with per-subscriber bounded queues,
//! over the stream transport ([`crate::transport`]) whatever the scheme.
//!
//! A message that stages whole (an announce, a cursor, a `SUBACK`) is
//! written to each matching subscriber by the thread that sends it
//! (`Outbox::send_staged`), and each subscriber has a bounded queue (the
//! socket HWM) drained by a dedicated writer thread for bulk frames and
//! for whatever the kernel would not take at once. One thread per
//! publisher (`ts-pub-listen`) accepts subscribers and processes their
//! `SUB`/`UNSUB` control messages — asleep in `poll` for input, so the
//! frames the subscribers drain do not wake it. Prefix filtering happens
//! publisher-side, so only matching topics cross the wire. Subscribes are
//! acknowledged (`SUBACK`) so a subscriber can order a subscription
//! strictly before its next control-plane message, and several written
//! together are acknowledged in one round trip
//! ([`SubSocket::subscribe_all`]).
//!
//! The subscriber reads its connection **on the thread that receives**,
//! as a puller does. `connect` connects to a Unix-domain publisher that
//! is bound already; otherwise a connector thread (`ts-sub-conn`)
//! connects once it is, registers the prefixes recorded so far and exits.
//! Every read happens inside `subscribe` (which reads its own `SUBACK`,
//! queueing the data that comes first), `recv_timeout`, `try_recv` or a
//! [`SubSocket::wait`] over several subscribers. Messages are assembled by
//! a `wire::Decoder`, so a publisher that stalls halfway through one
//! costs a receiver its timeout and nothing more, and a large frame is
//! read by the kernel straight into the buffer it keeps. What the owner
//! has not read waits in the kernel's socket buffer and, behind that, in
//! the publisher's queue for this subscriber.

use crate::endpoint::Context;
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::{
    check_frames, linger, poll_readable, Addr, AnyListener, AnyStream, Outbox, PollFd, Queued,
    TransportCounters, TransportStats, CONNECT_RETRY_FOR, POLL_EVERY, WRITER_IDLE_TICK,
};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::VecDeque;
use std::io;
use std::ops::DerefMut;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a publisher does when a subscriber queue hits its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPolicy {
    /// Wait for queue space (backpressure). TensorSocket's data socket uses
    /// this: combined with ACK gating the producer never overruns consumers.
    Block,
    /// Drop the message for that subscriber (classic ZeroMQ PUB behaviour).
    DropNewest,
}

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

    /// See `Outbox::send_staged`; `Err(Full)` is a message dropped for
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

/// The publishing side of a PUB/SUB endpoint. One binder per endpoint.
pub struct PubSocket {
    shared: Arc<PubShared>,
    policy: SendPolicy,
    endpoint: String,
    listen_thread: Option<std::thread::JoinHandle<()>>,
    /// Dropping it wakes the listening thread out of its `poll`.
    listen_stop: Option<UnixStream>,
}

impl std::fmt::Debug for PubSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PubSocket")
            .field("endpoint", &self.endpoint())
            .finish()
    }
}

impl PubSocket {
    /// Binds a publisher with the [`SendPolicy::Block`] policy and the
    /// context's default high-water mark.
    pub fn bind(ctx: &Context, name: &str) -> Result<Self, SendError> {
        Self::bind_with(ctx, name, SendPolicy::Block, None)
    }

    /// Binds a publisher with an explicit policy and per-subscriber queue
    /// capacity.
    pub fn bind_with(
        ctx: &Context,
        name: &str,
        policy: SendPolicy,
        hwm: Option<usize>,
    ) -> Result<Self, SendError> {
        let listener = AnyListener::bind(&ctx.resolve(name)?, name)?;
        let endpoint = listener.local_endpoint(name);
        let shared = Arc::new(PubShared {
            stop: AtomicBool::new(false),
            hwm: hwm.unwrap_or(ctx.hwm()).max(1),
            peers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            writers: Mutex::new(Vec::new()),
            counters: Arc::default(),
        });
        let (listen_stop, stopped) =
            UnixStream::pair().map_err(|e| SendError::Io(format!("stop pipe: {e}")))?;
        let listen_shared = shared.clone();
        let listen_thread = std::thread::Builder::new()
            .name("ts-pub-listen".into())
            .spawn(move || listen_loop(listener, stopped, listen_shared))
            .map_err(|e| SendError::Io(format!("spawn listener: {e}")))?;
        Ok(PubSocket {
            shared,
            policy,
            endpoint,
            listen_thread: Some(listen_thread),
            listen_stop: Some(listen_stop),
        })
    }

    /// Publishes a message under `topic`, returning the number of
    /// subscribers it was delivered to.
    ///
    /// Subscribers whose connection is gone are pruned. With
    /// [`SendPolicy::DropNewest`], subscribers with full queues miss the
    /// message (not an error).
    pub fn send(&self, topic: &[u8], msg: Multipart) -> Result<usize, SendError> {
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

    /// Number of currently connected subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.shared
            .peers
            .lock()
            .expect("peers")
            .iter()
            .filter(|p| p.alive.load(Ordering::SeqCst))
            .count()
    }

    /// The endpoint name. For `tcp://host:0` binds this is the resolved
    /// address with the real port.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// How this socket's messages reached the wire so far, counted per
    /// subscriber.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.snapshot()
    }
}

impl Drop for PubSocket {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Let each live peer's writer flush what is already queued (a
        // just-published `End`, say) before tearing the connection down.
        linger(|| {
            let peers = self.shared.peers.lock().expect("peers");
            let mut live = peers.iter().filter(|p| p.alive.load(Ordering::SeqCst));
            live.any(|p| p.out.backlog.pending())
        });
        // The listening thread first, so no peer (and writer) is added
        // below us.
        drop(self.listen_stop.take());
        if let Some(t) = self.listen_thread.take() {
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

/// The publisher's one control thread (`ts-pub-listen`): accepts
/// subscribers and applies their `SUB`/`UNSUB`, asleep in one `poll` over
/// the listener, every subscriber's connection and `stopped` — which the
/// publisher drops to end it. It waits for input only: a thread asleep in
/// `read` on a stream socket is also woken each time the peer drains bytes
/// this side sent (the kernel signals write space on the same wait queue),
/// once per frame a subscriber takes. No thread is started on the way to a
/// subscriber's first `SUBACK`: one that has never run may wait a whole
/// scheduling round for its first turn while loader workers hold the CPUs.
fn listen_loop(listener: AnyListener, stopped: UnixStream, shared: Arc<PubShared>) {
    let mut inflows: Vec<Inflow> = Vec::new();
    let mut fds = Vec::new();
    // Not on anything but the publisher's `stop`: its drop lingers for the
    // writers first, and then shuts every connection down itself.
    while !shared.stop.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(listener.poll_fd());
        fds.push(PollFd::readable(stopped.as_raw_fd()));
        fds.extend(inflows.iter().map(|i| i.conn.poll_fd()));
        // An acknowledgement the queue had no room for is retried.
        let owed = inflows.iter().any(|i| i.owed.is_some());
        if poll_readable(&mut fds, owed.then_some(WRITER_IDLE_TICK)).is_err() {
            break;
        }
        let mut ready = fds[2..].iter().map(PollFd::is_ready);
        inflows.retain_mut(|inflow| match ready.next() == Some(true) {
            true => inflow.read(&shared),
            false => inflow.pay(),
        });
        if fds[0].is_ready() {
            loop {
                match listener.accept() {
                    Ok(Some(stream)) => {
                        // Peer setup failed (fd exhaustion, ...): the
                        // connection is dropped, and accepting goes on.
                        if let Ok(inflow) = add_peer(&shared, stream) {
                            inflows.push(inflow);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // The listener stays readable: do not spin on it.
                        std::thread::sleep(POLL_EVERY);
                        break;
                    }
                }
            }
        }
    }
}

/// A subscriber as the listening thread sees it: the connection its
/// `SUB`/`UNSUB` come in on, and what of them has been read.
struct Inflow {
    peer: Arc<Peer>,
    conn: AnyStream,
    decoder: wire::Decoder,
    /// The latest `SUBACK` the subscriber's queue had no room for (one
    /// acknowledges every request up to its own).
    owed: Option<Bytes>,
}

impl Inflow {
    /// One read of the readable connection and the messages it completed;
    /// false once the subscriber is gone (the peer is then retired).
    fn read(&mut self, shared: &PubShared) -> bool {
        let mut open = match self.decoder.fill(&mut self.conn) {
            Ok(n) => n > 0,
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ),
        };
        while open {
            match self.decoder.next() {
                Ok(Some(msg)) => self.apply(msg),
                Ok(None) => break,
                Err(_) => open = false,
            }
        }
        if open && self.pay() {
            return true;
        }
        self.peer.retire();
        let mut peers = shared.peers.lock().expect("peers");
        peers.retain(|p| p.id != self.peer.id);
        false
    }

    fn apply(&mut self, msg: wire::WireMessage) {
        match msg.kind {
            wire::KIND_SUB if msg.frames.len() == 2 && msg.frames[1].len() == 8 => {
                let prefixes = &self.peer.prefixes;
                prefixes
                    .lock()
                    .expect("peer prefixes")
                    .push(msg.frames[0].to_vec());
                // Ack once the prefix is visible to `send`.
                let ack = wire::staged_whole(wire::KIND_SUBACK, None, &msg.frames[1..], false)
                    .expect("eight bytes stage whole");
                self.owed = Some(Bytes::from(ack));
            }
            wire::KIND_UNSUB if msg.frames.len() == 1 => {
                let mut prefixes = self.peer.prefixes.lock().expect("peer prefixes");
                if let Some(pos) = prefixes.iter().position(|p| p[..] == msg.frames[0][..]) {
                    prefixes.remove(pos);
                }
            }
            _ => {} // unknown control: ignore, stay compatible forward
        }
    }

    /// Sends the acknowledgement owed, if there is room for it now; false
    /// once the connection is gone. Never waits: this thread serves every
    /// subscriber.
    fn pay(&mut self) -> bool {
        let Some(ack) = self.owed.take() else {
            return self.peer.alive.load(Ordering::SeqCst);
        };
        match self.peer.send_staged(&ack, false) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.owed = Some(ack);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// Registers a subscriber and starts its writer thread.
fn add_peer(shared: &Arc<PubShared>, stream: AnyStream) -> std::io::Result<Inflow> {
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
    let writer_peer = peer.clone();
    let writer = std::thread::Builder::new()
        .name("ts-pub-writer".into())
        .spawn(move || peer_writer(rx, writer_peer))?;
    {
        let mut writers = shared.writers.lock().expect("writers");
        writers.retain(|w| !w.is_finished());
        writers.push(writer);
    }
    shared.peers.lock().expect("peers").push(peer.clone());
    Ok(Inflow {
        peer,
        conn: read_half,
        decoder: wire::Decoder::new(),
        owed: None,
    })
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

/// The subscribing side of a PUB/SUB endpoint.
pub struct SubSocket {
    shared: Arc<SubShared>,
    /// One receiving thread at a time; held across the `poll`.
    inbox: parking_lot::Mutex<Inbox>,
    endpoint: String,
}

impl std::fmt::Debug for SubSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubSocket")
            .field("queued", &self.queued())
            .finish()
    }
}

impl SubSocket {
    /// Connects a subscriber. A Unix-domain publisher that is already
    /// bound is connected to before this returns. Connecting before the
    /// publisher binds is fine: the connect retries in the background until
    /// the publisher appears.
    /// Messages published before the subscription is acknowledged are not
    /// seen (slow-joiner semantics, which is why TensorSocket needs
    /// rubberbanding).
    ///
    /// # Panics
    /// Panics if the endpoint name is malformed — a wiring bug, not a
    /// runtime condition.
    pub fn connect(ctx: &Context, name: &str) -> Self {
        let addr = ctx
            .resolve(name)
            .unwrap_or_else(|e| panic!("invalid endpoint {name}: {e}"));
        let connected = AnyStream::connect_now(&addr)
            .and_then(|stream| Some((stream.try_clone().ok()?, stream)));
        let (reader, writer) = connected.unzip();
        let shared = Arc::new(SubShared {
            stop: AtomicBool::new(false),
            state: Mutex::new(SubState {
                writer,
                reader,
                prefixes: Vec::new(),
                flushed_req: 0,
                failed: false,
            }),
            cond: Condvar::new(),
            next_req: AtomicU64::new(1),
        });
        if shared.state.lock().expect("sub state").writer.is_none() {
            let conn_shared = shared.clone();
            std::thread::Builder::new()
                .name("ts-sub-conn".into())
                .spawn(move || sub_connector(addr, conn_shared))
                .expect("spawn subscriber connector");
        }
        SubSocket {
            shared,
            inbox: parking_lot::Mutex::new(Inbox {
                conn: None,
                decoder: wire::Decoder::new(),
                ready: VecDeque::new(),
                acked: 0,
                closed: false,
            }),
            endpoint: name.to_string(),
        }
    }

    /// Subscribes to every topic starting with `prefix`. An empty prefix
    /// subscribes to everything.
    ///
    /// Blocks until the publisher has acknowledged the subscription, so a
    /// message sent on another connection after `subscribe` returns cannot
    /// overtake it — for at most 10 s ([`SubSocket::subscribe_all`] sets
    /// the bound). The acknowledgement is read here; data messages that
    /// arrive before it are queued, in order.
    pub fn subscribe(&self, prefix: &[u8]) {
        self.subscribe_all(&[prefix], Duration::from_secs(10));
    }

    /// [`SubSocket::subscribe`] to each of `prefixes`, waiting at most
    /// `timeout` for the publisher (which may not be bound yet) to
    /// acknowledge; false when it did not. Every `SUB` is written before
    /// any acknowledgement is waited for, and the publisher acknowledges
    /// them in order, so the whole set costs one round trip. The prefixes
    /// are registered either way, once the connection is there.
    pub fn subscribe_all<P: AsRef<[u8]>>(&self, prefixes: &[P], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut req = 0;
        for prefix in prefixes {
            match self.request(prefix.as_ref(), deadline) {
                Some(r) => req = req.max(r),
                None => return false,
            }
        }
        let mut inbox = self.inbox.lock();
        while inbox.acked < req {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || inbox.closed || self.shared.stop.load(Ordering::SeqCst) {
                return false;
            }
            look(&mut [(&mut *inbox, &*self.shared)], left);
        }
        true
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

    /// Removes a previously added prefix.
    pub fn unsubscribe(&self, prefix: &[u8]) {
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(pos) = state.prefixes.iter().position(|p| p == prefix) {
            state.prefixes.remove(pos);
        }
        if let Some(writer) = state.writer.as_mut() {
            let _ = wire::write_message(writer, wire::KIND_UNSUB, &[prefix]);
        }
    }

    /// Sleeps until one of `subs` has a message to hand out or has closed,
    /// or until `timeout` has passed, and returns the index of the first
    /// such socket — at once if one already is; `None` once the timeout
    /// passed with none. [`SubSocket::try_recv`] on the socket it names
    /// answers without waiting: the message, or `Closed`.
    ///
    /// This is the one blocking call of an owner that listens to several
    /// publishers (a consumer of a sharded producer: one subscriber per
    /// shard): one `poll` across the connections of every subscriber
    /// given, each connection that turned readable read once.
    pub fn wait(subs: &[&SubSocket], timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut looked = false;
        loop {
            let mut inboxes: Vec<_> = subs.iter().map(|s| (s.inbox.lock(), &*s.shared)).collect();
            if let Some(i) = inboxes.iter().position(|(inbox, _)| inbox.has_next()) {
                return Some(i);
            }
            // Looks at every connection at least once, whatever the
            // timeout; half a message ends a look early, not the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            if looked && left.is_zero() {
                return None;
            }
            looked = true;
            look(&mut inboxes, left);
        }
    }

    /// Receives the next matching message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(Bytes, Multipart), RecvError> {
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

    /// Non-blocking receive; `Ok(None)` when no message is queued.
    pub fn try_recv(&self) -> Result<Option<(Bytes, Multipart)>, RecvError> {
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

    /// Messages received and not yet taken: what the owner has read off
    /// its connection; more may sit in the kernel's socket buffer.
    pub fn queued(&self) -> usize {
        self.inbox.lock().ready.len()
    }

    /// The endpoint this subscriber connected to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
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

impl Drop for SubSocket {
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
fn sub_connector(addr: Addr, shared: Arc<SubShared>) {
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

#[cfg(test)]
mod tests {
    use super::*;

    const RECV: Duration = Duration::from_secs(10);

    fn msg(s: &'static [u8]) -> Multipart {
        Multipart::single(Bytes::from_static(s))
    }

    #[test]
    fn multicast_reaches_all_matching_subscribers() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let s1 = SubSocket::connect(&ctx, "inproc://d");
        let s2 = SubSocket::connect(&ctx, "inproc://d");
        let s3 = SubSocket::connect(&ctx, "inproc://d");
        s1.subscribe(b"batch");
        s2.subscribe(b"");
        s3.subscribe(b"ctrl");
        let n = publisher.send(b"batch/1", msg(b"x")).unwrap();
        assert_eq!(n, 2);
        assert!(s1.recv_timeout(RECV).is_ok());
        assert!(s2.recv_timeout(RECV).is_ok());
        // Filtered at the publisher: nothing is on its way to s3.
        assert!(s3.try_recv().unwrap().is_none());
    }

    #[test]
    fn slow_joiner_misses_earlier_messages() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        publisher.send(b"t", msg(b"early")).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        publisher.send(b"t", msg(b"late")).unwrap();
        let (_, m) = sub.recv_timeout(RECV).unwrap();
        assert_eq!(&m.frames()[0][..], b"late");
        assert!(sub.try_recv().unwrap().is_none());
    }

    #[test]
    fn connect_before_bind_works() {
        let ctx = Context::new();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        // Subscribed before the publisher exists: `subscribe` waits for the
        // connection its connector retries until the bind.
        let publisher = std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                PubSocket::bind(&ctx, "inproc://d").unwrap()
            });
            sub.subscribe(b"");
            publisher.join().unwrap()
        });
        publisher.send(b"t", msg(b"hello")).unwrap();
        assert!(sub.recv_timeout(RECV).is_ok());
    }

    #[test]
    fn double_bind_rejected() {
        let ctx = Context::new();
        let _p1 = PubSocket::bind(&ctx, "inproc://d").unwrap();
        assert!(matches!(
            PubSocket::bind(&ctx, "inproc://d").unwrap_err(),
            SendError::AddrInUse(_)
        ));
    }

    #[test]
    fn rebind_after_drop_is_allowed() {
        let ctx = Context::new();
        drop(PubSocket::bind(&ctx, "inproc://d").unwrap());
        let _p2 = PubSocket::bind(&ctx, "inproc://d").unwrap();
    }

    #[test]
    fn dropped_subscriber_is_pruned_on_send() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        assert_eq!(publisher.subscriber_count(), 1);
        drop(sub);
        // The publisher learns it from the connection's end.
        let deadline = Instant::now() + RECV;
        while publisher.subscriber_count() > 0 {
            assert!(Instant::now() < deadline, "never pruned");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(publisher.send(b"t", msg(b"x")).unwrap(), 0);
    }

    #[test]
    fn publisher_drop_closes_subscribers_after_drain() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        publisher.send(b"t", msg(b"x")).unwrap();
        drop(publisher);
        // queued message still delivered
        assert!(sub.recv_timeout(RECV).is_ok());
        // then the socket reports closed
        assert!(matches!(sub.recv_timeout(RECV), Err(RecvError::Closed)));
    }

    #[test]
    fn drop_newest_policy_skips_full_queues() {
        let ctx = Context::with_hwm(1);
        let publisher =
            PubSocket::bind_with(&ctx, "inproc://d", SendPolicy::DropNewest, Some(1)).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        // Nobody reads: once the socket buffers and the one-deep queue are
        // full, sends are dropped for this subscriber.
        let big = Multipart::single(Bytes::from(vec![1u8; 1 << 20]));
        let delivered: usize = (0..64)
            .map(|_| publisher.send(b"t", big.clone()).unwrap())
            .sum();
        assert!(delivered > 0 && delivered < 64, "{delivered}");
        // What was delivered arrives; nothing else does.
        for _ in 0..delivered {
            assert_eq!(sub.recv_timeout(RECV).unwrap().1.byte_len(), 1 << 20);
        }
        assert!(sub.try_recv().unwrap().is_none());
    }

    #[test]
    fn blocking_policy_applies_backpressure() {
        let ctx = Context::with_hwm(1);
        let publisher =
            PubSocket::bind_with(&ctx, "inproc://d", SendPolicy::Block, Some(1)).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        // 64 MiB is far more than the socket buffers and the one-deep queue
        // hold: the publisher stalls until the subscriber drains.
        let big = Multipart::single(Bytes::from(vec![2u8; 1 << 20]));
        let t = std::thread::spawn(move || {
            for _ in 0..64 {
                publisher.send(b"t", big.clone()).unwrap();
            }
            publisher
        });
        std::thread::sleep(Duration::from_millis(100));
        assert!(!t.is_finished(), "send should block on the full queue");
        for _ in 0..64 {
            assert_eq!(sub.recv_timeout(RECV).unwrap().1.byte_len(), 1 << 20);
        }
        let _publisher = t.join().unwrap();
    }

    #[test]
    fn subscriptions_written_together_are_acknowledged_together() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        assert!(sub.subscribe_all(&[&b"a"[..], b"b"], RECV));
        assert_eq!(publisher.send(b"a/1", msg(b"x")).unwrap(), 1);
        assert_eq!(publisher.send(b"b/1", msg(b"y")).unwrap(), 1);
        assert_eq!(publisher.send(b"c/1", msg(b"z")).unwrap(), 0);
        // Nobody there: false at the deadline, not later.
        let nobody = SubSocket::connect(&ctx, "inproc://nobody");
        let started = Instant::now();
        let short = Duration::from_millis(100);
        assert!(!nobody.subscribe_all(&[&b"a"[..], b"b"], short));
        assert!(started.elapsed() < short * 3 / 2, "{:?}", started.elapsed());
    }

    #[test]
    fn a_subscribe_behind_a_full_queue_is_acknowledged_once_there_is_room() {
        let ctx = Context::with_hwm(1);
        let publisher =
            PubSocket::bind_with(&ctx, "inproc://d", SendPolicy::DropNewest, Some(1)).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"t");
        // Nobody reads until the queue is full: the `SUBACK` below finds no
        // room, and the listening thread, which serves every subscriber,
        // does not wait for it but pays it once the subscriber has read.
        let big = Multipart::single(Bytes::from(vec![1u8; 1 << 20]));
        let delivered: usize = (0..64)
            .map(|_| publisher.send(b"t", big.clone()).unwrap())
            .sum();
        assert!(delivered < 64, "the queue filled up");
        assert!(sub.subscribe_all(&[b"u"], RECV));
        assert_eq!(publisher.send(b"u", msg(b"x")).unwrap(), 1);
        for _ in 0..delivered {
            assert_eq!(sub.recv_timeout(RECV).unwrap().1.byte_len(), 1 << 20);
        }
        assert_eq!(&sub.recv_timeout(RECV).unwrap().0[..], b"u");
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"a");
        sub.subscribe(b"b");
        sub.unsubscribe(b"a");
        // An unsubscribe is not acknowledged; the subscribe after it is, and
        // the publisher handles both in order.
        sub.subscribe(b"c");
        publisher.send(b"a/1", msg(b"x")).unwrap();
        publisher.send(b"b/1", msg(b"y")).unwrap();
        let (topic, _) = sub.recv_timeout(RECV).unwrap();
        assert_eq!(&topic[..], b"b/1");
        assert!(sub.try_recv().unwrap().is_none());
    }
}
