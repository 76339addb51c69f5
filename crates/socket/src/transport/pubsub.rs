//! PUB/SUB over `ipc://`/`tcp://` streams.
//!
//! The publisher accepts connections; a message that stages whole (an
//! announce, a cursor, a `SUBACK`) is written to each matching subscriber
//! by the thread that sends it ([`Outbox::send_staged`]), and each subscriber
//! has a bounded queue (the socket HWM) drained by a dedicated writer
//! thread for bulk frames and for whatever the kernel would not take at
//! once, plus a reader thread that processes `SUB`/`UNSUB` control
//! messages. Prefix filtering happens publisher-side, so only matching
//! topics cross the wire. Subscribes are acknowledged (`SUBACK`) so a
//! subscriber can order a subscription strictly before its next
//! control-plane message.

use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::pubsub::SendPolicy;
use crate::transport::{
    check_frames, linger, poll_readable, AnyListener, AnyStream, EndpointAddr, Outbox, PollFd,
    Queued, TransportCounters, TransportStats, CONNECT_RETRY_FOR, WRITER_IDLE_TICK,
};
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::io::BufReader;
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

fn peer_reader(read_half: AnyStream, peer: Arc<Peer>, shared: Arc<PubShared>) {
    let mut reader = BufReader::new(read_half.into_reader());
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

struct SubState {
    /// Write half once connected.
    writer: Option<AnyStream>,
    /// Locally recorded prefixes (flushed on connect).
    prefixes: Vec<Vec<u8>>,
    /// Highest `SUBACK` request id seen.
    acked: u64,
    /// Highest request id of the connector's connect-time prefix flush;
    /// a subscribe that recorded its prefix pre-connection waits for this
    /// instead of re-sending (re-sending would register a duplicate).
    flushed_req: u64,
    /// True after the connector gave up (never connected).
    failed: bool,
}

struct SubShared {
    stop: AtomicBool,
    state: Mutex<SubState>,
    cond: Condvar,
    next_req: AtomicU64,
}

/// The stream-transport subscribing side.
pub(crate) struct StreamSub {
    shared: Arc<SubShared>,
    rx: Receiver<(Bytes, Multipart)>,
    endpoint: String,
}

impl StreamSub {
    pub(crate) fn connect(addr: EndpointAddr, endpoint: &str, hwm: usize) -> StreamSub {
        let (tx, rx) = channel::bounded(hwm);
        let shared = Arc::new(SubShared {
            stop: AtomicBool::new(false),
            state: Mutex::new(SubState {
                writer: None,
                prefixes: Vec::new(),
                acked: 0,
                flushed_req: 0,
                failed: false,
            }),
            cond: Condvar::new(),
            next_req: AtomicU64::new(1),
        });
        let conn_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-sub-conn".into())
            .spawn(move || sub_connection(addr, conn_shared, tx))
            .expect("spawn subscriber connector");
        StreamSub {
            shared,
            rx,
            endpoint: endpoint.to_string(),
        }
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Registers a prefix. Blocks (bounded) until the publisher has
    /// acknowledged it, so anything sent on another connection *after*
    /// this returns cannot race ahead of the subscription.
    pub(crate) fn subscribe(&self, prefix: &[u8]) {
        let deadline = Instant::now() + SUBSCRIBE_ACK_TIMEOUT;
        let mut state = self.shared.state.lock().expect("sub state");
        state.prefixes.push(prefix.to_vec());
        // Whether the connector will register this prefix for us in its
        // connect-time flush (it flushes everything recorded while the
        // connection did not exist yet).
        let flushed_by_connector = state.writer.is_none();
        // Wait for the connection (the connector flushes recorded
        // prefixes itself on connect, which covers us if we time out
        // here).
        while state.writer.is_none() && !state.failed {
            let now = Instant::now();
            if now >= deadline || self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .expect("sub state");
            state = guard;
        }
        if state.failed {
            return;
        }
        let req = if flushed_by_connector {
            // The connector already sent our prefix; just await its ack.
            state.flushed_req
        } else {
            let req = self.shared.next_req.fetch_add(1, Ordering::SeqCst);
            let writer = state.writer.as_mut().expect("connected");
            if wire::write_message(writer, wire::KIND_SUB, &[prefix, &req.to_le_bytes()]).is_err() {
                return;
            }
            req
        };
        while state.acked < req {
            let now = Instant::now();
            if now >= deadline || self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .expect("sub state");
            state = guard;
        }
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
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<(Bytes, Multipart)>, RecvError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RecvError::Closed),
        }
    }

    pub(crate) fn queued(&self) -> usize {
        self.rx.len()
    }
}

impl Drop for StreamSub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let mut state = self.shared.state.lock().expect("sub state");
        if let Some(writer) = state.writer.take() {
            writer.shutdown();
        }
        self.shared.cond.notify_all();
    }
}

fn sub_connection(addr: EndpointAddr, shared: Arc<SubShared>, tx: Sender<(Bytes, Multipart)>) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let stream = match AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up) {
        Ok(s) => s,
        Err(_) => {
            let mut state = shared.state.lock().expect("sub state");
            state.failed = true;
            shared.cond.notify_all();
            return; // tx drops: receiver observes Closed
        }
    };
    let read_half = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    // Flush prefixes recorded before the connection existed, then expose
    // the writer.
    {
        let mut state = shared.state.lock().expect("sub state");
        let mut writer = stream;
        let mut last_req = 0;
        for prefix in state.prefixes.clone() {
            let req = shared.next_req.fetch_add(1, Ordering::SeqCst);
            let _ =
                wire::write_message(&mut writer, wire::KIND_SUB, &[&prefix, &req.to_le_bytes()]);
            last_req = req;
        }
        state.flushed_req = last_req;
        state.writer = Some(writer);
        shared.cond.notify_all();
    }
    let mut reader = BufReader::new(read_half.into_reader());
    while !shared.stop.load(Ordering::SeqCst) {
        let msg = match wire::read_message(&mut reader) {
            Ok(m) => m,
            Err(_) => break,
        };
        match msg.kind {
            wire::KIND_DATA => {
                if let Some((topic, payload)) = msg.into_topic_and_payload() {
                    if tx.send((topic, payload)).is_err() {
                        break; // subscriber dropped
                    }
                }
            }
            wire::KIND_SUBACK if msg.frames.len() == 1 && msg.frames[0].len() == 8 => {
                let req = u64::from_le_bytes(msg.frames[0][..].try_into().expect("8 bytes"));
                let mut state = shared.state.lock().expect("sub state");
                state.acked = state.acked.max(req);
                shared.cond.notify_all();
            }
            _ => {}
        }
    }
    // Reader gone: future subscribe calls must not wait forever.
    let mut state = shared.state.lock().expect("sub state");
    state.failed = true;
    if let Some(writer) = state.writer.take() {
        writer.shutdown();
    }
    shared.cond.notify_all();
}
