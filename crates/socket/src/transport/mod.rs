//! Cross-process transports: `ipc://` (Unix domain sockets) and `tcp://`.
//!
//! The in-process broker ([`crate::endpoint`]) keeps its crossbeam-queue
//! fast path for `inproc://` endpoints; this module provides the same
//! socket semantics across OS processes, so `PubSocket`/`SubSocket`/
//! `PushSocket`/`PullSocket` behave identically no matter which scheme
//! the endpoint URI names:
//!
//! * per-subscriber bounded queues with the socket's high-water mark, and
//!   the publisher's [`crate::SendPolicy`] applied per peer;
//! * prefix subscriptions evaluated publisher-side (no payload bytes move
//!   for non-matching topics);
//! * peer disconnects surface as [`crate::RecvError::Closed`] after the
//!   queue drains, exactly like the broker.
//!
//! **Which thread touches a frame.** A message is a write plus, if the
//! other side sleeps, a wake-up — not a hand-off to a messaging thread:
//!
//! * *PUB and PUSH, small messages* (one that [`crate::wire`] stages
//!   whole: every frame under a page, so every announce, ack, heartbeat,
//!   JOIN and cursor): the **sending thread** puts it on the wire itself,
//!   one non-blocking `send` under the connection's lock, whenever nothing
//!   is queued on that connection.
//! * *PUB and PUSH, everything else* — bulk frames, and whatever the
//!   kernel refused (`EAGAIN`, the tail of a short write, anything sent
//!   while those wait): the connection's bounded queue and its **writer
//!   thread** (`ts-pub-writer`, `ts-push-writer`), which also is the
//!   pusher's connector. High-water mark, [`crate::SendPolicy`],
//!   `try_send → Full`, linger-on-drop and per-connection order are the
//!   queue's, as before; no sender ever blocks in a write.
//! * *PULL*: the **owner** reads its connections itself —
//!   [`crate::PullSocket::wait`] is one `poll` over the listener, every
//!   connection and the socket's [`crate::Bell`]; there is no accept
//!   thread, no reader thread and no fan-in queue. What a puller has not
//!   read stays in the kernel's socket buffer, and behind that in the
//!   pushers' own queues: that is its high-water mark.
//! * *SUB*: a **reader thread** per subscriber (`ts-sub-conn`) decodes
//!   into the subscriber's bounded queue. Kept on purpose: it is what
//!   overlaps a streamed frame's kernel-to-user copy with the consumer's
//!   training step.
//! * *PUB, subscriptions*: a reader thread per peer (`ts-pub-reader`)
//!   applies `SUB`/`UNSUB` and acknowledges; `ts-pub-accept` sleeps in
//!   `poll` until a subscriber connects.
//!
//! A publisher's `ipc://` connections ask the kernel for a send buffer
//! that holds a bulk frame of a few MiB whole; everything else runs on
//! the platform's socket defaults.
//!
//! Bind/connect order does not matter: connectors retry in the background
//! until the listener appears (ZeroMQ semantics).

pub(crate) mod pubsub;
pub(crate) mod pushpull;

use crate::error::SendError;
use crate::frame::Multipart;
use crate::wire;
use bytes::Bytes;
use crossbeam::channel::{Sender, TrySendError};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long background connectors keep retrying before giving up.
pub(crate) const CONNECT_RETRY_FOR: Duration = Duration::from_secs(30);
/// Interval of connect retries while the listener is not there yet.
pub(crate) const POLL_EVERY: Duration = Duration::from_millis(2);
/// How long dropping a sending socket waits for its writers to flush.
pub(crate) const LINGER: Duration = Duration::from_secs(2);
/// How often an idle writer thread looks whether its connection was
/// retired or has the tail of a short write to flush (it is nudged for
/// both; this is the bound if a nudge found its queue full).
pub(crate) const WRITER_IDLE_TICK: Duration = Duration::from_millis(50);

/// What one connection still owes the wire: messages accepted for its
/// writer thread against messages that thread wrote. Dropping the sending
/// socket lingers on it, and a sender may write on the connection itself
/// only while nothing is owed ([`Outbox::send_staged`]).
#[derive(Default)]
pub(crate) struct Backlog {
    queued: AtomicU64,
    written: AtomicU64,
}

impl Backlog {
    /// Call **before** the item becomes visible in the queue: a sender that
    /// reads "nothing pending" must be right that nothing is ahead of it.
    pub(crate) fn queued(&self) {
        self.queued.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn written(&self) {
        self.written.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn pending(&self) -> bool {
        self.written.load(Ordering::SeqCst) < self.queued.load(Ordering::SeqCst)
    }
}

/// The linger of a dropped sending socket: returns once nothing is
/// `unflushed` any more, or after [`LINGER`] for a peer that stopped
/// reading. A process may exit right after dropping its last socket, and
/// what is still queued then — a publisher's `End`, a consumer's last ack
/// and its LEAVE — is lost with it; the broker transport equally delivers
/// queued messages after the sender drops.
pub(crate) fn linger(mut unflushed: impl FnMut() -> bool) {
    let deadline = Instant::now() + LINGER;
    while unflushed() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The send buffer a publisher asks for on an `ipc://` connection: room
/// for a streamed batch of a few MiB, so its writer hands the kernel the
/// whole frame in one uninterrupted copy and the subscriber's reader is
/// woken for it once. (The kernel grants at most `net.core.wmem_max` and
/// accounts twice the request; memory is only used while frames are
/// queued.) Under the default of 208 KiB the writer sleeps seven or more
/// times inside a 1.5 MiB frame, writer and reader wake each other skb by
/// skb, and the rate follows wherever the scheduler happens to put the
/// threads: the same stream to two subscribers ran five times faster in
/// one epoch than in the next.
const IPC_SEND_BUFFER: usize = 2 << 20;

// No `libc` crate in the build environment; declared against the platform
// C library like the `mmap` calls of `ts-shm`.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const MSG_DONTWAIT: c_int = 0x40;
    pub const MSG_NOSIGNAL: c_int = 0x4000;
    pub const POLLIN: c_short = 0x001;

    /// `struct pollfd`: one descriptor of a poll set, watched for input.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `struct timespec` (64-bit Linux: both fields are `long`).
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Other Unixes: `poll` is POSIX; there is no per-call `MSG_NOSIGNAL`
/// everywhere, so nothing is sent inline there ([`AnyStream::send_nowait`]).
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::os::raw::{c_int, c_short, c_uint};

    pub const POLLIN: c_short = 0x001;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_uint, timeout_ms: c_int) -> c_int;
    }
}

pub(crate) use sys::PollFd;

impl PollFd {
    pub(crate) fn readable(fd: RawFd) -> Self {
        Self {
            fd,
            events: sys::POLLIN,
            revents: 0,
        }
    }

    /// After [`poll_readable`]: a read on the descriptor will not block —
    /// there is data, an end of stream, or an error to collect.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until one of `fds` is ready, for at most `timeout` (`None`: for
/// as long as it takes); an interrupted wait reads as "none ready".
///
/// `ppoll`, not `poll`, where there is one: its timeout is a `timespec`,
/// and callers pass deadlines in nanoseconds that `park_timeout` used to
/// honour — `poll`'s milliseconds let each slip by up to one.
pub(crate) fn poll_readable(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    let ready = {
        let timeout = timeout.map(|t| sys::Timespec {
            tv_sec: t.as_secs().min(i32::MAX as u64) as _,
            tv_nsec: t.subsec_nanos() as _,
        });
        let timeout = timeout
            .as_ref()
            .map_or(std::ptr::null(), std::ptr::from_ref);
        // Safety: `fds` is an exclusive borrow of `fds.len()` `struct
        // pollfd`s, `timeout` is null or points at a `timespec` that
        // outlives the call, and a null signal mask leaves the mask alone.
        unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as _, timeout, std::ptr::null()) }
    };
    #[cfg(not(target_os = "linux"))]
    let ready = {
        let ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as _
        });
        // Safety: `fds` is an exclusive borrow of `fds.len()` `struct
        // pollfd`s.
        unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, ms) }
    };
    if ready == -1 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Frames put on the wire by the thread that sent them, frames that went
/// through a connection's queue and writer thread, and inline attempts the
/// kernel refused with `EAGAIN` (each then counted as queued too).
#[derive(Default)]
pub(crate) struct TransportCounters {
    inline_frames: AtomicU64,
    queued_frames: AtomicU64,
    inline_wouldblock: AtomicU64,
}

/// A snapshot of a sending socket's transport counters
/// ([`crate::PubSocket::transport_stats`],
/// [`crate::PushSocket::transport_stats`]). A publisher counts per
/// subscriber a message went to. All zero on `inproc://`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages the sending thread wrote to the connection itself.
    pub inline_frames: u64,
    /// Messages handed to the connection's queue and writer thread: bulk
    /// frames, and small ones sent while the connection owed the wire
    /// something or the kernel would not take them.
    pub queued_frames: u64,
    /// Inline writes the kernel refused for lack of buffer space.
    pub inline_wouldblock: u64,
}

impl TransportCounters {
    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            inline_frames: self.inline_frames.load(Ordering::Relaxed),
            queued_frames: self.queued_frames.load(Ordering::Relaxed),
            inline_wouldblock: self.inline_wouldblock.load(Ordering::Relaxed),
        }
    }
}

/// What a writer thread finds in its queue.
pub(crate) enum Queued {
    /// A message that staged whole: the bytes as they go on the wire.
    Staged(Bytes),
    /// A message that lends frame bytes to a gather write, with its topic
    /// on a PUB/SUB connection.
    Bulk(Option<Bytes>, Multipart),
    /// Nothing to write. Wakes an idle writer: the tail of a short inline
    /// write waits for it, or its connection was retired.
    Nudge,
}

/// How [`Outbox::send_now`] left a message.
enum Sent {
    /// The kernel has all of it.
    Whole,
    /// The kernel took the head; the tail is the writer's first job.
    /// Nudge it.
    Partly,
    /// Not written at all: queue it.
    Refused,
}

/// The sending half of one connection, shared by every thread that sends
/// on it and its writer thread.
///
/// Order on a connection is kept by two rules. A sender writes inline only
/// under `wire`'s lock and only while the [`Backlog`] owes nothing — and
/// everything queued was counted *before* it became visible — so an inline
/// frame never overtakes a queued one. The writer holds the same lock
/// while it writes, tail of a short inline write first. Senders only ever
/// `try_lock`: one that finds the writer mid-write (or another sender
/// mid-`send`) queues instead of waiting, so nobody but the writer blocks
/// on a peer that stopped reading, and nobody calls a blocking queue
/// `send` with the lock held.
pub(crate) struct Outbox {
    wire: parking_lot::Mutex<WriteHalf>,
    pub(crate) backlog: Backlog,
    counters: std::sync::Arc<TransportCounters>,
}

struct WriteHalf {
    /// `None` until a pusher's connector got through.
    stream: Option<AnyStream>,
    /// What a short inline write left over. Goes out before anything else
    /// on this connection, whatever the queue's policy does to later
    /// messages; counted in the backlog as one queued message.
    tail: Vec<u8>,
}

impl Outbox {
    pub(crate) fn new(
        stream: Option<AnyStream>,
        counters: std::sync::Arc<TransportCounters>,
    ) -> Self {
        Self {
            wire: parking_lot::Mutex::new(WriteHalf {
                stream,
                tail: Vec::new(),
            }),
            backlog: Backlog::default(),
            counters,
        }
    }

    /// The connector's hand-over: from here on senders may write.
    pub(crate) fn connected(&self, stream: AnyStream) {
        self.wire.lock().stream = Some(stream);
    }

    /// This socket's share of the counters it was built over.
    pub(crate) fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Sends a message that staged whole: by the calling thread when the
    /// connection owes nothing, through its queue `tx` (waiting for room
    /// when `block`) otherwise. `Err(Full)` is a message the queue had no
    /// room for, `Err(Disconnected)` a connection that is gone.
    pub(crate) fn send_staged(
        &self,
        tx: &Sender<Queued>,
        staged: &Bytes,
        block: bool,
    ) -> Result<(), TrySendError<Queued>> {
        match self.send_now(staged) {
            Ok(Sent::Whole) => Ok(()),
            Ok(Sent::Partly) => {
                let _ = tx.try_send(Queued::Nudge);
                Ok(())
            }
            Ok(Sent::Refused) => self.enqueue(tx, Queued::Staged(staged.clone()), block),
            Err(_) => Err(TrySendError::Disconnected(Queued::Nudge)),
        }
    }

    /// The fast path: one non-blocking `send` of a staged message by the
    /// calling thread. `Err` means the connection is gone.
    fn send_now(&self, staged: &[u8]) -> io::Result<Sent> {
        let Some(mut wire) = self.wire.try_lock() else {
            return Ok(Sent::Refused);
        };
        let Some(stream) = &wire.stream else {
            return Ok(Sent::Refused);
        };
        if self.backlog.pending() {
            return Ok(Sent::Refused);
        }
        match stream.send_nowait(staged) {
            Ok(n) if n == staged.len() => {
                self.counters.inline_frames.fetch_add(1, Ordering::Relaxed);
                Ok(Sent::Whole)
            }
            Ok(n) => {
                // Counted before the lock is released: the next sender
                // must find something pending.
                self.backlog.queued();
                wire.tail = staged[n..].to_vec();
                self.counters.inline_frames.fetch_add(1, Ordering::Relaxed);
                Ok(Sent::Partly)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let refused = &self.counters.inline_wouldblock;
                refused.fetch_add(1, Ordering::Relaxed);
                Ok(Sent::Refused)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(Sent::Refused),
            Err(e) => Err(e),
        }
    }

    /// The slow path: hands `item` to the writer thread through the
    /// connection's bounded queue `tx`, waiting for room when `block`. The
    /// message is counted as owed *before* it is visible in the queue (see
    /// [`Backlog::queued`]). Call with no lock held.
    pub(crate) fn enqueue(
        &self,
        tx: &Sender<Queued>,
        item: Queued,
        block: bool,
    ) -> Result<(), TrySendError<Queued>> {
        self.backlog.queued();
        let sent = match block {
            true => tx.send(item).map_err(|e| TrySendError::Disconnected(e.0)),
            false => tx.try_send(item),
        };
        match sent {
            Ok(()) => drop(self.counters.queued_frames.fetch_add(1, Ordering::Relaxed)),
            Err(_) => self.backlog.written(), // not owed after all
        }
        sent
    }

    /// The writer thread's step: the tail of a short inline write if there
    /// is one, then `item`, blocking for as long as the peer makes it.
    pub(crate) fn write(&self, item: &Queued) -> io::Result<()> {
        let mut wire = self.wire.lock();
        let WriteHalf { stream, tail } = &mut *wire;
        let stream = stream.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        if !tail.is_empty() {
            stream.write_all(tail)?;
            *tail = Vec::new();
            self.backlog.written();
        }
        match item {
            Queued::Staged(bytes) => stream.write_all(bytes)?,
            Queued::Bulk(Some(topic), msg) => wire::write_topic_data(stream, topic, msg)?,
            Queued::Bulk(None, msg) => wire::write_data(stream, msg)?,
            Queued::Nudge => return Ok(()),
        }
        self.backlog.written();
        Ok(())
    }
}

/// A parsed endpoint URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointAddr {
    /// `inproc://name` — the in-process broker (the full URI is the key).
    Inproc(String),
    /// `ipc:///path/to.sock` — a Unix domain socket.
    Ipc(PathBuf),
    /// `tcp://host:port`.
    Tcp(String),
}

impl EndpointAddr {
    /// Parses an endpoint URI. Names with an unknown or missing scheme
    /// resolve to the in-process broker, preserving the pre-transport
    /// behaviour where any string named a broker endpoint.
    pub fn parse(name: &str) -> Result<EndpointAddr, SendError> {
        if let Some(path) = name.strip_prefix("ipc://") {
            if path.is_empty() {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            }
            return Ok(EndpointAddr::Ipc(PathBuf::from(path)));
        }
        if let Some(hostport) = name.strip_prefix("tcp://") {
            let Some((host, port)) = hostport.rsplit_once(':') else {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            };
            if host.is_empty() || port.parse::<u16>().is_err() {
                return Err(SendError::InvalidEndpoint(name.to_string()));
            }
            return Ok(EndpointAddr::Tcp(hostport.to_string()));
        }
        Ok(EndpointAddr::Inproc(name.to_string()))
    }

    /// True for the in-process broker.
    pub fn is_inproc(&self) -> bool {
        matches!(self, EndpointAddr::Inproc(_))
    }
}

/// Refuses, before anything is queued, a message with a frame the peer's
/// reader would reject (and drop the connection over).
pub(crate) fn check_frames(topic: &[u8], msg: &crate::Multipart) -> Result<(), SendError> {
    let max = crate::wire::MAX_FRAME_BYTES as usize;
    let largest = if msg.is_chunked() {
        msg.byte_len()
    } else {
        msg.frames().iter().map(|f| f.len()).max().unwrap_or(0)
    };
    match largest.max(topic.len()) {
        len if len > max => Err(SendError::FrameTooLarge { len, max }),
        _ => Ok(()),
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub(crate) enum AnyStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl AnyStream {
    pub(crate) fn try_clone(&self) -> io::Result<AnyStream> {
        Ok(match self {
            AnyStream::Tcp(s) => AnyStream::Tcp(s.try_clone()?),
            AnyStream::Unix(s) => AnyStream::Unix(s.try_clone()?),
        })
    }

    fn fd(&self) -> RawFd {
        match self {
            AnyStream::Tcp(s) => s.as_raw_fd(),
            AnyStream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// A poll-set entry for this connection.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::readable(self.fd())
    }

    /// Makes reads (and writes) on this connection non-blocking. The flag
    /// lives in the open file description, which `try_clone`d halves
    /// share: only for a stream nobody else reads or writes — a puller's
    /// accepted connection. Everything else asks per call
    /// ([`AnyStream::send_nowait`]).
    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(true),
            AnyStream::Unix(s) => s.set_nonblocking(true),
        }
    }

    /// One `send` that takes what the socket buffer has room for and never
    /// waits: `Err(WouldBlock)` when that is nothing. `MSG_DONTWAIT` per
    /// call rather than `O_NONBLOCK` on the descriptor, because the
    /// connection's other users (the writer thread's blocking `write`,
    /// a publisher's `ts-pub-reader` on a `try_clone`d half) share the
    /// open file description and must keep blocking; `MSG_NOSIGNAL` so a
    /// peer that died surfaces as `EPIPE` here, never as a `SIGPIPE` in
    /// whatever process embeds us.
    pub(crate) fn send_nowait(&self, buf: &[u8]) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            // Safety: the descriptor stays open for the call (`self` holds
            // it) and `buf` is `buf.len()` readable bytes.
            let sent = unsafe {
                sys::send(
                    self.fd(),
                    buf.as_ptr().cast(),
                    buf.len(),
                    sys::MSG_DONTWAIT | sys::MSG_NOSIGNAL,
                )
            };
            match sent {
                -1 => Err(io::Error::last_os_error()),
                n => Ok(n as usize),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = buf;
            Err(io::ErrorKind::Interrupted.into()) // "queue it", uncounted
        }
    }

    /// Shuts down both directions, unblocking any reader thread.
    pub(crate) fn shutdown(&self) {
        match self {
            AnyStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            AnyStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Asks for [`IPC_SEND_BUFFER`] on a Unix-domain connection. Best
    /// effort: the kernel clamps the request to its limit, and a refusal
    /// leaves the default in place. TCP sizes its own buffers.
    pub(crate) fn grow_send_buffer(&self) {
        #[cfg(target_os = "linux")]
        if let AnyStream::Unix(s) = self {
            use std::os::fd::AsRawFd;
            let bytes = IPC_SEND_BUFFER as std::os::raw::c_int;
            // Safety: `s` keeps the descriptor open for the call, and the
            // option value is a C int read through a pointer to one.
            unsafe {
                sys::setsockopt(
                    s.as_raw_fd(),
                    sys::SOL_SOCKET,
                    sys::SO_SNDBUF,
                    (&bytes as *const std::os::raw::c_int).cast(),
                    std::mem::size_of_val(&bytes) as u32,
                );
            }
        }
    }

    /// The read side, as the OS stream itself. Reading through the enum
    /// would lose the streams' own `read_buf` (a stable `Read` impl can
    /// only forward `read`), and the fallback std then uses zero-fills
    /// every destination buffer before reading into it.
    pub(crate) fn into_reader(self) -> Box<dyn io::Read + Send> {
        match self {
            AnyStream::Tcp(s) => Box::new(s),
            AnyStream::Unix(s) => Box::new(s),
        }
    }

    fn connect_once(addr: &EndpointAddr) -> io::Result<AnyStream> {
        match addr {
            EndpointAddr::Tcp(hostport) => {
                let s = TcpStream::connect(hostport)?;
                s.set_nodelay(true).ok();
                Ok(AnyStream::Tcp(s))
            }
            EndpointAddr::Ipc(path) => Ok(AnyStream::Unix(UnixStream::connect(path)?)),
            EndpointAddr::Inproc(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "inproc endpoints use the broker",
            )),
        }
    }

    /// Connects with ZeroMQ-style patience: retries until the listener
    /// appears, the deadline passes, or `give_up` returns true.
    pub(crate) fn connect_retry(
        addr: &EndpointAddr,
        timeout: Duration,
        give_up: impl Fn() -> bool,
    ) -> io::Result<AnyStream> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect_once(addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if give_up() {
                        return Err(io::Error::new(io::ErrorKind::Interrupted, "socket dropped"));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(POLL_EVERY);
                }
            }
        }
    }
}

/// Plain `read`s, for a [`wire::Decoder`] over a non-blocking connection
/// (it reads into memory that is already initialised, so the concern of
/// [`AnyStream::into_reader`] does not arise).
impl io::Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write_vectored(bufs),
            AnyStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener of either family. Non-blocking: whoever accepts polls
/// it with something else (a puller's connections, a stop descriptor).
pub(crate) enum AnyListener {
    Tcp(TcpListener),
    /// Keeps the socket path so drop can unlink it.
    Unix(UnixListener, PathBuf),
}

impl AnyListener {
    pub(crate) fn bind(addr: &EndpointAddr) -> Result<AnyListener, SendError> {
        match addr {
            EndpointAddr::Tcp(hostport) => {
                let l = TcpListener::bind(hostport)
                    .map_err(|e| bind_error(&format!("tcp://{hostport}"), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| SendError::Io(e.to_string()))?;
                Ok(AnyListener::Tcp(l))
            }
            EndpointAddr::Ipc(path) => {
                // A leftover socket file from a dead process would make
                // bind fail forever; only an active listener should.
                if UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| bind_error(&format!("ipc://{}", path.display()), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| SendError::Io(e.to_string()))?;
                Ok(AnyListener::Unix(l, path.clone()))
            }
            EndpointAddr::Inproc(name) => Err(SendError::InvalidEndpoint(name.clone())),
        }
    }

    /// A poll-set entry that turns ready when a connection is pending.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::readable(match self {
            AnyListener::Tcp(l) => l.as_raw_fd(),
            AnyListener::Unix(l, _) => l.as_raw_fd(),
        })
    }

    /// One accept attempt; `Ok(None)` when no connection is pending.
    pub(crate) fn accept(&self) -> io::Result<Option<AnyStream>> {
        match self {
            AnyListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true).ok();
                    s.set_nonblocking(false)?;
                    Ok(Some(AnyStream::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AnyListener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(AnyStream::Unix(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// The concrete local address (resolves `tcp://host:0` to the real
    /// port).
    pub(crate) fn local_endpoint(&self) -> Option<String> {
        match self {
            AnyListener::Tcp(l) => l.local_addr().ok().map(|a| format!("tcp://{a}")),
            AnyListener::Unix(_, path) => Some(format!("ipc://{}", path.display())),
        }
    }
}

impl Drop for AnyListener {
    fn drop(&mut self) {
        if let AnyListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn bind_error(endpoint: &str, e: io::Error) -> SendError {
    if e.kind() == io::ErrorKind::AddrInUse {
        SendError::AddrInUse(endpoint.to_string())
    } else {
        SendError::Io(format!("bind {endpoint}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn an_ipc_send_buffer_takes_a_whole_streamed_batch() {
        use std::io::Write;
        // Nobody reads: what one non-blocking `write` accepts is what the
        // send buffer holds.
        let accepted = |grow: bool| {
            let (tx, _rx) = UnixStream::pair().unwrap();
            let mut tx = AnyStream::Unix(tx);
            if grow {
                tx.grow_send_buffer();
            }
            if let AnyStream::Unix(s) = &tx {
                s.set_nonblocking(true).unwrap();
            }
            tx.write(&vec![0u8; IPC_SEND_BUFFER]).unwrap()
        };
        let limit: usize = std::fs::read_to_string("/proc/sys/net/core/wmem_max")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let (default, grown) = (accepted(false), accepted(true));
        assert!(grown >= default, "{grown} < {default}");
        if limit >= IPC_SEND_BUFFER {
            let batch = 3 * 128 * 128 * 32; // 1.5 MiB
            assert!(grown >= batch, "{grown} of a {batch} byte frame");
        }
    }

    #[test]
    fn parse_schemes() {
        assert_eq!(
            EndpointAddr::parse("inproc://x").unwrap(),
            EndpointAddr::Inproc("inproc://x".into())
        );
        assert_eq!(
            EndpointAddr::parse("ipc:///tmp/a.sock").unwrap(),
            EndpointAddr::Ipc(PathBuf::from("/tmp/a.sock"))
        );
        assert_eq!(
            EndpointAddr::parse("tcp://127.0.0.1:5555").unwrap(),
            EndpointAddr::Tcp("127.0.0.1:5555".into())
        );
        // bare names stay broker keys (back-compat)
        assert!(EndpointAddr::parse("just-a-name").unwrap().is_inproc());
        // malformed remote URIs are rejected
        assert!(EndpointAddr::parse("tcp://nohostport").is_err());
        assert!(EndpointAddr::parse("tcp://host:notaport").is_err());
        assert!(EndpointAddr::parse("ipc://").is_err());
    }

    #[test]
    fn stale_ipc_socket_file_is_reclaimed() {
        let path = std::env::temp_dir().join(format!("ts-sock-stale-{}.sock", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let addr = EndpointAddr::Ipc(path.clone());
        let l = AnyListener::bind(&addr).unwrap();
        drop(l);
        assert!(!path.exists(), "listener drop unlinks the socket file");
    }
}
