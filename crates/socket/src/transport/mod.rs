//! Cross-process transports: `ipc://` (Unix domain sockets) and `tcp://`.
//!
//! The in-process broker ([`crate::endpoint`]) keeps its crossbeam-queue
//! fast path for `inproc://` endpoints; this module provides the same
//! socket semantics across OS processes. Background reader/writer threads
//! bridge each connection onto the *same* bounded `(topic, Multipart)`
//! queues the broker uses, so `PubSocket`/`SubSocket`/`PushSocket`/
//! `PullSocket` behave identically no matter which scheme the endpoint
//! URI names:
//!
//! * per-subscriber bounded queues with the socket's high-water mark, and
//!   the publisher's [`crate::SendPolicy`] applied per peer;
//! * prefix subscriptions evaluated publisher-side (no payload bytes move
//!   for non-matching topics);
//! * peer disconnects surface as [`crate::RecvError::Closed`] after the
//!   queue drains, exactly like the broker.
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
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long background connectors keep retrying before giving up.
pub(crate) const CONNECT_RETRY_FOR: Duration = Duration::from_secs(30);
/// Poll interval of accept loops and connect retries.
pub(crate) const POLL_EVERY: Duration = Duration::from_millis(2);
/// How long dropping a sending socket waits for its writers to flush.
pub(crate) const LINGER: Duration = Duration::from_secs(2);

/// What one writer thread still owes the wire: messages accepted into its
/// queue against messages written to its socket. Dropping the sending
/// socket lingers on it.
#[derive(Default)]
pub(crate) struct Backlog {
    queued: AtomicU64,
    written: AtomicU64,
}

impl Backlog {
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

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;

    // No `libc` crate in the build environment; declared against the
    // platform C library like the `mmap` calls of `ts-shm`.
    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
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

/// A bound listener of either family. Non-blocking so accept loops can
/// observe a stop flag.
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
