//! The socket [`Context`] — the namespace `inproc://` names live in — and
//! the endpoint layout of a deployment ([`EndpointMap`]).

use crate::error::SendError;
use crate::transport::Addr;
use crate::uri::{Endpoint, Scheme};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-connection high-water mark (messages).
pub const DEFAULT_HWM: usize = 1024;

/// A socket context: the namespace in which `inproc://` endpoints live,
/// and the high-water mark its sockets queue up to.
///
/// Mirrors a ZeroMQ context. Sockets created from clones of one context
/// reach each other's `inproc://` endpoints; another context's are
/// invisible to them, even under the same name. There is one transport:
/// an `inproc://name` endpoint is a Unix-domain stream socket like an
/// `ipc://` one, named after this context and a keyed hash of `name` — in
/// Linux's abstract socket namespace (no file; the kernel frees the name
/// with the listener), elsewhere a socket file in a directory of this
/// context's own, under the system temp dir, that only its user may open.
///
/// The names are private to the process: the hash key is drawn at random
/// per process, so another process can neither predict a name nor meet
/// one by accident (two processes in separate PID namespaces may share a
/// pid and a network namespace), and on Linux both ends check the peer's
/// credentials — a listener hangs up on a connection from another
/// process, a connector refuses a name another process bound.
#[derive(Debug, Clone)]
pub struct Context {
    inner: Arc<Namespace>,
}

#[derive(Debug)]
struct Namespace {
    /// `<pid>.<n>`: unique among the contexts of this process.
    id: String,
    hwm: usize,
}

impl Context {
    /// A context with the default high-water mark.
    pub fn new() -> Self {
        Self::with_hwm(DEFAULT_HWM)
    }

    /// A context whose sockets queue at most `hwm` messages per connection
    /// on top of what the kernel's socket buffers hold.
    pub fn with_hwm(hwm: usize) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Self {
            inner: Arc::new(Namespace {
                id: format!("{}.{n}", std::process::id()),
                hwm: hwm.max(1),
            }),
        }
    }

    pub(crate) fn hwm(&self) -> usize {
        self.inner.hwm
    }

    /// Where the sockets of this context find `endpoint`.
    pub(crate) fn resolve(&self, endpoint: &str) -> Result<Addr, SendError> {
        let invalid = || SendError::InvalidEndpoint(endpoint.to_string());
        let parsed: Endpoint = endpoint.parse().map_err(|_| invalid())?;
        Ok(match (parsed.scheme(), parsed.port()) {
            (Scheme::Tcp, Some(port)) => Addr::Tcp(format!("{}:{port}", parsed.host())),
            (Scheme::Tcp, None) => return Err(invalid()),
            (Scheme::Ipc, _) => Addr::Path(PathBuf::from(parsed.host())),
            (Scheme::Inproc, _) => self.inproc(parsed.host()),
        })
    }

    /// The socket behind `inproc://name` in this context.
    #[cfg(target_os = "linux")]
    fn inproc(&self, name: &str) -> Addr {
        Addr::Abstract(format!(
            "ts-inproc/{}/{:016x}",
            self.inner.id,
            secret_hash(name)
        ))
    }

    /// The socket behind `inproc://name` in this context.
    #[cfg(not(target_os = "linux"))]
    fn inproc(&self, name: &str) -> Addr {
        use std::os::unix::fs::DirBuilderExt;
        let dir = socket_dir(&self.inner.id);
        // A failure here surfaces as the bind's or connect's own error.
        let _ = std::fs::DirBuilder::new().mode(0o700).create(&dir);
        Addr::Path(dir.join(format!("{:016x}.sock", secret_hash(name))))
    }
}

/// `value` hashed with a key drawn at random once per process: stable for
/// the process's lifetime, unpredictable to any other process.
fn secret_hash(value: &str) -> u64 {
    use std::hash::BuildHasher;
    static KEY: std::sync::OnceLock<std::collections::hash_map::RandomState> =
        std::sync::OnceLock::new();
    KEY.get_or_init(Default::default).hash_one(value)
}

/// Where a context keeps its socket files, where there is no abstract
/// namespace.
#[cfg(not(target_os = "linux"))]
fn socket_dir(id: &str) -> PathBuf {
    let dir = format!("ts-inproc-{id}-{:016x}", secret_hash(id));
    std::env::temp_dir().join(dir)
}

#[cfg(not(target_os = "linux"))]
impl Drop for Namespace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(socket_dir(&self.id));
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives shard `shard`'s base endpoint from a group base endpoint,
/// respecting the transport scheme. Shard 0 *is* the base endpoint, so a
/// single-shard group is wire-compatible with an unsharded deployment:
///
/// * `inproc://name` → `inproc://name/s<shard>`;
/// * `ipc:///path.sock` → `ipc:///path.sock.s<shard>` (a socket file per
///   shard, next to the base);
/// * `tcp://host:port` → `tcp://host:port + 2*shard` — each shard claims
///   two consecutive ports (data and control), so shard bases are spaced
///   two apart. Out-of-range derived ports are rejected at bind/parse
///   time, like the channel derivation.
pub fn shard_endpoint(base: &str, shard: usize) -> String {
    if shard == 0 {
        return base.to_string();
    }
    if base.starts_with("ipc://") {
        return format!("{base}.s{shard}");
    }
    if let Some(hostport) = base.strip_prefix("tcp://") {
        if let Some((host, port)) = hostport.rsplit_once(':') {
            if let Ok(port) = port.parse::<u16>() {
                return format!("tcp://{host}:{}", port as u64 + 2 * shard as u64);
            }
        }
    }
    format!("{base}/s{shard}")
}

/// Derives the per-channel endpoint from a base endpoint URI, respecting
/// the transport scheme:
///
/// * `inproc://base` (and bare names) → `inproc://base/data|ctrl`;
/// * `ipc:///path/to.sock` → `ipc:///path/to.sock.data|ctrl` — two Unix
///   socket files next to each other;
/// * `tcp://host:port` → data on `port`, control on `port + 1`. Both
///   channels need known ports, so ephemeral binds (`tcp://host:0`) are
///   not supported through endpoint maps — pick explicit ports below
///   65535.
pub fn channel_endpoint(base: &str, channel: &str) -> String {
    if base.starts_with("ipc://") {
        return format!("{base}.{channel}");
    }
    if let Some(hostport) = base.strip_prefix("tcp://") {
        if let Some((host, port)) = hostport.rsplit_once(':') {
            if let Ok(port) = port.parse::<u16>() {
                let offset: u32 = if channel == "ctrl" { 1 } else { 0 };
                // Widened arithmetic: a base of 65535 derives the
                // out-of-range "65536", which bind rejects as an invalid
                // endpoint instead of this function panicking/wrapping.
                return format!("tcp://{host}:{}", port as u32 + offset);
            }
        }
    }
    format!("{base}/{channel}")
}

/// The full socket-endpoint layout of one deployment, derived from a
/// single base URI: per-shard data (PUB/SUB) and control (PUSH/PULL)
/// endpoints, scheme-aware.
///
/// This is the single place endpoint derivation lives — producer and
/// consumer configurations both resolve their channels through it, and
/// the attach handshake describes a topology as nothing more than
/// `(base, shards)` plus an optional sparse **override table**: a
/// multi-host producer pins shard `i`'s base to an explicit URI (a
/// different host, say) instead of the scheme-derived default, and the
/// WELCOME carries the table so consumers rebuild the identical map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointMap {
    base: String,
    shards: usize,
    /// Sparse `(shard, base URI)` overrides, sorted by shard.
    overrides: Vec<(u32, String)>,
}

impl EndpointMap {
    /// A map over `shards` shard pipelines rooted at `base` (clamped to at
    /// least one shard; shard 0 is the base itself).
    pub fn new(base: impl Into<String>, shards: usize) -> Self {
        Self {
            base: base.into(),
            shards: shards.max(1),
            overrides: Vec::new(),
        }
    }

    /// A map whose listed shards use explicit base URIs instead of the
    /// scheme-derived defaults. Later entries for the same shard win.
    pub fn with_overrides(
        base: impl Into<String>,
        shards: usize,
        overrides: impl IntoIterator<Item = (u32, String)>,
    ) -> Self {
        let mut map = Self::new(base, shards);
        for (shard, uri) in overrides {
            map.set_override(shard, uri);
        }
        map
    }

    /// Pins shard `shard`'s base endpoint to `uri` (replacing any earlier
    /// override for the same shard).
    pub fn set_override(&mut self, shard: u32, uri: impl Into<String>) {
        let uri = uri.into();
        match self.overrides.binary_search_by_key(&shard, |(s, _)| *s) {
            Ok(i) => self.overrides[i].1 = uri,
            Err(i) => self.overrides.insert(i, (shard, uri)),
        }
    }

    /// The sparse override table, sorted by shard (what the WELCOME
    /// advertises).
    pub fn overrides(&self) -> &[(u32, String)] {
        &self.overrides
    }

    /// The base endpoint URI the map was built from.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Number of shards in the topology.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard `shard`'s base endpoint: the override if one is pinned,
    /// otherwise the scheme-derived default ([`shard_endpoint`]).
    pub fn shard_base(&self, shard: usize) -> String {
        if let Ok(i) = self
            .overrides
            .binary_search_by_key(&(shard as u32), |(s, _)| *s)
        {
            return self.overrides[i].1.clone();
        }
        shard_endpoint(&self.base, shard)
    }

    /// Shard `shard`'s data (PUB/SUB) endpoint.
    pub fn data(&self, shard: usize) -> String {
        channel_endpoint(&self.shard_base(shard), "data")
    }

    /// Shard `shard`'s control (PUSH/PULL) endpoint.
    pub fn ctrl(&self, shard: usize) -> String {
        channel_endpoint(&self.shard_base(shard), "ctrl")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_are_isolated() {
        use crate::{Multipart, PubSocket, RecvError, SubSocket};
        use std::time::Duration;
        let a = Context::new();
        let b = Context::new();
        let pa = PubSocket::bind(&a, "inproc://x").unwrap();
        // The same name in the other context is another socket: binding
        // it succeeds, and its subscriber hears only its own publisher.
        let pb = PubSocket::bind(&b, "inproc://x").unwrap();
        let sub = SubSocket::connect(&b, "inproc://x");
        sub.subscribe(b"");
        assert_eq!((pa.subscriber_count(), pb.subscriber_count()), (0, 1));
        let msg = |s: &'static [u8]| Multipart::single(bytes::Bytes::from_static(s));
        assert_eq!(pa.send(b"t", msg(b"a")).unwrap(), 0);
        assert_eq!(pb.send(b"t", msg(b"b")).unwrap(), 1);
        let (_, got) = sub.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(&got.frames()[0][..], b"b");
        assert_eq!(sub.try_recv(), Ok(None));
        // A clone is the same namespace.
        assert!(PubSocket::bind(&a.clone(), "inproc://x").is_err());
        drop(pb);
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10)),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn endpoints_resolve_per_scheme() {
        let ctx = Context::new();
        assert_eq!(
            ctx.resolve("ipc:///tmp/a.sock").unwrap(),
            Addr::Path("/tmp/a.sock".into())
        );
        assert_eq!(
            ctx.resolve("tcp://127.0.0.1:5555").unwrap(),
            Addr::Tcp("127.0.0.1:5555".into())
        );
        // A bare name is an in-process name: the same one as with the
        // scheme spelled out, and another one in another context.
        let x = ctx.resolve("inproc://x").unwrap();
        assert_eq!(ctx.resolve("x").unwrap(), x);
        assert_ne!(Context::new().resolve("inproc://x").unwrap(), x);
        let long = format!("inproc://{}", "n".repeat(300));
        assert_ne!(ctx.resolve(&long).unwrap(), x);
        for bad in ["tcp://nohostport", "tcp://host:notaport", "ipc://", ""] {
            assert!(ctx.resolve(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shard_endpoints_follow_scheme() {
        assert_eq!(shard_endpoint("inproc://ts", 0), "inproc://ts");
        assert_eq!(shard_endpoint("inproc://ts", 2), "inproc://ts/s2");
        assert_eq!(
            shard_endpoint("ipc:///tmp/ts.sock", 0),
            "ipc:///tmp/ts.sock"
        );
        assert_eq!(
            shard_endpoint("ipc:///tmp/ts.sock", 1),
            "ipc:///tmp/ts.sock.s1"
        );
        assert_eq!(
            shard_endpoint("tcp://127.0.0.1:6000", 0),
            "tcp://127.0.0.1:6000"
        );
        // Each shard owns two consecutive ports (data + ctrl).
        assert_eq!(
            shard_endpoint("tcp://127.0.0.1:6000", 1),
            "tcp://127.0.0.1:6002"
        );
        assert_eq!(
            shard_endpoint("tcp://127.0.0.1:6000", 3),
            "tcp://127.0.0.1:6006"
        );
    }

    #[test]
    fn endpoint_map_derives_every_channel_from_one_base() {
        let m = EndpointMap::new("tcp://127.0.0.1:7000", 2);
        assert_eq!(m.base(), "tcp://127.0.0.1:7000");
        assert_eq!(m.shards(), 2);
        assert_eq!(m.data(0), "tcp://127.0.0.1:7000");
        assert_eq!(m.ctrl(0), "tcp://127.0.0.1:7001");
        assert_eq!(m.data(1), "tcp://127.0.0.1:7002");
        assert_eq!(m.ctrl(1), "tcp://127.0.0.1:7003");
        let m = EndpointMap::new("ipc:///tmp/ts.sock", 1);
        assert_eq!(m.data(0), "ipc:///tmp/ts.sock.data");
        assert_eq!(m.ctrl(0), "ipc:///tmp/ts.sock.ctrl");
        assert_eq!(m.data(1), "ipc:///tmp/ts.sock.s1.data");
        let m = EndpointMap::new("inproc://ts", 0);
        assert_eq!(m.shards(), 1, "clamped to one shard");
        assert_eq!(m.data(0), "inproc://ts/data");
        assert_eq!(m.ctrl(2), "inproc://ts/s2/ctrl");
    }

    #[test]
    fn overrides_replace_derivation_per_shard_only() {
        let m = EndpointMap::with_overrides(
            "tcp://10.0.0.1:7000",
            3,
            [(1u32, "tcp://10.0.0.2:9000".to_string())],
        );
        // Non-overridden shards keep the scheme-derived layout…
        assert_eq!(m.data(0), "tcp://10.0.0.1:7000");
        assert_eq!(m.ctrl(0), "tcp://10.0.0.1:7001");
        assert_eq!(m.data(2), "tcp://10.0.0.1:7004");
        // …while the pinned shard's channels derive from its override.
        assert_eq!(m.shard_base(1), "tcp://10.0.0.2:9000");
        assert_eq!(m.data(1), "tcp://10.0.0.2:9000");
        assert_eq!(m.ctrl(1), "tcp://10.0.0.2:9001");
        assert_eq!(m.overrides(), &[(1, "tcp://10.0.0.2:9000".to_string())]);
        // Re-pinning the same shard replaces, not duplicates.
        let mut m = m;
        m.set_override(1, "ipc:///tmp/s1.sock");
        assert_eq!(m.data(1), "ipc:///tmp/s1.sock.data");
        assert_eq!(m.overrides().len(), 1);
    }
}
