//! The in-process broker: named endpoints shared by all sockets of a
//! [`Context`].

use crate::frame::Multipart;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default per-queue high-water mark (messages).
pub const DEFAULT_HWM: usize = 1024;

/// Prefix list shared between the broker entry and the `SubSocket` handle.
pub(crate) type SharedPrefixes = Arc<Mutex<Vec<Vec<u8>>>>;

pub(crate) struct SubEntry {
    pub(crate) id: u64,
    pub(crate) prefixes: SharedPrefixes,
    pub(crate) tx: Sender<(Bytes, Multipart)>,
    /// Rung after each delivery; the subscriber parks on it in
    /// `SubSocket::wait`.
    pub(crate) bell: crate::Bell,
}

impl SubEntry {
    pub(crate) fn matches(&self, topic: &[u8]) -> bool {
        self.prefixes
            .lock()
            .iter()
            .any(|p| topic.starts_with(p.as_slice()))
    }
}

pub(crate) struct PubSubEndpoint {
    pub(crate) bound: bool,
    pub(crate) hwm: usize,
    pub(crate) next_sub_id: u64,
    pub(crate) subs: Vec<Arc<SubEntry>>,
}

pub(crate) struct PushPullEndpoint {
    pub(crate) bound: bool,
    pub(crate) tx: Sender<Multipart>,
    /// Rung by every pusher after it enqueues; the puller parks on it.
    pub(crate) bell: crate::Bell,
    /// Present until a `PullSocket` binds and takes it.
    pub(crate) rx: Option<Receiver<Multipart>>,
}

pub(crate) enum BrokerEntry {
    PubSub(PubSubEndpoint),
    PushPull(PushPullEndpoint),
}

pub(crate) struct Broker {
    pub(crate) endpoints: Mutex<HashMap<String, BrokerEntry>>,
    pub(crate) default_hwm: usize,
}

/// A socket context: the namespace in which endpoints live.
///
/// Mirrors a ZeroMQ context. All sockets created from clones of the same
/// context can talk to each other; separate contexts are fully isolated.
#[derive(Clone)]
pub struct Context {
    pub(crate) broker: Arc<Broker>,
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let eps = self.broker.endpoints.lock();
        f.debug_struct("Context")
            .field("endpoints", &eps.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Context {
    /// A context with the default high-water mark.
    pub fn new() -> Self {
        Self::with_hwm(DEFAULT_HWM)
    }

    /// A context whose queues hold at most `hwm` messages.
    pub fn with_hwm(hwm: usize) -> Self {
        Self {
            broker: Arc::new(Broker {
                endpoints: Mutex::new(HashMap::new()),
                default_hwm: hwm.max(1),
            }),
        }
    }

    /// Names of currently registered endpoints (diagnostics).
    pub fn endpoint_names(&self) -> Vec<String> {
        self.broker.endpoints.lock().keys().cloned().collect()
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
/// * `inproc://base` (and bare names) → `inproc://base/data|ctrl` — broker
///   keys, unchanged from the in-process-only design;
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
        let a = Context::new();
        let b = Context::new();
        let _p = crate::PubSocket::bind(&a, "inproc://x").unwrap();
        assert!(a.endpoint_names().contains(&"inproc://x".to_string()));
        assert!(b.endpoint_names().is_empty());
        // binding the same name in the other context succeeds
        let _p2 = crate::PubSocket::bind(&b, "inproc://x").unwrap();
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

    #[test]
    fn sub_entry_prefix_matching() {
        let (tx, _rx) = crossbeam::channel::bounded(1);
        let e = SubEntry {
            id: 0,
            prefixes: Arc::new(Mutex::new(vec![b"batch".to_vec()])),
            tx,
            bell: crate::Bell::for_thread(),
        };
        assert!(e.matches(b"batch/17"));
        assert!(!e.matches(b"ctrl/17"));
        e.prefixes.lock().push(Vec::new()); // empty prefix = everything
        assert!(e.matches(b"ctrl/17"));
    }
}
