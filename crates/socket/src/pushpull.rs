//! PUSH/PULL: many-to-one fan-in, used for ACKs, heartbeats and joins.
//!
//! The endpoint URI picks the transport: `inproc://` stays on the
//! in-process broker; `ipc://` and `tcp://` run over real sockets (see
//! [`crate::transport`]).

use crate::endpoint::{ring, BrokerEntry, Context, Notify, PushPullEndpoint};
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::pushpull::{StreamPull, StreamPush};
use crate::transport::EndpointAddr;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::time::Duration;

fn ensure_endpoint(ctx: &Context, name: &str) -> Result<(Sender<Multipart>, Notify), SendError> {
    let mut eps = ctx.broker.endpoints.lock();
    match eps.get(name) {
        Some(BrokerEntry::PushPull(pp)) => Ok((pp.tx.clone(), pp.notify.clone())),
        Some(BrokerEntry::PubSub(_)) => Err(SendError::AddrInUse(name.to_string())),
        None => {
            let (tx, rx) = channel::bounded(ctx.broker.default_hwm);
            let notify = Notify::default();
            eps.insert(
                name.to_string(),
                BrokerEntry::PushPull(PushPullEndpoint {
                    bound: false,
                    tx: tx.clone(),
                    notify: notify.clone(),
                    rx: Some(rx),
                }),
            );
            Ok((tx, notify))
        }
    }
}

/// Broker-backed puller; removing the endpoint on drop disconnects
/// pushers.
struct BrokerPull {
    ctx: Context,
    name: String,
    rx: Receiver<Multipart>,
    notify: Notify,
}

impl Drop for BrokerPull {
    fn drop(&mut self) {
        // Remove the endpoint: connected pushers observe `Disconnected`.
        self.ctx.broker.endpoints.lock().remove(&self.name);
    }
}

enum PullInner {
    Broker(BrokerPull),
    Stream(StreamPull),
}

/// The receiving side of a PUSH/PULL endpoint. One binder per endpoint.
pub struct PullSocket {
    inner: PullInner,
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
        let addr = EndpointAddr::parse(name)?;
        if !addr.is_inproc() {
            return Ok(Self {
                inner: PullInner::Stream(StreamPull::bind(&addr, name, ctx.broker.default_hwm)?),
            });
        }
        ensure_endpoint(ctx, name)?;
        let mut eps = ctx.broker.endpoints.lock();
        match eps.get_mut(name) {
            Some(BrokerEntry::PushPull(pp)) => {
                if pp.bound || pp.rx.is_none() {
                    return Err(SendError::AddrInUse(name.to_string()));
                }
                pp.bound = true;
                let rx = pp.rx.take().expect("checked above");
                Ok(Self {
                    inner: PullInner::Broker(BrokerPull {
                        ctx: ctx.clone(),
                        name: name.to_string(),
                        rx,
                        notify: pp.notify.clone(),
                    }),
                })
            }
            _ => Err(SendError::AddrInUse(name.to_string())),
        }
    }

    /// Registers `hook` to be called after every message is enqueued for
    /// this socket — by whichever thread enqueued it (an in-process pusher,
    /// or a connection's reader) — so an owner that waits on several
    /// sources can park on one wake-up of its own instead of blocking in
    /// [`PullSocket::recv_timeout`], then drain with
    /// [`PullSocket::try_recv`]. Keep it cheap and non-blocking (an
    /// `unpark`, a flag). One hook per socket: returns false, leaving the
    /// first in place, when one was already registered. Messages queued
    /// before registration ring nothing; drain once after registering.
    pub fn set_notify(&self, hook: impl Fn() + Send + Sync + 'static) -> bool {
        let notify = match &self.inner {
            PullInner::Broker(b) => &b.notify,
            PullInner::Stream(s) => s.notify(),
        };
        notify.set(Box::new(hook)).is_ok()
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Multipart, RecvError> {
        match &self.inner {
            PullInner::Broker(b) => match b.rx.recv_timeout(timeout) {
                Ok(m) => Ok(m),
                Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
                Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
            },
            PullInner::Stream(s) => s.recv_timeout(timeout),
        }
    }

    /// Non-blocking receive; `Ok(None)` when nothing is queued.
    pub fn try_recv(&self) -> Result<Option<Multipart>, RecvError> {
        match &self.inner {
            PullInner::Broker(b) => match b.rx.try_recv() {
                Ok(m) => Ok(Some(m)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(RecvError::Closed),
            },
            PullInner::Stream(s) => s.try_recv(),
        }
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Multipart> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        match &self.inner {
            PullInner::Broker(b) => b.rx.len(),
            PullInner::Stream(s) => s.queued(),
        }
    }

    /// The endpoint this socket is bound to. For `tcp://host:0` binds this
    /// is the resolved address with the real port.
    pub fn endpoint(&self) -> &str {
        match &self.inner {
            PullInner::Broker(b) => &b.name,
            PullInner::Stream(s) => s.endpoint(),
        }
    }
}

enum PushInner {
    Broker(Sender<Multipart>, Notify),
    Stream(StreamPush),
}

/// The sending side of a PUSH/PULL endpoint. Many pushers may connect.
pub struct PushSocket {
    inner: PushInner,
}

impl std::fmt::Debug for PushSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PushSocket").finish_non_exhaustive()
    }
}

impl PushSocket {
    /// Connects a pusher; creates the endpoint if it does not exist yet.
    /// Remote (`ipc://`/`tcp://`) connects retry in the background until
    /// the puller binds; messages queue locally meanwhile.
    ///
    /// # Panics
    /// Panics if the endpoint name is malformed or used by a PUB/SUB pair
    /// (wiring bug).
    pub fn connect(ctx: &Context, name: &str) -> Self {
        let addr =
            EndpointAddr::parse(name).unwrap_or_else(|e| panic!("invalid endpoint {name}: {e}"));
        if !addr.is_inproc() {
            return Self {
                inner: PushInner::Stream(StreamPush::connect(addr, ctx.broker.default_hwm)),
            };
        }
        let (tx, notify) = ensure_endpoint(ctx, name)
            .unwrap_or_else(|_| panic!("endpoint {name} is a PUB/SUB endpoint"));
        Self {
            inner: PushInner::Broker(tx, notify),
        }
    }

    /// Sends a message, blocking while the queue is full.
    pub fn send(&self, msg: Multipart) -> Result<(), SendError> {
        match &self.inner {
            PushInner::Broker(tx, notify) => {
                tx.send(msg.into_contiguous())
                    .map_err(|_| SendError::Disconnected)?;
                ring(notify);
                Ok(())
            }
            PushInner::Stream(s) => s.send(msg),
        }
    }

    /// Non-blocking send.
    pub fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        match &self.inner {
            PushInner::Broker(tx, notify) => match tx.try_send(msg.into_contiguous()) {
                Ok(()) => {
                    ring(notify);
                    Ok(())
                }
                Err(TrySendError::Full(_)) => Err(SendError::Full),
                Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
            },
            PushInner::Stream(s) => s.try_send(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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
        let got = pull.drain();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn connect_before_bind_preserves_messages() {
        let ctx = Context::new();
        let push = PushSocket::connect(&ctx, "inproc://acks");
        push.send(msg(b"early")).unwrap();
        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let m = pull.recv_timeout(Duration::from_millis(100)).unwrap();
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
        drop(pull);
        assert_eq!(push.send(msg(b"x")).unwrap_err(), SendError::Disconnected);
    }

    #[test]
    fn try_send_reports_full() {
        let ctx = Context::with_hwm(1);
        let _pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let push = PushSocket::connect(&ctx, "inproc://acks");
        push.try_send(msg(b"1")).unwrap();
        assert_eq!(push.try_send(msg(b"2")).unwrap_err(), SendError::Full);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let ctx = Context::new();
        let _p = crate::PubSocket::bind(&ctx, "inproc://x").unwrap();
        assert!(PullSocket::bind(&ctx, "inproc://x").is_err());
    }

    #[test]
    fn notify_hook_rings_once_per_enqueue_on_both_transports() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let ctx = Context::new();
        let path = std::env::temp_dir().join(format!("ts-notify-{}.sock", std::process::id()));
        for name in [
            "inproc://rung".to_string(),
            format!("ipc://{}", path.display()),
        ] {
            // A pusher that connected before the hook existed rings it too.
            let early = PushSocket::connect(&ctx, &name);
            let pull = PullSocket::bind(&ctx, &name).unwrap();
            let rings = Arc::new(AtomicUsize::new(0));
            let counter = rings.clone();
            assert!(pull.set_notify(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
            assert!(!pull.set_notify(|| {}), "one hook per socket");
            early.send(msg(b"a")).unwrap();
            PushSocket::connect(&ctx, &name).send(msg(b"b")).unwrap();
            for _ in 0..2 {
                pull.recv_timeout(Duration::from_secs(2)).unwrap();
            }
            // The hook runs after the enqueue, so a received message may
            // be a moment ahead of its ring on the stream transport.
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while rings.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(rings.load(Ordering::SeqCst), 2, "{name}");
        }
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
}
