//! PUSH/PULL: many-to-one fan-in, used for ACKs, heartbeats and joins.
//!
//! The endpoint URI picks the transport: `inproc://` stays on the
//! in-process broker; `ipc://` and `tcp://` run over real sockets (see
//! [`crate::transport`]).

use crate::bell::Bell;
use crate::endpoint::{BrokerEntry, Context, PushPullEndpoint};
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::pushpull::{StreamPull, StreamPush};
use crate::transport::{EndpointAddr, TransportStats};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::time::Duration;

fn ensure_endpoint(ctx: &Context, name: &str) -> Result<(Sender<Multipart>, Bell), SendError> {
    let mut eps = ctx.broker.endpoints.lock();
    match eps.get(name) {
        Some(BrokerEntry::PushPull(pp)) => Ok((pp.tx.clone(), pp.bell.clone())),
        Some(BrokerEntry::PubSub(_)) => Err(SendError::AddrInUse(name.to_string())),
        None => {
            let (tx, rx) = channel::bounded(ctx.broker.default_hwm);
            let bell = Bell::for_thread();
            eps.insert(
                name.to_string(),
                BrokerEntry::PushPull(PushPullEndpoint {
                    bound: false,
                    tx: tx.clone(),
                    bell: bell.clone(),
                    rx: Some(rx),
                }),
            );
            Ok((tx, bell))
        }
    }
}

/// Broker-backed puller; removing the endpoint on drop disconnects
/// pushers.
struct BrokerPull {
    ctx: Context,
    name: String,
    rx: Receiver<Multipart>,
    bell: Bell,
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

/// The receiving side of a PUSH/PULL endpoint. One binder per endpoint,
/// and one thread at a time receiving on it: over `ipc://`/`tcp://` that
/// thread reads the connections itself.
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
                        bell: pp.bell.clone(),
                    }),
                })
            }
            _ => Err(SendError::AddrInUse(name.to_string())),
        }
    }

    /// Sleeps until a message can be received, the socket's [`Bell`] is
    /// rung, or `timeout` has passed — whichever comes first — and returns
    /// at once when a message is already there. It says nothing about
    /// which, and may return for less (a pusher connected or left, half a
    /// message came): look with [`PullSocket::try_recv`] and at whatever
    /// the bell stands for, then wait again.
    ///
    /// This is the one blocking call of an owner that serves several
    /// sources: over `ipc://`/`tcp://` it is a single `poll` across the
    /// listener, every connection and the bell (with the timeout at
    /// nanosecond resolution), over `inproc://` a `park_timeout`.
    pub fn wait(&self, timeout: Duration) {
        match &self.inner {
            PullInner::Broker(b) => b.bell.sleep(|| {
                // Level-triggered, like `poll`: a message left in the
                // queue by an earlier wake-up rings nothing again.
                if b.rx.is_empty() {
                    std::thread::park_timeout(timeout);
                }
            }),
            PullInner::Stream(s) => s.wait(timeout),
        }
    }

    /// The socket's doorbell: a handle any thread can ring to make the
    /// owner's current or next [`PullSocket::wait`] return. Ring it
    /// *after* putting whatever the owner should find where it will look.
    /// Ringing an owner that is awake is two atomic stores; only a
    /// sleeping one costs a system call (a one-byte `write`, or an
    /// `unpark` over `inproc://`).
    pub fn bell(&self) -> Bell {
        match &self.inner {
            PullInner::Broker(b) => b.bell.clone(),
            PullInner::Stream(s) => s.bell().clone(),
        }
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

    /// Non-blocking receive; `Ok(None)` when nothing has arrived.
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

    /// Drains everything that has arrived.
    pub fn drain(&self) -> Vec<Multipart> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Messages received and not yet taken. Over `ipc://`/`tcp://` that is
    /// what the owner has read off its connections; more may sit in the
    /// kernel's socket buffers.
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
    Broker(Sender<Multipart>, Bell),
    Stream(StreamPush),
}

/// The sending side of a PUSH/PULL endpoint. Many pushers may connect, and
/// many threads may share one pusher: each message arrives whole, and one
/// thread's messages in the order it sent them.
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
        let (tx, bell) = ensure_endpoint(ctx, name)
            .unwrap_or_else(|_| panic!("endpoint {name} is a PUB/SUB endpoint"));
        Self {
            inner: PushInner::Broker(tx, bell),
        }
    }

    /// Sends a message, blocking while the queue is full.
    pub fn send(&self, msg: Multipart) -> Result<(), SendError> {
        match &self.inner {
            PushInner::Broker(tx, bell) => {
                tx.send(msg.into_contiguous())
                    .map_err(|_| SendError::Disconnected)?;
                bell.ring();
                Ok(())
            }
            PushInner::Stream(s) => s.send(msg),
        }
    }

    /// Non-blocking send.
    pub fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        match &self.inner {
            PushInner::Broker(tx, bell) => match tx.try_send(msg.into_contiguous()) {
                Ok(()) => {
                    bell.ring();
                    Ok(())
                }
                Err(TrySendError::Full(_)) => Err(SendError::Full),
                Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
            },
            PushInner::Stream(s) => s.try_send(msg),
        }
    }

    /// How this socket's messages reached the wire so far (all zero over
    /// `inproc://`).
    pub fn transport_stats(&self) -> TransportStats {
        match &self.inner {
            PushInner::Broker(..) => TransportStats::default(),
            PushInner::Stream(s) => s.transport_stats(),
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
            pull.wait(Duration::from_millis(20));
            assert!(pull.try_recv().unwrap().is_none());
            std::thread::scope(|s| {
                s.spawn(|| early.send(msg(b"a")).unwrap());
                while pull.try_recv().unwrap().is_none() {
                    pull.wait(long);
                }
            });
            // Rung while awake: the next wait does not sleep.
            pull.bell().ring();
            pull.wait(long);
            // Rung while asleep.
            let bell = pull.bell();
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    bell.ring();
                });
                pull.wait(long);
            });
            assert!(started.elapsed() < long, "{name}: a wake-up was lost");
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
