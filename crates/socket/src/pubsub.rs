//! PUB/SUB: one-to-many multicast with per-subscriber bounded queues.
//!
//! The endpoint URI picks the transport: `inproc://` stays on the
//! in-process broker; `ipc://` and `tcp://` run over real sockets with the
//! same semantics (see [`crate::transport`]).

use crate::bell::{self, Bell};
use crate::endpoint::{BrokerEntry, Context, PubSubEndpoint, SubEntry};
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::pubsub::{StreamPub, StreamSub};
use crate::transport::{EndpointAddr, TransportStats, POLL_EVERY};
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, TryRecvError, TrySendError};
use std::sync::{Arc, Weak};
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

/// Broker-backed publisher state; removing the endpoint on drop closes all
/// subscriber queues.
struct BrokerPub {
    ctx: Context,
    name: String,
    policy: SendPolicy,
}

impl BrokerPub {
    fn send(&self, topic: &[u8], msg: Multipart) -> Result<usize, SendError> {
        // Snapshot the subscriber list so the broker lock is not held while
        // (potentially) blocking on a full queue.
        let subs: Vec<Arc<SubEntry>> = {
            let eps = self.ctx.broker.endpoints.lock();
            match eps.get(&self.name) {
                Some(BrokerEntry::PubSub(ps)) => ps.subs.clone(),
                _ => Vec::new(),
            }
        };
        let topic_bytes = Bytes::copy_from_slice(topic);
        // Receivers read frames, not chunks: join a chunked frame once,
        // for all subscribers.
        let msg = msg.into_contiguous();
        let mut delivered = 0usize;
        let mut dead: Vec<u64> = Vec::new();
        for sub in &subs {
            if !sub.matches(topic) {
                continue;
            }
            let item = (topic_bytes.clone(), msg.clone());
            let sent = match self.policy {
                SendPolicy::Block => sub
                    .tx
                    .send(item)
                    .map_err(|e| TrySendError::Disconnected(e.0)),
                SendPolicy::DropNewest => sub.tx.try_send(item),
            };
            match sent {
                Ok(()) => {
                    delivered += 1;
                    sub.bell.ring();
                }
                Err(TrySendError::Full(_)) => {}
                Err(TrySendError::Disconnected(_)) => dead.push(sub.id),
            }
        }
        if !dead.is_empty() {
            let mut eps = self.ctx.broker.endpoints.lock();
            if let Some(BrokerEntry::PubSub(ps)) = eps.get_mut(&self.name) {
                ps.subs.retain(|s| !dead.contains(&s.id));
            }
        }
        Ok(delivered)
    }

    fn subscriber_count(&self) -> usize {
        let eps = self.ctx.broker.endpoints.lock();
        match eps.get(&self.name) {
            Some(BrokerEntry::PubSub(ps)) => ps.subs.len(),
            _ => 0,
        }
    }
}

impl Drop for BrokerPub {
    fn drop(&mut self) {
        // Removing the endpoint drops all subscriber senders: subscribers
        // drain whatever is queued and then observe `Closed`. Their bells
        // ring once that is so, for a `SubSocket::wait` asleep on them.
        let removed = self.ctx.broker.endpoints.lock().remove(&self.name);
        if let Some(BrokerEntry::PubSub(ps)) = removed {
            let bells: Vec<Bell> = ps.subs.iter().map(|s| s.bell.clone()).collect();
            drop(ps);
            bells.iter().for_each(Bell::ring);
        }
    }
}

enum PubInner {
    Broker(BrokerPub),
    Stream(StreamPub),
}

/// The publishing side of a PUB/SUB endpoint. One binder per endpoint.
pub struct PubSocket {
    inner: PubInner,
    name: String,
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
        let hwm = hwm.unwrap_or(ctx.broker.default_hwm).max(1);
        let addr = EndpointAddr::parse(name)?;
        if !addr.is_inproc() {
            let stream = StreamPub::bind(&addr, name, policy, hwm)?;
            let name = stream.endpoint().to_string();
            return Ok(Self {
                inner: PubInner::Stream(stream),
                name,
            });
        }
        let mut eps = ctx.broker.endpoints.lock();
        match eps.get_mut(name) {
            None => {
                eps.insert(
                    name.to_string(),
                    BrokerEntry::PubSub(PubSubEndpoint {
                        bound: true,
                        hwm,
                        next_sub_id: 0,
                        subs: Vec::new(),
                    }),
                );
            }
            Some(BrokerEntry::PubSub(ps)) => {
                if ps.bound {
                    return Err(SendError::AddrInUse(name.to_string()));
                }
                ps.bound = true;
                ps.hwm = hwm;
            }
            Some(BrokerEntry::PushPull(_)) => {
                return Err(SendError::AddrInUse(name.to_string()));
            }
        }
        Ok(Self {
            inner: PubInner::Broker(BrokerPub {
                ctx: ctx.clone(),
                name: name.to_string(),
                policy,
            }),
            name: name.to_string(),
        })
    }

    /// Publishes a message under `topic`, returning the number of
    /// subscribers it was delivered to.
    ///
    /// Subscribers whose receiving half is gone are pruned. With
    /// [`SendPolicy::DropNewest`], subscribers with full queues miss the
    /// message (not an error).
    pub fn send(&self, topic: &[u8], msg: Multipart) -> Result<usize, SendError> {
        match &self.inner {
            PubInner::Broker(b) => b.send(topic, msg),
            PubInner::Stream(s) => s.send(topic, msg),
        }
    }

    /// Number of currently connected subscribers.
    pub fn subscriber_count(&self) -> usize {
        match &self.inner {
            PubInner::Broker(b) => b.subscriber_count(),
            PubInner::Stream(s) => s.subscriber_count(),
        }
    }

    /// The endpoint name. For `tcp://host:0` binds this is the resolved
    /// address with the real port.
    pub fn endpoint(&self) -> &str {
        &self.name
    }

    /// How this socket's messages reached the wire so far, counted per
    /// subscriber (all zero over `inproc://`).
    pub fn transport_stats(&self) -> TransportStats {
        match &self.inner {
            PubInner::Broker(_) => TransportStats::default(),
            PubInner::Stream(s) => s.transport_stats(),
        }
    }
}

/// Broker-backed subscriber state.
struct BrokerSub {
    ctx: Context,
    name: String,
    id: u64,
    prefixes: crate::endpoint::SharedPrefixes,
    rx: Receiver<(Bytes, Multipart)>,
    /// The broker's entry, which holds the queue's only sender: once it is
    /// gone the queue is closed.
    entry: Weak<SubEntry>,
    /// Rung by the publisher after each delivery and when it goes away.
    bell: Bell,
}

impl BrokerSub {
    /// A message is queued, or the queue is closed.
    fn has_next(&self) -> bool {
        !self.rx.is_empty() || self.entry.strong_count() == 0
    }

    /// One park for at most `timeout` that any of `subs`' publishers
    /// interrupts; none if one of them has something already.
    fn park_all(subs: &[&BrokerSub], timeout: Duration) {
        let bells: Vec<&Bell> = subs.iter().map(|s| &s.bell).collect();
        bell::sleep_all(&bells, &mut || {
            // Level-triggered, like `poll`: a message left in a queue by an
            // earlier wake-up rings nothing again.
            if !subs.iter().any(|s| s.has_next()) {
                std::thread::park_timeout(timeout);
            }
        });
    }
}

impl Drop for BrokerSub {
    fn drop(&mut self) {
        let mut eps = self.ctx.broker.endpoints.lock();
        if let Some(BrokerEntry::PubSub(ps)) = eps.get_mut(&self.name) {
            let id = self.id;
            ps.subs.retain(|s| s.id != id);
        }
    }
}

enum SubInner {
    Broker(BrokerSub),
    Stream(StreamSub),
}

/// The subscribing side of a PUB/SUB endpoint.
pub struct SubSocket {
    inner: SubInner,
}

impl std::fmt::Debug for SubSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubSocket")
            .field("queued", &self.queued())
            .finish()
    }
}

impl SubSocket {
    /// Connects a subscriber. Connecting before the publisher binds is fine;
    /// messages published before connecting are not seen (slow-joiner
    /// semantics, which is why TensorSocket needs rubberbanding). Remote
    /// (`ipc://`/`tcp://`) connects retry in the background until the
    /// publisher appears.
    ///
    /// # Panics
    /// Panics if the endpoint name is malformed, or already used by a
    /// PUSH/PULL pair — those are wiring bugs, not runtime conditions.
    pub fn connect(ctx: &Context, name: &str) -> Self {
        let addr =
            EndpointAddr::parse(name).unwrap_or_else(|e| panic!("invalid endpoint {name}: {e}"));
        if !addr.is_inproc() {
            return Self {
                inner: SubInner::Stream(StreamSub::connect(addr, name)),
            };
        }
        let mut eps = ctx.broker.endpoints.lock();
        let ps = match eps.entry(name.to_string()).or_insert_with(|| {
            BrokerEntry::PubSub(PubSubEndpoint {
                bound: false,
                hwm: ctx.broker.default_hwm,
                next_sub_id: 0,
                subs: Vec::new(),
            })
        }) {
            BrokerEntry::PubSub(ps) => ps,
            BrokerEntry::PushPull(_) => panic!("endpoint {name} is a PUSH/PULL endpoint"),
        };
        let (tx, rx) = channel::bounded(ps.hwm);
        let id = ps.next_sub_id;
        ps.next_sub_id += 1;
        let prefixes: crate::endpoint::SharedPrefixes =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let bell = Bell::for_thread();
        let entry = Arc::new(SubEntry {
            id,
            prefixes: prefixes.clone(),
            tx,
            bell: bell.clone(),
        });
        let weak = Arc::downgrade(&entry);
        ps.subs.push(entry);
        drop(eps);
        Self {
            inner: SubInner::Broker(BrokerSub {
                ctx: ctx.clone(),
                name: name.to_string(),
                id,
                prefixes,
                rx,
                entry: weak,
                bell,
            }),
        }
    }

    /// Subscribes to every topic starting with `prefix`. An empty prefix
    /// subscribes to everything.
    ///
    /// On remote transports this blocks (bounded) until the publisher has
    /// acknowledged the subscription, so a message sent on another
    /// connection after `subscribe` returns cannot overtake it.
    pub fn subscribe(&self, prefix: &[u8]) {
        match &self.inner {
            SubInner::Broker(b) => b.prefixes.lock().push(prefix.to_vec()),
            SubInner::Stream(s) => s.subscribe(prefix),
        }
    }

    /// Removes a previously added prefix.
    pub fn unsubscribe(&self, prefix: &[u8]) {
        match &self.inner {
            SubInner::Broker(b) => {
                let mut p = b.prefixes.lock();
                if let Some(pos) = p.iter().position(|x| x == prefix) {
                    p.remove(pos);
                }
            }
            SubInner::Stream(s) => s.unsubscribe(prefix),
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
    /// shard). Over `ipc://`/`tcp://` it is one `poll` across the
    /// connections of every subscriber given, each connection that turned
    /// readable read once; over `inproc://` one park, which a publisher's
    /// `send` to any of them — or its going away — interrupts. A set that
    /// mixes the two looks at its in-process subscribers at least every few
    /// milliseconds.
    pub fn wait(subs: &[&SubSocket], timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let streams: Vec<&StreamSub> = (subs.iter())
            .filter_map(|s| match &s.inner {
                SubInner::Stream(s) => Some(s),
                SubInner::Broker(_) => None,
            })
            .collect();
        let brokers: Vec<&BrokerSub> = (subs.iter())
            .filter_map(|s| match &s.inner {
                SubInner::Broker(b) => Some(b),
                SubInner::Stream(_) => None,
            })
            .collect();
        let mut looked = false;
        loop {
            if let Some(i) = subs.iter().position(|s| s.has_next()) {
                return Some(i);
            }
            // Looks at every connection at least once, whatever the
            // timeout; half a message ends a look early, not the wait.
            let left = deadline.saturating_duration_since(Instant::now());
            if looked && left.is_zero() {
                return None;
            }
            looked = true;
            match (streams.is_empty(), brokers.is_empty()) {
                (true, false) => BrokerSub::park_all(&brokers, left),
                (_, true) => StreamSub::sweep_all(&streams, left),
                // A ring does not interrupt a `poll`.
                (false, false) => StreamSub::sweep_all(&streams, left.min(POLL_EVERY)),
            }
        }
    }

    /// A message can be taken, or the socket is closed.
    fn has_next(&self) -> bool {
        match &self.inner {
            SubInner::Broker(b) => b.has_next(),
            SubInner::Stream(s) => s.has_next(),
        }
    }

    /// Receives the next matching message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(Bytes, Multipart), RecvError> {
        match &self.inner {
            SubInner::Broker(b) => match b.rx.recv_timeout(timeout) {
                Ok(m) => Ok(m),
                Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
                Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
            },
            SubInner::Stream(s) => s.recv_timeout(timeout),
        }
    }

    /// Non-blocking receive; `Ok(None)` when no message is queued.
    pub fn try_recv(&self) -> Result<Option<(Bytes, Multipart)>, RecvError> {
        match &self.inner {
            SubInner::Broker(b) => match b.rx.try_recv() {
                Ok(m) => Ok(Some(m)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(RecvError::Closed),
            },
            SubInner::Stream(s) => s.try_recv(),
        }
    }

    /// Messages received and not yet taken. Over `ipc://`/`tcp://` that is
    /// what the owner has read off its connection; more may sit in the
    /// kernel's socket buffer.
    pub fn queued(&self) -> usize {
        match &self.inner {
            SubInner::Broker(b) => b.rx.len(),
            SubInner::Stream(s) => s.queued(),
        }
    }

    /// The endpoint this subscriber connected to.
    pub fn endpoint(&self) -> &str {
        match &self.inner {
            SubInner::Broker(b) => &b.name,
            SubInner::Stream(s) => s.endpoint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(s1.try_recv().unwrap().is_some());
        assert!(s2.try_recv().unwrap().is_some());
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
        let (_, m) = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(&m.frames()[0][..], b"late");
        assert!(sub.try_recv().unwrap().is_none());
    }

    #[test]
    fn connect_before_bind_works() {
        let ctx = Context::new();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        publisher.send(b"t", msg(b"hello")).unwrap();
        assert!(sub.try_recv().unwrap().is_some());
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
        assert_eq!(publisher.subscriber_count(), 0);
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
        assert!(sub.try_recv().unwrap().is_some());
        // then the channel reports closed
        assert!(matches!(sub.try_recv().unwrap_err(), RecvError::Closed));
    }

    #[test]
    fn drop_newest_policy_skips_full_queues() {
        let ctx = Context::with_hwm(1);
        let publisher =
            PubSocket::bind_with(&ctx, "inproc://d", SendPolicy::DropNewest, Some(1)).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        assert_eq!(publisher.send(b"t", msg(b"1")).unwrap(), 1);
        // queue full now; second send is dropped for this subscriber
        assert_eq!(publisher.send(b"t", msg(b"2")).unwrap(), 0);
        assert_eq!(sub.queued(), 1);
    }

    #[test]
    fn blocking_policy_applies_backpressure() {
        let ctx = Context::new();
        let publisher =
            PubSocket::bind_with(&ctx, "inproc://d", SendPolicy::Block, Some(1)).unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"");
        publisher.send(b"t", msg(b"1")).unwrap();
        let t = std::thread::spawn(move || {
            publisher.send(b"t", msg(b"2")).unwrap();
            publisher
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "send should block on the full queue");
        sub.recv_timeout(Duration::from_secs(1)).unwrap();
        let _publisher = t.join().unwrap();
        assert_eq!(
            &sub.recv_timeout(Duration::from_secs(1)).unwrap().1.frames()[0][..],
            b"2"
        );
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://d").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://d");
        sub.subscribe(b"a");
        sub.subscribe(b"b");
        sub.unsubscribe(b"a");
        publisher.send(b"a/1", msg(b"x")).unwrap();
        publisher.send(b"b/1", msg(b"y")).unwrap();
        let (topic, _) = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(&topic[..], b"b/1");
        assert!(sub.try_recv().unwrap().is_none());
    }
}
