//! Loopback round-trip tests for the `ipc://` and `tcp://` transports:
//! multipart frame boundaries, prefix filtering, HWM backpressure, and
//! peer-disconnect semantics.

use bytes::Bytes;
use std::time::{Duration, Instant};
use ts_socket::{
    Context, Multipart, PubSocket, PullSocket, PushSocket, RecvError, SendPolicy, SubSocket,
};

fn ipc_endpoint(tag: &str) -> String {
    format!(
        "ipc://{}",
        std::env::temp_dir()
            .join(format!("ts-loopback-{}-{tag}.sock", std::process::id()))
            .display()
    )
}

const RECV: Duration = Duration::from_secs(5);

fn msg(frames: &[&[u8]]) -> Multipart {
    Multipart::from_frames(frames.iter().map(|f| Bytes::copy_from_slice(f)).collect())
}

/// Pub/sub round trip preserving multipart boundaries, for one endpoint.
fn pubsub_roundtrip_on(endpoint: &str) {
    let ctx = Context::new();
    let publisher = PubSocket::bind(&ctx, endpoint).unwrap();
    // tcp://host:0 resolves to a real port at bind time.
    let resolved = publisher.endpoint().to_string();
    let sub = SubSocket::connect(&ctx, &resolved);
    sub.subscribe(b"batch");
    let payload = msg(&[b"first", b"", b"third-frame"]);
    // The subscription is acked, so this send cannot race it.
    publisher.send(b"batch/0", payload.clone()).unwrap();
    let (topic, got) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(&topic[..], b"batch/0");
    assert_eq!(got.len(), 3, "frame boundaries preserved");
    assert_eq!(&got.frames()[0][..], b"first");
    assert!(got.frames()[1].is_empty());
    assert_eq!(&got.frames()[2][..], b"third-frame");

    // Prefix filtering is publisher-side.
    publisher.send(b"ctrl/1", msg(&[b"skip"])).unwrap();
    publisher.send(b"batch/1", msg(&[b"keep"])).unwrap();
    let (topic, _) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(&topic[..], b"batch/1");
}

#[test]
fn ipc_pubsub_round_trip() {
    pubsub_roundtrip_on(&ipc_endpoint("ps"));
}

#[test]
fn tcp_pubsub_round_trip() {
    pubsub_roundtrip_on("tcp://127.0.0.1:0");
}

#[test]
fn ipc_many_messages_in_order() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("order");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    for i in 0..200u32 {
        publisher.send(b"t", msg(&[&i.to_le_bytes()])).unwrap();
    }
    for i in 0..200u32 {
        let (_, m) = sub.recv_timeout(RECV).unwrap();
        assert_eq!(m.frames()[0][..], i.to_le_bytes());
    }
}

#[test]
fn ipc_hwm_backpressure_blocks_publisher() {
    // hwm=1 on BOTH ends: the subscriber's local queue must not absorb the
    // burst either.
    let ctx = Context::with_hwm(1);
    let endpoint = ipc_endpoint("hwm");
    // hwm=1: the per-peer queue holds a single message; once the kernel
    // socket buffer is full too, a blocking publisher must stall until the
    // subscriber drains.
    let publisher = PubSocket::bind_with(&ctx, &endpoint, SendPolicy::Block, Some(1)).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    const N: usize = 64;
    const CHUNK: usize = 1 << 20; // 64 MiB total >> any socket buffer
    let publisher_thread = std::thread::spawn(move || {
        let big = Multipart::single(Bytes::from(vec![7u8; CHUNK]));
        for _ in 0..N {
            publisher.send(b"t", big.clone()).unwrap();
        }
        publisher
    });
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        !publisher_thread.is_finished(),
        "publisher should be blocked by the un-drained subscriber"
    );
    // Drain: everything arrives, nothing was dropped.
    for _ in 0..N {
        let (_, m) = sub.recv_timeout(RECV).unwrap();
        assert_eq!(m.byte_len(), CHUNK);
    }
    publisher_thread.join().unwrap();
}

#[test]
fn ipc_drop_newest_drops_under_pressure() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("dropnew");
    let publisher = PubSocket::bind_with(&ctx, &endpoint, SendPolicy::DropNewest, Some(1)).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    // Saturate: with a 1-deep queue and a paused reader, a long enough
    // burst of large messages must eventually drop some sends.
    let big = Multipart::single(Bytes::from(vec![1u8; 1 << 20]));
    let mut delivered = 0usize;
    for _ in 0..64 {
        delivered += publisher.send(b"t", big.clone()).unwrap();
    }
    assert!(delivered < 64, "some messages must be dropped, not queued");
    assert!(delivered > 0, "the first message fits the empty queue");
}

#[test]
fn ipc_publisher_disconnect_closes_subscriber() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("pubgone");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    publisher.send(b"t", msg(&[b"last"])).unwrap();
    let (_, m) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(&m.frames()[0][..], b"last");
    drop(publisher);
    // The reader observes EOF; after the queue drains the subscriber sees
    // Closed (possibly after a few Timeout polls while the EOF
    // propagates).
    let deadline = Instant::now() + RECV;
    loop {
        match sub.recv_timeout(Duration::from_millis(50)) {
            Err(RecvError::Closed) => break,
            Err(RecvError::Timeout) if Instant::now() < deadline => continue,
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}

#[test]
fn tcp_publisher_disconnect_closes_subscriber() {
    let ctx = Context::new();
    let publisher = PubSocket::bind(&ctx, "tcp://127.0.0.1:0").unwrap();
    let endpoint = publisher.endpoint().to_string();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    drop(publisher);
    let deadline = Instant::now() + RECV;
    loop {
        match sub.recv_timeout(Duration::from_millis(50)) {
            Err(RecvError::Closed) => break,
            Err(RecvError::Timeout) if Instant::now() < deadline => continue,
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}

#[test]
fn ipc_dropped_subscriber_is_pruned() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("subgone");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    assert_eq!(publisher.subscriber_count(), 1);
    drop(sub);
    let deadline = Instant::now() + RECV;
    while publisher.subscriber_count() > 0 && Instant::now() < deadline {
        let _ = publisher.send(b"t", msg(&[b"x"]));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(publisher.subscriber_count(), 0);
}

#[test]
fn ipc_push_pull_fan_in() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("fanin");
    let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
    let p1 = PushSocket::connect(&ctx, &endpoint);
    let p2 = PushSocket::connect(&ctx, &endpoint);
    p1.send(msg(&[b"from-1"])).unwrap();
    p2.send(msg(&[b"from-2"])).unwrap();
    let mut seen: Vec<Vec<u8>> = (0..2)
        .map(|_| pull.recv_timeout(RECV).unwrap().frames()[0].to_vec())
        .collect();
    seen.sort();
    assert_eq!(seen, vec![b"from-1".to_vec(), b"from-2".to_vec()]);
}

#[test]
fn tcp_push_connect_before_bind_buffers() {
    let ctx = Context::new();
    // Reserve a port, then free it so the pusher has a concrete target
    // that nothing listens on yet.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = format!("tcp://{}", placeholder.local_addr().unwrap());
    drop(placeholder);
    let push = PushSocket::connect(&ctx, &endpoint);
    push.send(msg(&[b"early"])).unwrap(); // queued locally
    std::thread::sleep(Duration::from_millis(50));
    let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
    let m = pull.recv_timeout(RECV).unwrap();
    assert_eq!(&m.frames()[0][..], b"early");
}

#[test]
fn ipc_unsubscribe_stops_delivery() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("unsub");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"a");
    sub.subscribe(b"b");
    sub.unsubscribe(b"a");
    // The unsubscribe is fire-and-forget; the acked subscribe after it
    // orders both.
    sub.subscribe(b"c");
    publisher.send(b"a/1", msg(&[b"x"])).unwrap();
    publisher.send(b"b/1", msg(&[b"y"])).unwrap();
    let (topic, _) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(&topic[..], b"b/1");
    assert!(sub.try_recv().unwrap().is_none());
}

#[test]
fn ipc_rebind_after_drop() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("rebind");
    drop(PubSocket::bind(&ctx, &endpoint).unwrap());
    let _again = PubSocket::bind(&ctx, &endpoint).unwrap();
}

#[test]
fn tcp_double_bind_rejected() {
    let ctx = Context::new();
    let first = PubSocket::bind(&ctx, "tcp://127.0.0.1:0").unwrap();
    let endpoint = first.endpoint().to_string();
    assert!(matches!(
        PubSocket::bind(&ctx, &endpoint).unwrap_err(),
        ts_socket::SendError::AddrInUse(_) | ts_socket::SendError::Io(_)
    ));
}

/// A chunk that counts its own release, lent to the socket without a copy.
struct Lent(Vec<u8>, std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl AsRef<[u8]> for Lent {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn ipc_chunked_frame_arrives_as_one_contiguous_frame() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("chunked");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    let chunks = vec![
        Bytes::from_static(b"head"),
        Bytes::from((0..1_500_000u32).map(|i| i as u8).collect::<Vec<u8>>()),
        Bytes::from_static(b"mid"),
        Bytes::from(vec![9u8; 70_000]),
    ];
    publisher
        .send(b"t", Multipart::chunked(chunks.clone()))
        .unwrap();
    let (_, got) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(got, Multipart::single(Bytes::from(chunks.concat())));
}

#[test]
fn ipc_oversize_frame_is_refused_and_the_connection_survives() {
    use ts_socket::SendError;
    let ctx = Context::new();
    let endpoint = ipc_endpoint("oversize");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    publisher.send(b"t", msg(&[b"before"])).unwrap();
    assert_eq!(sub.recv_timeout(RECV).unwrap().1, msg(&[b"before"]));
    // 257 MiB as one frame — what a streamed 512 x 3x224x224 f32 batch
    // amounts to — lent as 257 views of one MiB so the test stays small.
    let released = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mib = Bytes::from_owner(Lent(vec![0u8; 1 << 20], released.clone()));
    let too_large = Multipart::chunked(vec![mib; 257]);
    assert_eq!(
        publisher.send(b"t", too_large),
        Err(SendError::FrameTooLarge {
            len: 257 << 20,
            max: 256 << 20,
        })
    );
    assert_eq!(
        released.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "a refused message is not queued anywhere"
    );
    // Same connection, still in order, still alive.
    assert_eq!(publisher.subscriber_count(), 1);
    publisher.send(b"t", msg(&[b"after"])).unwrap();
    assert_eq!(sub.recv_timeout(RECV).unwrap().1, msg(&[b"after"]));
    // PUSH/PULL refuses the same way.
    let pull_ep = ipc_endpoint("oversize-pull");
    let pull = PullSocket::bind(&ctx, &pull_ep).unwrap();
    let push = PushSocket::connect(&ctx, &pull_ep);
    let mib = Bytes::from(vec![0u8; 1 << 20]);
    assert!(matches!(
        push.send(Multipart::chunked(vec![mib; 257])),
        Err(SendError::FrameTooLarge { .. })
    ));
    push.send(msg(&[b"ack"])).unwrap();
    assert_eq!(pull.recv_timeout(RECV).unwrap(), msg(&[b"ack"]));
}

#[test]
fn ipc_frames_queued_behind_a_departed_subscriber_are_released() {
    use std::sync::atomic::Ordering;
    // The subscriber never reads and keeps one message locally, so frames
    // back up through the socket buffers into the publisher's peer queue.
    let near = Context::new();
    let far = Context::with_hwm(1);
    let endpoint = ipc_endpoint("release");
    let publisher =
        PubSocket::bind_with(&near, &endpoint, SendPolicy::DropNewest, Some(8)).unwrap();
    let sub = SubSocket::connect(&far, &endpoint);
    sub.subscribe(b"");
    let released = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut lent = 0;
    while lent < 64 {
        let chunk = Bytes::from_owner(Lent(vec![lent as u8; 256 << 10], released.clone()));
        let head = Bytes::from_static(b"head");
        publisher
            .send(b"t", Multipart::chunked(vec![head, chunk]))
            .unwrap();
        lent += 1;
    }
    assert!(
        released.load(Ordering::SeqCst) < lent,
        "some frames are still queued or being written"
    );
    // The subscriber goes away mid-stream; the publisher stays.
    drop(sub);
    let deadline = Instant::now() + RECV;
    while released.load(Ordering::SeqCst) < lent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        released.load(Ordering::SeqCst),
        lent,
        "every lent chunk returned to its owner"
    );
    // Dropping the publisher joins its writers: nothing is released late.
    drop(publisher);
    assert_eq!(released.load(Ordering::SeqCst), lent);
}
