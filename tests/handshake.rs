//! Attach-handshake failure modes, under both `ipc://` and `tcp://`:
//! every mismatch must surface **promptly** as its typed
//! [`HandshakeError`] — never as a hang, and never as a consumer silently
//! training on the wrong topology.
//!
//! * **version skew** — a consumer attaching to a producer that speaks
//!   another wire version gets [`HandshakeError::Version`] carrying both
//!   versions, decided from the version field at the head of the WELCOME
//!   alone; a producer hello'd at a foreign version still answers, in its
//!   own version, and registers nobody;
//! * **`shards` override mismatch** — a consumer that insists on a shard
//!   count the producer does not advertise gets
//!   [`HandshakeError::Topology`];
//! * **unopenable arena** — the producer advertises a shared-memory
//!   arena whose backing file the consumer cannot map (stale path,
//!   different host). A consumer pinned to shm payloads gets
//!   [`HandshakeError::ArenaMissing`]; an unpinned consumer negotiates
//!   down to streamed payloads and still attaches (the remote-host
//!   shape);
//! * **ungranted payload mode** — a consumer forcing streamed payloads
//!   from a flexible-batch producer (which only grants shm) gets
//!   [`HandshakeError::Mode`] with the producer's grant mask.
//!
//! Each case is timeout-guarded: the error must arrive well inside the
//! guard, proving the failure path is a fast typed reply, not a timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::protocol::messages::topics;
use tensorsocket::{
    Consumer, CtrlMsg, DataMsg, HandshakeError, PayloadMode, Producer, ProducerConfig, TsError,
    WIRE_VERSION,
};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_socket::{EndpointMap, Multipart, PubSocket, PullSocket, PushSocket, SubSocket};

const GUARD: Duration = Duration::from_secs(20);

fn loader(shards: usize) -> Vec<DataLoader> {
    DataLoader::sharded(
        Arc::new(SyntheticImageDataset::new(64, 8, 8, 3).with_encoded_len(256)),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            shuffle: false,
            drop_last: true,
            ..Default::default()
        },
        shards,
    )
}

fn producer_cfg(endpoint: &str) -> ProducerConfig {
    ProducerConfig {
        endpoint: endpoint.to_string(),
        epochs: 1,
        heartbeat_timeout: Duration::from_secs(2),
        first_consumer_timeout: Some(Duration::from_secs(30)),
        ..Default::default()
    }
}

/// One `(scheme-tag, endpoint)` per transport under test. `port_slot`
/// spaces tcp tests apart (each sharded topology claims several
/// consecutive ports).
fn endpoints(tag: &str, port_slot: u16) -> Vec<(&'static str, String)> {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    vec![
        (
            "ipc",
            format!(
                "ipc://{}",
                tmp.join(format!("ts-hs-{tag}-{pid}.sock")).display()
            ),
        ),
        (
            "tcp",
            format!("tcp://127.0.0.1:{}", 43_800 + port_slot * 16),
        ),
    ]
}

/// Runs `connect` under the hang guard, returning the typed error and
/// how long it took to surface.
fn expect_error(connect: impl FnOnce() -> tensorsocket::Result<Consumer>) -> (TsError, Duration) {
    let started = Instant::now();
    let err = connect().expect_err("handshake must fail");
    let elapsed = started.elapsed();
    assert!(
        elapsed < GUARD,
        "typed error took {elapsed:?}; the failure path must not degenerate into a timeout"
    );
    (err, elapsed)
}

#[test]
fn version_skew_yields_typed_error_promptly() {
    // A fake producer on raw sockets answers every HELLO with a WELCOME
    // one version ahead whose body is nothing this build can parse: only
    // the `tag, token, version` head is shared across versions, and that
    // head alone must produce the typed error.
    for (scheme, ep) in endpoints("ver", 0) {
        let sockets = ts_socket::Context::new();
        let map = EndpointMap::new(&ep, 1);
        let publisher = PubSocket::bind(&sockets, &map.data(0)).expect("bind data");
        let ctrl = PullSocket::bind(&sockets, &map.ctrl(0)).expect("bind ctrl");
        let fake = std::thread::spawn(move || {
            while let Ok(msg) = ctrl.recv_timeout(Duration::from_secs(2)) {
                if let Ok(CtrlMsg::Hello { token, .. }) = CtrlMsg::decode(&msg.frames()[0]) {
                    let mut welcome = vec![5u8];
                    welcome.extend_from_slice(&token.to_le_bytes());
                    welcome.extend_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
                    welcome.extend_from_slice(b"a body laid out like nothing this build knows");
                    let _ = publisher.send(
                        &topics::hello(token),
                        Multipart::single(bytes::Bytes::from(welcome)),
                    );
                }
            }
        });
        let (err, elapsed) =
            expect_error(|| Consumer::builder().handshake_timeout(GUARD).connect(&ep));
        assert_eq!(
            err,
            TsError::Handshake(HandshakeError::Version {
                ours: WIRE_VERSION,
                theirs: WIRE_VERSION + 1,
            }),
            "{scheme}: wrong error"
        );
        assert!(
            elapsed < GUARD / 4,
            "{scheme}: the version verdict took {elapsed:?}"
        );
        fake.join().expect("fake producer");
    }
}

#[test]
fn producer_answers_a_foreign_version_hello_in_its_own_version() {
    for (scheme, ep) in endpoints("foreign", 6) {
        let arena_path = std::env::temp_dir().join(format!(
            "ts-hs-foreign-{scheme}-{}.arena",
            std::process::id()
        ));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer");
        // A raw HELLO from "version 45", re-sent until answered (the
        // subscription may still be propagating).
        let sockets = ts_socket::Context::new();
        let map = EndpointMap::new(&ep, 1);
        let token = 0xF0E1_u64;
        let sub = SubSocket::connect(&sockets, &map.data(0));
        sub.subscribe(&topics::hello(token));
        let push = PushSocket::connect(&sockets, &map.ctrl(0));
        let hello = CtrlMsg::Hello {
            token,
            version: WIRE_VERSION + 41,
            caps: u32::MAX,
        }
        .encode();
        let started = Instant::now();
        let info = loop {
            let _ = push.send(Multipart::single(hello.clone()));
            if let Ok((_, msg)) = sub.recv_timeout(Duration::from_millis(50)) {
                match DataMsg::decode(&msg.frames()[0]) {
                    Ok(DataMsg::Welcome { token: t, info }) if t == token => break info,
                    other => panic!("{scheme}: expected our WELCOME, got {other:?}"),
                }
            }
            assert!(started.elapsed() < GUARD, "{scheme}: HELLO never answered");
        };
        assert_eq!(info.version, WIRE_VERSION, "{scheme}: its own version");
        assert_eq!(info.shards, 1, "{scheme}");
        // The HELLO registered nobody: the producer is still waiting for
        // its first consumer, and the one that now attaches is the only
        // one it ever counts.
        let consumer = Consumer::builder()
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("real consumer attaches");
        assert_eq!(consumer.flatten().count(), 16, "{scheme}: full epoch");
        let stats = producer.join().expect("producer join");
        assert_eq!(stats.peak_consumers, 1, "{scheme}: phantom consumer");
        assert_eq!(stats.consumers_detached, 0, "{scheme}");
    }
}

#[test]
fn shards_override_mismatch_yields_typed_error_promptly() {
    for (scheme, ep) in endpoints("topo", 1) {
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .spawn_sharded(loader(2))
            .expect("spawn sharded producer");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .shards(5)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        assert_eq!(
            err,
            TsError::Handshake(HandshakeError::Topology {
                requested: 5,
                advertised: 2,
            }),
            "{scheme}: wrong error"
        );
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn unopenable_arena_yields_typed_error_promptly() {
    for (scheme, ep) in endpoints("arena", 2) {
        let arena_path =
            std::env::temp_dir().join(format!("ts-hs-arena-{scheme}-{}.arena", std::process::id()));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer with arena");
        // The producer keeps its mapping; the *path* disappears, so a
        // late-coming consumer cannot open what the WELCOME advertises —
        // the cross-host / stale-path failure shape. Pinning the payload
        // mode disables the negotiated fall-back to streaming, so the
        // typed error must surface.
        std::fs::remove_file(&arena_path).expect("unlink arena file");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .payload_mode(PayloadMode::Shm)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        match err {
            TsError::Handshake(HandshakeError::ArenaMissing { path, reason }) => {
                assert_eq!(path, arena_path.display().to_string(), "{scheme}");
                assert!(!reason.is_empty(), "{scheme}: reason must say why");
            }
            other => panic!("{scheme}: expected ArenaMissing, got {other:?}"),
        }
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn unopenable_arena_falls_back_to_streamed_payloads() {
    // The same stale-path shape as above, but the consumer leaves the
    // payload mode unpinned: the handshake grants streaming, so the
    // attach succeeds in streamed mode and the epoch still delivers.
    for (scheme, ep) in endpoints("fallback", 4) {
        let arena_path = std::env::temp_dir().join(format!(
            "ts-hs-fallback-{scheme}-{}.arena",
            std::process::id()
        ));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn(loader(1).remove(0))
            .expect("spawn producer with arena");
        std::fs::remove_file(&arena_path).expect("unlink arena file");
        let mut consumer = Consumer::builder()
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("unpinned consumer negotiates streaming");
        assert_eq!(
            consumer.payload_mode(),
            PayloadMode::Stream,
            "{scheme}: fall-back must land in streamed mode"
        );
        let mut batches = 0;
        for b in consumer.by_ref() {
            b.expect("clean streamed batch");
            batches += 1;
        }
        assert_eq!(batches, 16, "{scheme}: full epoch in streamed mode");
        producer.join().expect("producer join");
    }
}

#[test]
fn forced_streaming_from_flex_producer_yields_mode_error() {
    // Flexible producers re-slice shm tensors per consumer and therefore
    // grant only shm payloads; a consumer *forcing* streamed payloads
    // must get the typed grant-mask error instead of a hang.
    for (scheme, ep) in endpoints("mode", 5) {
        let mut cfg = producer_cfg(&ep);
        cfg.flexible = Some(tensorsocket::FlexibleConfig::new(8));
        let producer = Producer::builder()
            .config(cfg)
            .spawn(loader(1).remove(0))
            .expect("spawn flexible producer");
        let (err, _) = expect_error(|| {
            Consumer::builder()
                .payload_mode(PayloadMode::Stream)
                .batch_size(4)
                .handshake_timeout(GUARD)
                .connect(&ep)
        });
        match err {
            TsError::Handshake(HandshakeError::Mode { requested, granted }) => {
                assert_eq!(requested, PayloadMode::Stream, "{scheme}");
                assert_eq!(granted, tensorsocket::caps::SHM, "{scheme}");
            }
            other => panic!("{scheme}: expected Mode error, got {other:?}"),
        }
        producer.abort();
        producer.join().expect("producer join");
    }
}

#[test]
fn matched_override_still_attaches_everywhere() {
    // The positive control for the failure cases above: the explicit
    // override that *matches* the advertisement attaches and streams.
    // The consumer's context is separate from the producer's, so payload
    // bytes must travel through an (auto-sized, handshake-advertised)
    // arena.
    for (scheme, ep) in endpoints("ok", 3) {
        let arena_path =
            std::env::temp_dir().join(format!("ts-hs-ok-{scheme}-{}.arena", std::process::id()));
        let producer = Producer::builder()
            .config(producer_cfg(&ep))
            .arena(&arena_path)
            .spawn_sharded(loader(2))
            .expect("spawn sharded producer");
        let mut consumer = Consumer::builder()
            .shards(2)
            .handshake_timeout(GUARD)
            .recv_timeout(Duration::from_secs(10))
            .heartbeat_interval(Duration::from_millis(50))
            .connect(&ep)
            .expect("matched override attaches");
        assert_eq!(consumer.num_shards(), 2, "{scheme}");
        let mut batches = 0;
        for b in consumer.by_ref() {
            b.expect("clean stream");
            batches += 1;
        }
        assert_eq!(batches, 16, "{scheme}: full epoch over both shards");
        producer.join().expect("producer join");
    }
}
