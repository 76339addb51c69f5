//! Mixed-fleet data plane: one producer group serving shm-pointer and
//! streamed-byte consumers **simultaneously**, over `tcp://`.
//!
//! The headline correctness claim of payload-mode negotiation: payload
//! mode is a per-consumer transport detail negotiated at attach, never a
//! property of the stream. A consumer that maps the producer's arena
//! reads pointers; a consumer that cannot (a remote host, simulated here
//! by forcing streamed mode) receives length-prefixed bytes on the same
//! data socket — and both must observe **bit-identical**
//! `(epoch, shard, seq)` batch streams. Either kind may also detach
//! mid-stream without disturbing the other.
//!
//! Each test binds its own fixed tcp base, 16 ports apart, below Linux's
//! ephemeral range (32768-60999), where no other test's outgoing
//! connection can hold one.

use std::sync::Arc;
use std::time::Duration;
use tensorsocket::{Consumer, PayloadMode, Producer, ProducerConfig};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};

const GUARD: Duration = Duration::from_secs(20);

fn loaders(shards: usize) -> Vec<DataLoader> {
    DataLoader::sharded(
        Arc::new(SyntheticImageDataset::new(64, 16, 16, 5).with_encoded_len(512)),
        DataLoaderConfig {
            batch_size: 4,
            num_workers: 0,
            shuffle: true,
            seed: 29,
            drop_last: true,
            ..Default::default()
        },
        shards,
    )
}

fn producer_cfg(endpoint: &str, epochs: u64) -> ProducerConfig {
    ProducerConfig {
        endpoint: endpoint.to_string(),
        epochs,
        // Full-epoch rubberband + a tiny publish window: the group join
        // window stays open for the whole epoch and no shard can run
        // ahead, so a consumer attaching while another is already
        // admitted (but not yet consuming) is replay-admitted instead of
        // deferred to a barrier that cannot open without its acks.
        rubberband_cutoff: 1.0,
        buffer_size: 2,
        heartbeat_timeout: Duration::from_secs(5),
        first_consumer_timeout: Some(Duration::from_secs(30)),
        ..Default::default()
    }
}

fn arena_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ts-mixed-{tag}-{}.arena", std::process::id()))
}

/// The full observable identity of one delivered batch: stream position
/// plus every payload byte, gathered to contiguous row-major form so
/// layout differences between the shm and streamed paths cannot hide.
fn fingerprint(b: &tensorsocket::runtime::consumer::ConsumerBatch) -> (u64, usize, u64, Vec<u8>) {
    let mut bytes = Vec::new();
    for f in &b.fields {
        bytes.extend_from_slice(&f.gather_bytes());
    }
    bytes.extend_from_slice(&b.labels.gather_bytes());
    (b.epoch, b.shard, b.seq, bytes)
}

fn drain(mut c: Consumer) -> Vec<(u64, usize, u64, Vec<u8>)> {
    let mut out = Vec::new();
    for b in c.by_ref() {
        out.push(fingerprint(&b.expect("clean batch")));
    }
    out
}

#[test]
fn shm_and_streamed_consumers_see_bit_identical_streams() {
    let ep = "tcp://127.0.0.1:24608";
    let arena = arena_path("ident");
    let producer = Producer::builder()
        .config(producer_cfg(ep, 2))
        .arena(&arena)
        .spawn_sharded(loaders(2))
        .expect("spawn 2-shard tcp producer");

    // Attach both before consumption so neither misses epoch 0. The shm
    // consumer opens the advertised arena by path; the streamed consumer
    // *forces* byte streaming — the remote-host shape, where the arena
    // path would be meaningless.
    let shm = Consumer::builder()
        .shards(2)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("shm consumer attaches");
    assert_eq!(shm.payload_mode(), PayloadMode::Shm);
    let streamed = Consumer::builder()
        .shards(2)
        .payload_mode(PayloadMode::Stream)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("streamed consumer attaches");
    assert_eq!(streamed.payload_mode(), PayloadMode::Stream);

    let shm_thread = std::thread::spawn(move || drain(shm));
    let streamed_thread = std::thread::spawn(move || drain(streamed));
    let shm_stream = shm_thread.join().unwrap();
    let streamed_stream = streamed_thread.join().unwrap();
    producer.join().expect("producer join");

    // 2 epochs × 2 shards × 8 batches, interleaved identically…
    assert_eq!(shm_stream.len(), 32);
    assert_eq!(streamed_stream.len(), 32);
    for (a, b) in shm_stream.iter().zip(&streamed_stream) {
        assert_eq!(
            (a.0, a.1, a.2),
            (b.0, b.1, b.2),
            "stream positions must interleave identically"
        );
        // …and bit-identical: pointer-passing and byte-streaming are two
        // transports for the same batch.
        assert_eq!(a.3, b.3, "payload bytes diverged at {:?}", (a.0, a.1, a.2));
    }
}

#[test]
fn streamed_consumer_detaches_cleanly_while_shm_consumer_continues() {
    let ep = "tcp://127.0.0.1:24624";
    let arena = arena_path("sdetach");
    let producer = Producer::builder()
        .config(producer_cfg(ep, 1))
        .arena(&arena)
        .spawn_sharded(loaders(2))
        .expect("spawn producer");
    let shm = Consumer::builder()
        .shards(2)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("shm consumer attaches");
    // Attach the quitter before any consumption starts, so both begin at
    // epoch 0; it takes two batches, then leaves mid-epoch (drop sends a
    // clean Leave) while the shm consumer sees the full epoch.
    let mut quitter = Consumer::builder()
        .shards(2)
        .payload_mode(PayloadMode::Stream)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("streamed quitter attaches");
    let survivor = std::thread::spawn(move || drain(shm));
    quitter.next().unwrap().expect("first streamed batch");
    quitter.next().unwrap().expect("second streamed batch");
    drop(quitter);
    assert_eq!(survivor.join().unwrap().len(), 16, "full epoch survives");
    producer.join().expect("producer join");
}

#[test]
fn shm_consumer_detaches_cleanly_while_streamed_consumer_continues() {
    let ep = "tcp://127.0.0.1:24640";
    let arena = arena_path("hdetach");
    let producer = Producer::builder()
        .config(producer_cfg(ep, 1))
        .arena(&arena)
        .spawn_sharded(loaders(2))
        .expect("spawn producer");
    let streamed = Consumer::builder()
        .shards(2)
        .payload_mode(PayloadMode::Stream)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("streamed consumer attaches");
    let mut quitter = Consumer::builder()
        .shards(2)
        .handshake_timeout(GUARD)
        .recv_timeout(Duration::from_secs(10))
        .heartbeat_interval(Duration::from_millis(50))
        .connect(ep)
        .expect("shm quitter attaches");
    let survivor = std::thread::spawn(move || drain(streamed));
    quitter.next().unwrap().expect("first shm batch");
    quitter.next().unwrap().expect("second shm batch");
    drop(quitter);
    assert_eq!(survivor.join().unwrap().len(), 16, "full epoch survives");
    producer.join().expect("producer join");
}
