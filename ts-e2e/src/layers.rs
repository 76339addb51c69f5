//! Standalone layer replays: each layer a batch crosses, timed through
//! its public functions with the workload's exact geometry, next to a
//! roofline measured in the same run on the same bytes (a memcpy, a bare
//! Unix-socket ping-pong and stream, a raw file write and read).
//!
//! These run after the traced workload, never beside it. Every loop is
//! capped by count and by time so the whole pass stays within seconds.

use crate::util::percentile_sorted;
use crate::workloads::Workload;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use tensorsocket::protocol::messages::{
    AnnounceContent, BatchAnnounce, CtrlMsg, DataMsg, StreamedTensor,
};
use ts_device::DeviceId;
use ts_log::{BatchLog, LogConfig};
use ts_shm::ShmArena;
use ts_socket::{Context, Multipart, PubSocket, PullSocket, PushSocket, SubSocket};
use ts_tensor::{collate, SharedRegistry, SlotPool, TensorPayload};

const MIB: f64 = 1024.0 * 1024.0;

/// How much work one replay loop may do: `--check` runs the same loops
/// at a fraction of the time and bytes.
#[derive(Clone, Copy)]
struct Effort {
    /// Time cap of one timed loop.
    cap: Duration,
    /// Calls per untimed fixed-count loop.
    calls: u32,
    /// Bytes moved by one bulk or file row.
    bulk_bytes: f64,
}

impl Effort {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                cap: Duration::from_millis(15),
                calls: 1_000,
                bulk_bytes: 4.0 * MIB,
            }
        } else {
            Self {
                cap: Duration::from_millis(250),
                calls: 20_000,
                bulk_bytes: 48.0 * MIB,
            }
        }
    }

    /// Frames of `len` bytes that make up one bulk row.
    fn frames(&self, len: usize) -> usize {
        ((self.bulk_bytes / len as f64) as usize).clamp(8, 2048)
    }
}

/// Per-iteration durations of `f`, ascending: at most `max_iters`
/// iterations, and no new one once `cap` has passed.
fn time_loop(cap: Duration, max_iters: usize, mut f: impl FnMut()) -> Vec<u64> {
    let mut samples = Vec::with_capacity(max_iters);
    let started = Instant::now();
    while samples.len() < max_iters && (samples.len() < 3 || started.elapsed() < cap) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples
}

fn p50_us(sorted: &[u64]) -> f64 {
    percentile_sorted(sorted, 0.50) as f64 / 1e3
}

fn p99_us(sorted: &[u64]) -> f64 {
    percentile_sorted(sorted, 0.99) as f64 / 1e3
}

/// Mean per-call nanoseconds of `f` over a fixed batch of calls — for
/// calls too short for one clock reading each.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// MiB/s of a stream of `frame_len`-byte frames from the instants they
/// arrived at: the frame over the median gap between arrivals, so one
/// stall among a few dozen frames does not set the rate.
fn stream_mib_per_s(frame_len: usize, arrivals: &[Instant]) -> f64 {
    let mut gaps: Vec<u64> = arrivals
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as u64)
        .collect();
    gaps.sort_unstable();
    match percentile_sorted(&gaps, 0.50) {
        0 => 0.0,
        ns => frame_len as f64 / MIB / (ns as f64 / 1e9),
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Names and values of every standalone row for one workload.
pub fn replay(
    w: &Workload,
    seed: u64,
    dir: &Path,
    quick: bool,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let effort = Effort::new(quick);
    let cap = effort.cap;
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();

    // --- ts-data: one batch built on the caller's thread -------------------
    let loader = w.loader(seed, 0);
    let mut epoch = loader.epoch(1);
    let mut kept = None;
    let build = time_loop(cap, w.batches_per_epoch.min(512), || {
        kept = epoch.next().or(kept.take());
    });
    drop(epoch);
    let batch = kept.ok_or("loader yielded no batch")?;
    rows.insert("ts-data.batch_build_us", p50_us(&build));
    rows.insert("ts-data.batch_build_p99_us", p99_us(&build));
    let field = batch.fields[0].clone();
    let labels = batch.labels.clone();
    let field_bytes = field.gather_bytes();
    let label_bytes = labels.gather_bytes();
    let payload_len = field_bytes.len() + label_bytes.len();

    // --- roofline: memcpy of the batch's bytes ------------------------------
    let mut dst = vec![0u8; payload_len];
    let memcpy = time_loop(cap, 2000, || {
        dst[..field_bytes.len()].copy_from_slice(&field_bytes);
        dst[field_bytes.len()..].copy_from_slice(&label_bytes);
        std::hint::black_box(&mut dst);
    });
    let memcpy_us = p50_us(&memcpy).max(1e-3);
    rows.insert("roofline.memcpy_us", memcpy_us);

    // --- ts-tensor / ts-shm over a private arena ----------------------------
    let slot_size = field_bytes
        .len()
        .max(label_bytes.len())
        .next_multiple_of(4096);
    let arena = ShmArena::create(dir.join("layers.arena"), 8, slot_size)
        .map_err(|e| format!("layer arena: {e}"))?;
    let pool = SlotPool::new(arena.clone(), 8);
    let (field_parts, label_parts) = (vec![field.clone()], vec![labels.clone()]);
    let mut collate_err = None;
    let mut collate_ns = Vec::new();
    let started = Instant::now();
    while collate_ns.len() < 2000 && (collate_ns.len() < 3 || started.elapsed() < cap) {
        let t = Instant::now();
        let placed = collate::cat0_leased(&field_parts, &pool, DeviceId::Cpu)
            .and_then(|f| collate::cat0_leased(&label_parts, &pool, DeviceId::Cpu).map(|l| (f, l)));
        collate_ns.push(t.elapsed().as_nanos() as u64);
        match placed {
            Ok(((ft, fl), (lt, ll))) => {
                drop((ft, lt));
                pool.reclaim(fl.into_handle());
                pool.reclaim(ll.into_handle());
            }
            Err(e) => {
                collate_err = Some(format!("cat0_leased: {e}"));
                break;
            }
        }
    }
    if let Some(e) = collate_err {
        return Err(e);
    }
    collate_ns.sort_unstable();
    rows.insert("ts-tensor.collate_leased_us", p50_us(&collate_ns));
    rows.insert(
        "ts-tensor.collate_vs_memcpy",
        p50_us(&collate_ns) / memcpy_us,
    );

    let lease_ns = mean_ns(effort.calls, || {
        if let Ok(lease) = pool.lease(field_bytes.len()) {
            pool.reclaim(lease.into_handle());
        }
    });
    rows.insert("ts-shm.lease_release_us", lease_ns / 1e3);
    pool.drain();

    let handle = arena
        .alloc(&field_bytes)
        .map_err(|e| format!("arena alloc: {e}"))?;
    let attach_ns = mean_ns(effort.calls, || {
        std::hint::black_box(arena.attach(handle).ok());
    });
    rows.insert("ts-shm.attach_us", attach_ns / 1e3);

    let registry = SharedRegistry::new();
    registry.register(field.storage());
    let roundtrip_ns = mean_ns(effort.calls, || {
        let wire = TensorPayload::pack(&field).encode();
        let back = TensorPayload::decode(&wire).and_then(|p| p.unpack(&registry));
        std::hint::black_box(back.ok());
    });
    rows.insert("ts-tensor.payload_roundtrip_us", roundtrip_ns / 1e3);

    // --- protocol: the workload's real announce and ack ---------------------
    let mut field_payload = TensorPayload::pack(&field);
    field_payload.shm = Some(handle);
    let mut label_payload = TensorPayload::pack(&labels);
    label_payload.shm = Some(handle);
    let announce = |content| {
        DataMsg::Batch(BatchAnnounce {
            seq: 4242,
            epoch: 3,
            index_in_epoch: 42,
            last_in_epoch: false,
            content,
        })
    };
    let pointer_msg = announce(AnnounceContent::Shared {
        fields: vec![field_payload],
        labels: label_payload,
    });
    let pointer_wire = pointer_msg.encode();
    rows.insert(
        "protocol.announce_encode_ns",
        mean_ns(effort.calls, || {
            std::hint::black_box(pointer_msg.encode());
        }),
    );
    rows.insert(
        "protocol.announce_decode_ns",
        mean_ns(effort.calls, || {
            std::hint::black_box(DataMsg::decode(&pointer_wire).ok());
        }),
    );
    let ack = CtrlMsg::Ack {
        consumer_id: 0x5eed,
        seq: 4242,
    };
    let ack_wire = ack.encode();
    rows.insert(
        "protocol.ack_codec_ns",
        mean_ns(effort.calls, || {
            std::hint::black_box(CtrlMsg::decode(&ack.encode()).ok());
        }),
    );
    arena.release(handle);

    let mut streamed_wire = Bytes::new();
    let enc = time_loop(cap, 400, || {
        streamed_wire = announce(AnnounceContent::Streamed {
            fields: vec![StreamedTensor::from_tensor(&field)],
            labels: StreamedTensor::from_tensor(&labels),
        })
        .encode();
    });
    let dec = time_loop(cap, 400, || {
        if let Ok(DataMsg::Batch(a)) = DataMsg::decode(&streamed_wire) {
            if let AnnounceContent::Streamed { fields, labels } = a.content {
                std::hint::black_box((
                    fields[0].to_tensor(DeviceId::Cpu).ok(),
                    labels.to_tensor(DeviceId::Cpu).ok(),
                ));
            }
        }
    });
    rows.insert("protocol.streamed_encode_us", p50_us(&enc));
    rows.insert("protocol.streamed_decode_us", p50_us(&dec));
    rows.insert(
        "protocol.streamed_encode_vs_memcpy",
        p50_us(&enc) / memcpy_us,
    );
    rows.insert(
        "protocol.streamed_decode_vs_memcpy",
        p50_us(&dec) / memcpy_us,
    );

    // --- ts-socket over ipc:// next to a bare Unix socket -------------------
    let rtt = ctrl_rtt_ipc(cap, dir, &pointer_wire, &ack_wire)?;
    let uds_rtt = uds_rtt(cap, pointer_wire.len(), ack_wire.len())?;
    rows.insert("ts-socket.ctrl_rtt_ipc_us", p50_us(&rtt));
    rows.insert("ts-socket.ctrl_rtt_ipc_p99_us", p99_us(&rtt));
    rows.insert("roofline.uds_rtt_us", p50_us(&uds_rtt));
    rows.insert(
        "ts-socket.ctrl_rtt_vs_uds",
        p50_us(&rtt) / p50_us(&uds_rtt).max(1e-3),
    );
    let bulk = bulk_ipc_mib_per_s(effort, dir, &streamed_wire)?;
    let uds_bulk = uds_stream_mib_per_s(effort, streamed_wire.len())?;
    rows.insert("ts-socket.bulk_ipc_mib_per_s", bulk);
    rows.insert("roofline.uds_stream_mib_per_s", uds_bulk);
    rows.insert("ts-socket.bulk_vs_uds", bulk / uds_bulk.max(1e-9));

    // --- ts-log next to raw file I/O in the same directory ------------------
    let log = log_rows(effort, dir, &streamed_wire)?;
    rows.extend(log);
    Ok(rows)
}

/// PUB→SUB announce-sized frame out, PUSH→PULL ack-sized reply back:
/// the control round trip every pointer-passed batch pays.
fn ctrl_rtt_ipc(
    cap: Duration,
    dir: &Path,
    announce: &Bytes,
    ack: &Bytes,
) -> Result<Vec<u64>, String> {
    let data = format!("ipc://{}", dir.join("rtt.data").display());
    let ctrl = format!("ipc://{}", dir.join("rtt.ctrl").display());
    let near = Context::new();
    let publisher = PubSocket::bind(&near, &data).map_err(|e| format!("bind {data}: {e}"))?;
    let pull = PullSocket::bind(&near, &ctrl).map_err(|e| format!("bind {ctrl}: {e}"))?;
    let (ack, data_c, ctrl_c) = (ack.clone(), data.clone(), ctrl.clone());
    let echo = std::thread::spawn(move || {
        let far = Context::new();
        let sub = SubSocket::connect(&far, &data_c);
        sub.subscribe(b"");
        let push = PushSocket::connect(&far, &ctrl_c);
        while let Ok((topic, _)) = sub.recv_timeout(Duration::from_secs(5)) {
            if &topic[..] == b"stop" {
                break;
            }
            if push.send(Multipart::single(ack.clone())).is_err() {
                break;
            }
        }
    });
    // A subscriber only sees what is published after it connected: ping
    // until the first echo comes back.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let _ = publisher.send(b"batch", Multipart::single(announce.clone()));
        if pull.recv_timeout(Duration::from_millis(20)).is_ok() {
            break;
        }
        if Instant::now() > deadline {
            let _ = publisher.send(b"stop", Multipart::new());
            let _ = echo.join();
            return Err("ipc ping-pong never connected".into());
        }
    }
    while pull.recv_timeout(Duration::from_millis(50)).is_ok() {} // drain stray echoes
    let mut lost = 0u32;
    let samples = time_loop(cap, 5000, || {
        let _ = publisher.send(b"batch", Multipart::single(announce.clone()));
        if pull.recv_timeout(Duration::from_secs(2)).is_err() {
            lost += 1;
        }
    });
    let _ = publisher.send(b"stop", Multipart::new());
    let _ = echo.join();
    if lost > 0 {
        return Err(format!("ipc ping-pong lost {lost} replies"));
    }
    Ok(samples)
}

/// The same two frame sizes over a bare `UnixStream` pair.
fn uds_rtt(cap: Duration, out_len: usize, back_len: usize) -> Result<Vec<u64>, String> {
    let (mut near, mut far) = UnixStream::pair().map_err(io_err("socketpair"))?;
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; out_len];
        let reply = vec![1u8; back_len];
        while far.read_exact(&mut buf).is_ok() {
            if far.write_all(&reply).is_err() {
                break;
            }
        }
    });
    let (ping, mut pong) = (vec![2u8; out_len], vec![0u8; back_len]);
    let mut failed = false;
    let samples = time_loop(cap, 5000, || {
        failed |= near.write_all(&ping).is_err() || near.read_exact(&mut pong).is_err();
    });
    drop(near);
    let _ = echo.join();
    if failed {
        return Err("uds ping-pong failed".into());
    }
    Ok(samples)
}

/// Batch-sized frames PUB→SUB over `ipc://`, at most two in flight.
fn bulk_ipc_mib_per_s(effort: Effort, dir: &Path, frame: &Bytes) -> Result<f64, String> {
    let data = format!("ipc://{}", dir.join("bulk.data").display());
    let near = Context::new();
    let publisher = PubSocket::bind(&near, &data).map_err(|e| format!("bind {data}: {e}"))?;
    let (seen_tx, seen_rx) = std::sync::mpsc::channel::<usize>();
    let data_c = data.clone();
    let sink = std::thread::spawn(move || {
        let far = Context::new();
        let sub = SubSocket::connect(&far, &data_c);
        sub.subscribe(b"");
        while let Ok((topic, msg)) = sub.recv_timeout(Duration::from_secs(5)) {
            if &topic[..] == b"stop" || seen_tx.send(msg.byte_len()).is_err() {
                break;
            }
        }
    });
    let finish = |publisher: &PubSocket| {
        let _ = publisher.send(b"stop", Multipart::new());
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let _ = publisher.send(b"batch", Multipart::single(frame.clone()));
        if seen_rx.recv_timeout(Duration::from_millis(50)).is_ok() {
            break;
        }
        if Instant::now() > deadline {
            finish(&publisher);
            let _ = sink.join();
            return Err("ipc bulk path never connected".into());
        }
    }
    while seen_rx.recv_timeout(Duration::from_millis(50)).is_ok() {}
    let count = effort.frames(frame.len());
    let started = Instant::now();
    let mut sent = 0usize;
    let mut arrivals = Vec::with_capacity(count);
    while arrivals.len() < count {
        while sent < count && sent - arrivals.len() < 2 {
            let _ = publisher.send(b"batch", Multipart::single(frame.clone()));
            sent += 1;
        }
        match seen_rx.recv_timeout(Duration::from_secs(5)) {
            Ok(n) if n >= frame.len() => arrivals.push(Instant::now()),
            _ => break,
        }
        if started.elapsed() > 4 * effort.cap && arrivals.len() >= 8 {
            break;
        }
    }
    finish(&publisher);
    let _ = sink.join();
    if arrivals.len() < 2 {
        return Err("ipc bulk path delivered nothing".into());
    }
    Ok(stream_mib_per_s(frame.len(), &arrivals))
}

/// The same bytes written straight through a `UnixStream` pair.
fn uds_stream_mib_per_s(effort: Effort, frame_len: usize) -> Result<f64, String> {
    let (mut near, mut far) = UnixStream::pair().map_err(io_err("socketpair"))?;
    let count = effort.frames(frame_len);
    let sink = std::thread::spawn(move || {
        let mut buf = vec![0u8; frame_len];
        let mut arrivals = Vec::new();
        while far.read_exact(&mut buf).is_ok() {
            arrivals.push(Instant::now());
        }
        arrivals
    });
    let frame = vec![3u8; frame_len];
    let started = Instant::now();
    let mut sent = 0usize;
    while sent < count && (sent < 8 || started.elapsed() < 4 * effort.cap) {
        near.write_all(&frame).map_err(io_err("uds stream write"))?;
        sent += 1;
    }
    drop(near);
    let arrivals = sink.join().map_err(|_| "uds sink panicked".to_string())?;
    Ok(stream_mib_per_s(frame_len, &arrivals))
}

/// `BatchLog` append and sequential read of streamed-frame-sized records,
/// next to a raw file written and read in the same directory. Both writes
/// end with their flush to disk (`BatchLog::sync`, `sync_data`), so the
/// two sides pay for the same durability.
fn log_rows(effort: Effort, dir: &Path, frame: &Bytes) -> Result<Vec<(&'static str, f64)>, String> {
    let records = effort.frames(frame.len()) as u64;
    let total_mib = (records as usize * frame.len()) as f64 / MIB;

    let log_dir = dir.join("layers.log");
    let mut log = BatchLog::open(&LogConfig::new(&log_dir), 0).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for seq in 0..records {
        log.append(seq, seq / 256, seq % 256, frame)
            .map_err(|e| e.to_string())?;
    }
    log.sync().map_err(|e| e.to_string())?;
    let append = total_mib / t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut read_bytes = 0usize;
    for seq in 0..records {
        read_bytes += log.read(seq).map_or(0, |r| r.len());
    }
    let read = read_bytes as f64 / MIB / t.elapsed().as_secs_f64();
    drop(log);
    let _ = std::fs::remove_dir_all(&log_dir);
    if read_bytes != records as usize * frame.len() {
        return Err("log read back fewer bytes than appended".into());
    }

    let raw_path = dir.join("layers.raw");
    let t = Instant::now();
    let mut file = std::fs::File::create(&raw_path).map_err(io_err("raw file"))?;
    for _ in 0..records {
        file.write_all(frame).map_err(io_err("raw write"))?;
    }
    file.sync_data().map_err(io_err("raw sync"))?;
    let raw_write = total_mib / t.elapsed().as_secs_f64();
    drop(file);
    let t = Instant::now();
    let mut file = std::fs::File::open(&raw_path).map_err(io_err("raw open"))?;
    let mut buf = vec![0u8; frame.len()];
    for _ in 0..records {
        file.read_exact(&mut buf).map_err(io_err("raw read"))?;
        std::hint::black_box(&buf);
    }
    let raw_read = total_mib / t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&raw_path);

    Ok(vec![
        ("ts-log.append_mib_per_s", append),
        ("ts-log.append_vs_write", append / raw_write.max(1e-9)),
        ("ts-log.read_mib_per_s", read),
        ("ts-log.read_vs_read", read / raw_read.max(1e-9)),
        ("roofline.file_write_mib_per_s", raw_write),
        ("roofline.file_read_mib_per_s", raw_read),
    ])
}
