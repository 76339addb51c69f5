//! The subscriber that reads its own connection over `ipc://`: what its
//! owner is promised — data read while `subscribe` waits is kept in order,
//! a publisher that stalls mid-message costs a receive its timeout and
//! nothing more, one wait covers several subscribers — and which threads
//! a stream of frames wakes.

use bytes::Bytes;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use ts_socket::wire::{self, KIND_SUB, KIND_SUBACK};
use ts_socket::{Context, Multipart, PubSocket, RecvError, SubSocket};

const RECV: Duration = Duration::from_secs(10);

/// Every test here connects subscribers, and two of them count the
/// threads of the process: they take turns.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ipc_endpoint(tag: &str) -> String {
    let name = format!("ts-subreads-{}-{tag}.sock", std::process::id());
    format!("ipc://{}", std::env::temp_dir().join(name).display())
}

fn numbered(n: u32) -> Multipart {
    Multipart::single(Bytes::from(n.to_le_bytes().to_vec()))
}

fn number(msg: &Multipart) -> u32 {
    u32::from_le_bytes(msg.frames()[0][..].try_into().unwrap())
}

/// A publisher played by hand: the listening end of an `ipc://` endpoint.
fn fake_publisher(tag: &str) -> (String, UnixListener) {
    let endpoint = ipc_endpoint(tag);
    let path = endpoint.strip_prefix("ipc://").unwrap();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).unwrap();
    (endpoint, listener)
}

/// Accepts the subscriber and reads its `SUB`: the connection, and the
/// request id a `SUBACK` must carry.
fn accept_sub(listener: &UnixListener) -> (UnixStream, [u8; 8]) {
    let (mut conn, _) = listener.accept().unwrap();
    let sub = wire::read_message(&mut conn).unwrap();
    assert_eq!(sub.kind, KIND_SUB);
    (conn, sub.frames[1][..].try_into().unwrap())
}

#[test]
fn data_read_while_subscribe_waits_for_its_ack_is_kept_in_order() {
    let _turn = turn();
    let ctx = Context::new();
    let (endpoint, listener) = fake_publisher("early");
    let sub = SubSocket::connect(&ctx, &endpoint);
    let conn = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            // A thousand messages ahead of the acknowledgement, a hundred
            // behind it.
            let (mut conn, req) = accept_sub(&listener);
            for n in 0..1000 {
                wire::write_topic_data(&mut conn, b"t", &numbered(n)).unwrap();
            }
            wire::write_message(&mut conn, KIND_SUBACK, &[&req]).unwrap();
            for n in 1000..1100 {
                wire::write_topic_data(&mut conn, b"t", &numbered(n)).unwrap();
            }
            conn
        });
        sub.subscribe(b"t");
        // `subscribe` read all that came before its ack itself.
        assert!(sub.queued() >= 1000, "{}", sub.queued());
        publisher.join().unwrap()
    });
    for n in 0..1100 {
        let (topic, msg) = sub.recv_timeout(RECV).expect("none is lost");
        assert_eq!((&topic[..], number(&msg)), (&b"t"[..], n));
    }
    assert!(matches!(sub.try_recv(), Ok(None)));
    drop(conn);
    assert!(matches!(sub.recv_timeout(RECV), Err(RecvError::Closed)));
}

#[test]
fn a_publisher_that_stalls_mid_message_costs_a_receive_its_timeout() {
    let _turn = turn();
    let ctx = Context::new();
    // A message that fits the subscriber's buffer, and one whose frame is
    // read into a buffer of its own.
    for len in [100, 300 << 10] {
        let (endpoint, listener) = fake_publisher("stall");
        let sub = SubSocket::connect(&ctx, &endpoint);
        let mut conn = std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                let (mut conn, req) = accept_sub(&listener);
                wire::write_message(&mut conn, KIND_SUBACK, &[&req]).unwrap();
                conn
            });
            sub.subscribe(b"t");
            publisher.join().unwrap()
        });
        let payload = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>());
        let mut message = Vec::new();
        wire::write_topic_data(&mut message, b"t", &Multipart::single(payload.clone())).unwrap();
        let half = message.len() / 2;
        conn.write_all(&message[..half]).unwrap();
        let timeout = Duration::from_millis(200);
        let started = Instant::now();
        let stalled = sub.recv_timeout(timeout);
        let took = started.elapsed();
        assert!(matches!(stalled, Err(RecvError::Timeout)), "{len}");
        assert!(took >= timeout && took < RECV, "{len}: {took:?}");
        // The rest arrives: the message completes on the next call.
        conn.write_all(&message[half..]).unwrap();
        let (topic, msg) = sub.recv_timeout(RECV).unwrap();
        assert_eq!((&topic[..], &msg.frames()[0]), (&b"t"[..], &payload));
    }
}

#[test]
fn one_wait_covers_every_subscriber_it_is_given() {
    let _turn = turn();
    let ctx = Context::new();
    for (tag, endpoints) in [
        ("ipc", [ipc_endpoint("wait0"), ipc_endpoint("wait1")]),
        ("inproc", ["inproc://wait0".into(), "inproc://wait1".into()]),
    ] {
        let [p0, p1] = endpoints
            .each_ref()
            .map(|ep| PubSocket::bind(&ctx, ep).unwrap());
        let subs = endpoints.each_ref().map(|ep| SubSocket::connect(&ctx, ep));
        for sub in &subs {
            sub.subscribe(b"t");
        }
        let both = [&subs[0], &subs[1]];
        // Nothing to read: the wait lasts its timeout.
        let started = Instant::now();
        assert_eq!(SubSocket::wait(&both, Duration::from_millis(50)), None);
        assert!(started.elapsed() >= Duration::from_millis(50), "{tag}");
        // A message for the second wakes a wait on both, long before its
        // timeout, and names it.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                p1.send(b"t", numbered(1)).unwrap();
            });
            let started = Instant::now();
            assert_eq!(SubSocket::wait(&both, RECV), Some(1), "{tag}");
            assert!(started.elapsed() < RECV / 2, "{tag}");
        });
        let (_, msg) = subs[1].try_recv().unwrap().expect("the wait said so");
        assert_eq!(number(&msg), 1);
        // The first one's publisher goes away: that is news too.
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(p0);
            });
            let started = Instant::now();
            assert_eq!(SubSocket::wait(&both, RECV), Some(0), "{tag}");
            assert!(started.elapsed() < RECV / 2, "{tag}");
        });
        assert!(
            matches!(subs[0].try_recv(), Err(RecvError::Closed)),
            "{tag}"
        );
        drop(p1);
    }
}

/// `(tid, name)` of every thread of this process.
#[cfg(target_os = "linux")]
fn threads() -> Vec<(u32, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    let named = |tid: u32| {
        let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
        Some((tid, comm.trim().to_string()))
    };
    (tasks.filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok()))
        .filter_map(named)
        .collect()
}

/// How many times thread `tid` went to sleep of its own accord.
#[cfg(target_os = "linux")]
fn voluntary_switches(tid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    line.unwrap().trim().parse().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn a_publishers_reader_sleeps_through_the_frames_its_subscriber_drains() {
    let _turn = turn();
    // The publisher's one control thread reads every subscriber's `SUB`s.
    let readers = || -> Vec<u32> {
        let threads = threads().into_iter();
        let readers = threads.filter(|(_, name)| name == "ts-pub-listen");
        readers.map(|(tid, _)| tid).collect()
    };
    // An earlier test's publishers may still be on their way out.
    let earlier = readers();
    let ctx = Context::new();
    let endpoint = ipc_endpoint("drain");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"t");
    // Its reader sent the SUBACK, so it is there. The subscriber's writer
    // thread it started carries its name until that thread first runs.
    let deadline = Instant::now() + RECV;
    let reader = loop {
        let ours: Vec<u32> = (readers().into_iter())
            .filter(|tid| !earlier.contains(tid))
            .collect();
        match ours[..] {
            [reader] => break reader,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => panic!("one publisher, one reader: {ours:?}"),
        }
    };
    // One frame at a time, each drained before the next is sent: a reader
    // asleep in `read` would be woken for the room every drain makes.
    let before = voluntary_switches(reader);
    for n in 0..10_000 {
        assert_eq!(publisher.send(b"t", numbered(n)).unwrap(), 1);
        assert_eq!(number(&sub.recv_timeout(RECV).unwrap().1), n);
    }
    let woke = voluntary_switches(reader) - before;
    assert!(
        woke < 100,
        "ts-pub-listen woke {woke} times for 10 000 frames"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn once_subscribed_no_thread_of_the_subscriber_reads_its_connection() {
    let _turn = turn();
    let ctx = Context::new();
    let endpoint = ipc_endpoint("owner");
    // Connected before the publisher binds: a connector thread gets
    // through once it is there.
    let sub = SubSocket::connect(&ctx, &endpoint);
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    sub.subscribe(b"t");
    // The connector handed the connection over before the ack could be
    // read; it is on its way out.
    let deadline = Instant::now() + RECV;
    while threads().iter().any(|(_, name)| name == "ts-sub-conn") {
        assert!(Instant::now() < deadline, "the connector stayed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Nobody reads behind the owner's back: what is sent stays in the
    // kernel until the owner asks for it.
    for n in 0..50 {
        assert_eq!(publisher.send(b"t", numbered(n)).unwrap(), 1);
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(sub.queued(), 0);
    for n in 0..50 {
        assert_eq!(number(&sub.recv_timeout(RECV).unwrap().1), n);
    }
}
