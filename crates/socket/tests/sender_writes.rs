//! The two send paths of the stream transports — a small message written
//! by the thread that sends it, everything else through the connection's
//! queue and writer thread — and the puller that reads its own
//! connections: what must hold whichever path a frame took.

use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use ts_socket::{Context, Multipart, PubSocket, PullSocket, PushSocket, SendError, SendPolicy};

fn ipc_endpoint(tag: &str) -> String {
    format!(
        "ipc://{}",
        std::env::temp_dir()
            .join(format!("ts-inline-{}-{tag}.sock", std::process::id()))
            .display()
    )
}

const RECV: Duration = Duration::from_secs(10);

/// `[sender, n]` then `len` bytes of `n as u8`.
fn numbered(sender: u8, n: u32, len: usize) -> Multipart {
    let mut frame = vec![sender];
    frame.extend_from_slice(&n.to_le_bytes());
    frame.resize(5 + len, n as u8);
    Multipart::single(Bytes::from(frame))
}

/// The `(sender, n)` of a [`numbered`] message, checked to be whole.
fn parse(msg: &Multipart) -> (u8, u32) {
    let frame = &msg.frames()[0];
    let n = u32::from_le_bytes(frame[1..5].try_into().unwrap());
    assert!(frame[5..].iter().all(|b| *b == n as u8), "a torn frame");
    (frame[0], n)
}

#[test]
fn two_threads_share_one_pusher() {
    // The consumer's thread and its heartbeat do exactly this. Sizes vary
    // so frames of one thread land between the halves of nothing.
    let ctx = Context::new();
    let endpoint = ipc_endpoint("shared");
    let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
    let push = PushSocket::connect(&ctx, &endpoint);
    const N: u32 = 5000;
    std::thread::scope(|s| {
        for sender in 0..2u8 {
            let push = &push;
            s.spawn(move || {
                for n in 0..N {
                    let len = (n as usize * 37 + sender as usize) % 900;
                    push.send(numbered(sender, n, len)).unwrap();
                }
            });
        }
        let mut next = [0u32; 2];
        while next != [N, N] {
            let (sender, n) = parse(&pull.recv_timeout(RECV).expect("every frame arrives"));
            assert_eq!(n, next[sender as usize], "sender {sender} out of order");
            next[sender as usize] += 1;
        }
    });
    // Whichever path each took: two threads that outrun the writer keep
    // the queue non-empty, and then every frame of the burst is queued.
    let stats = push.transport_stats();
    assert_eq!(stats.inline_frames + stats.queued_frames, 2 * N as u64);
}

#[test]
fn a_peer_that_stops_reading_turns_inline_sends_into_queued_ones() {
    const HWM: usize = 8;
    let ctx = Context::with_hwm(HWM);
    let endpoint = ipc_endpoint("stalled");
    let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
    let push = PushSocket::connect(&ctx, &endpoint);
    push.send(numbered(0, 0, 1000)).unwrap();
    parse(&pull.recv_timeout(RECV).expect("connected"));
    // Nobody reads from here on: the socket buffers fill, then the queue —
    // HWM messages behind the one its writer took and is stuck writing.
    // `Full` is final once it repeats after the writer had time for that.
    let mut sent = 1u32;
    let deadline = Instant::now() + RECV;
    let mut refused = 0;
    while refused < 2 {
        match push.try_send(numbered(0, sent, 1000)) {
            Ok(()) => (sent, refused) = (sent + 1, 0),
            Err(SendError::Full) => {
                refused += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("{e}"),
        }
        assert!(Instant::now() < deadline, "{:?}", push.transport_stats());
    }
    let full_at = sent;
    let stats = push.transport_stats();
    assert!(stats.inline_frames > 1, "{stats:?}");
    assert!(stats.inline_wouldblock >= 1, "{stats:?}");
    assert!(stats.queued_frames > HWM as u64, "{stats:?}");
    assert_eq!(stats.inline_frames + stats.queued_frames, full_at as u64);
    // `Block` blocks the sender — and only the sender: another thread's
    // `try_send` still answers at once.
    let blocked = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            push.send(numbered(0, full_at, 1000)).unwrap();
            blocked.store(false, Ordering::SeqCst);
        });
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(100) {
            assert_eq!(
                push.try_send(numbered(0, u32::MAX, 10)),
                Err(SendError::Full)
            );
            std::thread::yield_now();
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "try_send waited"
        );
        assert!(blocked.load(Ordering::SeqCst), "send did not block");
        // The peer reads again: everything arrives, in the order sent.
        for n in 1..=full_at {
            let (_, got) = parse(&pull.recv_timeout(RECV).expect("drains"));
            assert_eq!(got, n);
        }
    });
    assert!(!blocked.load(Ordering::SeqCst));
    // With nothing owed any more, the sender writes for itself again.
    let before = push.transport_stats().inline_frames;
    let deadline = Instant::now() + RECV;
    let mut n = full_at;
    while push.transport_stats().inline_frames == before {
        assert!(Instant::now() < deadline, "never went back inline");
        n += 1;
        push.send(numbered(0, n, 10)).unwrap();
        assert_eq!(parse(&pull.recv_timeout(RECV).unwrap()).1, n);
    }
}

#[test]
fn a_short_inline_writes_tail_goes_out_before_anything_else() {
    // One staged message far larger than the socket buffer: the kernel
    // takes its head from the sending thread, the tail waits for the
    // writer. The next message must come out behind it, under DropNewest
    // with the smallest queue there is — dropped is fine, in front is not.
    let ctx = Context::new();
    let endpoint = ipc_endpoint("tail");
    let publisher = PubSocket::bind_with(&ctx, &endpoint, SendPolicy::DropNewest, Some(1)).unwrap();
    let sub = ts_socket::SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    let small = || Bytes::from(vec![9u8; 4000]);
    let wide = Multipart::from_frames((0..2000).map(|_| small()).collect()); // ~8 MB staged
    let before = publisher.transport_stats(); // the SUBACK
    assert_eq!(publisher.send(b"t", wide.clone()).unwrap(), 1);
    let stats = publisher.transport_stats();
    assert_eq!(stats.inline_frames, before.inline_frames + 1, "{stats:?}");
    assert_eq!(stats.queued_frames, before.queued_frames, "{stats:?}");
    let mut followed = 0;
    for n in 0..50u32 {
        followed += publisher.send(b"t", numbered(1, n, 10)).unwrap();
    }
    let (_, first) = sub.recv_timeout(RECV).unwrap();
    assert_eq!(first, wide, "the tail was overtaken or lost");
    for _ in 0..followed {
        parse(&sub.recv_timeout(RECV).unwrap().1);
    }
}

extern "C" {
    fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
}

#[test]
fn a_peer_killed_mid_stream_is_an_error_never_a_signal() {
    use std::os::unix::net::UnixListener;
    // Rust binaries start with SIGPIPE ignored; a process embedding this
    // crate need not. Put the default (terminate) back: if any write in
    // here could raise it, this test binary dies.
    const SIGPIPE: std::os::raw::c_int = 13;
    const SIG_DFL: usize = 0;
    // Safety: installs the default disposition for one signal; no handler
    // of ours runs.
    unsafe { signal(SIGPIPE, SIG_DFL) };

    let ctx = Context::new();
    // A puller that accepts and dies.
    let path = std::env::temp_dir().join(format!("ts-inline-{}-killed.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let push = PushSocket::connect(&ctx, &format!("ipc://{}", path.display()));
    push.send(numbered(0, 0, 10)).unwrap();
    drop(listener.accept().unwrap());
    drop(listener);
    let deadline = Instant::now() + RECV;
    while push.send(numbered(0, 1, 10)).is_ok() {
        assert!(Instant::now() < deadline, "the pusher never noticed");
        std::thread::yield_now();
    }
    assert_eq!(push.send(numbered(0, 2, 10)), Err(SendError::Disconnected));
    let _ = std::fs::remove_file(&path);

    // A subscriber that subscribes and dies.
    let endpoint = ipc_endpoint("killed-sub");
    let publisher = PubSocket::bind(&ctx, &endpoint).unwrap();
    let sub = ts_socket::SubSocket::connect(&ctx, &endpoint);
    sub.subscribe(b"");
    assert_eq!(publisher.subscriber_count(), 1);
    drop(sub);
    while publisher.subscriber_count() > 0 {
        assert!(Instant::now() < deadline, "the publisher never noticed");
        let _ = publisher.send(b"t", numbered(0, 3, 10));
        std::thread::yield_now();
    }
    assert_eq!(publisher.send(b"t", numbered(0, 4, 10)).unwrap(), 0);
}

#[test]
fn no_ring_is_lost_and_no_wait_outlives_its_timeout() {
    let ctx = Context::new();
    for endpoint in [ipc_endpoint("bell"), "inproc://bell".to_string()] {
        let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
        let bell = pull.bell();
        // The ringer posts round `i` and rings once the owner has seen
        // round `i - 1`, so every ring races the owner's way back to sleep:
        // before its last look, between the look and the sleep, or after.
        const ROUNDS: u64 = 10_000;
        let (posted, seen) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=ROUNDS {
                    while seen.load(Ordering::SeqCst) < i - 1 {
                        std::thread::yield_now();
                    }
                    posted.store(i, Ordering::SeqCst);
                    bell.ring();
                }
            });
            for i in 1..=ROUNDS {
                let started = Instant::now();
                while posted.load(Ordering::SeqCst) < i {
                    pull.wait(Duration::from_secs(5));
                }
                let took = started.elapsed();
                assert!(
                    took < Duration::from_secs(2),
                    "{endpoint}: round {i} slept {took:?}"
                );
                seen.store(i, Ordering::SeqCst);
            }
        });
        // Timeouts are honoured below a millisecond (`poll` would round
        // 300 us up to one, or down to none), and none is overslept by more
        // than a scheduler quantum or so.
        let timeout = Duration::from_micros(300);
        let mut took: Vec<Duration> = (0..200)
            .map(|_| {
                let started = Instant::now();
                pull.wait(timeout);
                started.elapsed()
            })
            .collect();
        took.sort();
        let (median, worst) = (took[took.len() / 2], took[took.len() - 1]);
        assert!(median >= timeout, "{endpoint}: woke early, {median:?}");
        assert!(
            median < Duration::from_micros(900),
            "{endpoint}: {median:?}"
        );
        assert!(
            worst < timeout + Duration::from_millis(100),
            "{endpoint}: {worst:?}"
        );
    }
}

#[test]
fn one_chatty_pusher_cannot_starve_another() {
    let ctx = Context::new();
    let endpoint = ipc_endpoint("fair");
    let pull = PullSocket::bind(&ctx, &endpoint).unwrap();
    let chatty = PushSocket::connect(&ctx, &endpoint);
    let quiet = PushSocket::connect(&ctx, &endpoint);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut n = 0;
            while !stop.load(Ordering::SeqCst) {
                let _ = chatty.try_send(numbered(0, n, 100));
                n += 1;
            }
        });
        // Let the chatty one get ahead: its connection is readable at
        // every look from here on.
        for _ in 0..1000 {
            assert_eq!(parse(&pull.recv_timeout(RECV).unwrap()).0, 0);
        }
        quiet.send(numbered(1, 0, 100)).unwrap();
        let mut behind = 0u32;
        while parse(&pull.recv_timeout(RECV).unwrap()).0 != 1 {
            behind += 1;
            assert!(behind < 100_000, "the quiet pusher is starved");
        }
        stop.store(true, Ordering::SeqCst);
    });
}
