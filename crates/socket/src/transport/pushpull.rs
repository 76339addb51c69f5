//! PUSH/PULL over `ipc://`/`tcp://` streams.
//!
//! The puller binds and accepts many pushers; every connection's reader
//! thread feeds one shared bounded queue (fan-in). Pushers enqueue into a
//! local bounded queue drained by a writer thread, so `send` applies HWM
//! backpressure and `try_send` reports `Full` exactly like the broker
//! path. A pusher that connects before the puller binds simply buffers —
//! its connector retries in the background.

use crate::endpoint::{ring, Notify};
use crate::error::{RecvError, SendError};
use crate::frame::Multipart;
use crate::transport::{
    check_frames, linger, AnyListener, AnyStream, Backlog, EndpointAddr, CONNECT_RETRY_FOR,
    POLL_EVERY,
};
use crate::wire;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct PullShared {
    stop: AtomicBool,
    /// Live connections by id; readers remove their entry on exit so
    /// long-lived pullers do not leak one fd per departed pusher.
    conns: Mutex<Vec<(u64, AnyStream)>>,
    /// Rung by each connection reader after it enqueues a message.
    notify: Notify,
}

/// The stream-transport receiving side.
pub(crate) struct StreamPull {
    shared: Arc<PullShared>,
    rx: Receiver<Multipart>,
    endpoint: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl StreamPull {
    pub(crate) fn bind(
        addr: &EndpointAddr,
        endpoint: &str,
        hwm: usize,
    ) -> Result<StreamPull, SendError> {
        let listener = AnyListener::bind(addr)?;
        let endpoint = listener
            .local_endpoint()
            .unwrap_or_else(|| endpoint.to_string());
        let (tx, rx) = channel::bounded(hwm);
        let shared = Arc::new(PullShared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            notify: Notify::default(),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ts-pull-accept".into())
            .spawn(move || pull_accept_loop(listener, accept_shared, tx))
            .map_err(|e| SendError::Io(format!("spawn accept: {e}")))?;
        Ok(StreamPull {
            shared,
            rx,
            endpoint,
            accept_thread: Some(accept_thread),
        })
    }

    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    pub(crate) fn notify(&self) -> &Notify {
        &self.shared.notify
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Multipart, RecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    pub(crate) fn try_recv(&self) -> Result<Option<Multipart>, RecvError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RecvError::Closed),
        }
    }

    pub(crate) fn queued(&self) -> usize {
        self.rx.len()
    }
}

impl Drop for StreamPull {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for (_, conn) in self.shared.conns.lock().expect("pull conns").drain(..) {
            conn.shutdown();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn pull_accept_loop(listener: AnyListener, shared: Arc<PullShared>, tx: Sender<Multipart>) {
    let mut next_id = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(stream)) => {
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                let id = next_id;
                next_id += 1;
                shared.conns.lock().expect("pull conns").push((id, stream));
                let conn_tx = tx.clone();
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("ts-pull-reader".into())
                    .spawn(move || pull_reader(id, read_half, conn_shared, conn_tx));
                if spawned.is_err() {
                    break;
                }
            }
            Ok(None) => std::thread::sleep(POLL_EVERY),
            Err(_) => break,
        }
    }
    // tx (the accept loop's clone) drops here; the queue closes once the
    // last connection reader exits too.
}

fn pull_reader(id: u64, read_half: AnyStream, shared: Arc<PullShared>, tx: Sender<Multipart>) {
    let mut reader = BufReader::new(read_half.into_reader());
    while !shared.stop.load(Ordering::SeqCst) {
        let msg = match wire::read_message(&mut reader) {
            Ok(m) => m,
            Err(_) => break,
        };
        if let Some(payload) = msg.into_payload() {
            if tx.send(payload).is_err() {
                break;
            }
            ring(&shared.notify);
        }
    }
    // Close and forget this pusher's connection so a long-lived puller
    // does not accumulate dead fds.
    let mut conns = shared.conns.lock().expect("pull conns");
    if let Some(pos) = conns.iter().position(|(cid, _)| *cid == id) {
        let (_, conn) = conns.remove(pos);
        conn.shutdown();
    }
}

// ---------------------------------------------------------------------------
// push side
// ---------------------------------------------------------------------------

struct PushShared {
    stop: AtomicBool,
    /// The writer holds a connection and is still writing.
    connected: AtomicBool,
    backlog: Backlog,
}

/// The stream-transport sending side.
pub(crate) struct StreamPush {
    tx: Sender<Multipart>,
    shared: Arc<PushShared>,
}

impl StreamPush {
    pub(crate) fn connect(addr: EndpointAddr, hwm: usize) -> StreamPush {
        let (tx, rx) = channel::bounded(hwm);
        let shared = Arc::new(PushShared {
            stop: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            backlog: Backlog::default(),
        });
        let writer_shared = shared.clone();
        std::thread::Builder::new()
            .name("ts-push-writer".into())
            .spawn(move || push_writer(addr, writer_shared, rx))
            .expect("spawn push writer");
        StreamPush { tx, shared }
    }

    pub(crate) fn send(&self, msg: Multipart) -> Result<(), SendError> {
        check_frames(&[], &msg)?;
        self.tx.send(msg).map_err(|_| SendError::Disconnected)?;
        self.shared.backlog.queued();
        Ok(())
    }

    pub(crate) fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        check_frames(&[], &msg)?;
        match self.tx.try_send(msg) {
            Ok(()) => {
                self.shared.backlog.queued();
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(SendError::Full),
            Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
        }
    }
}

impl Drop for StreamPush {
    fn drop(&mut self) {
        // Let a connected writer put what is already queued on the wire (a
        // consumer's last ack and its LEAVE, say); one that never connected,
        // or lost its peer, has nothing to wait for.
        let s = &self.shared;
        linger(|| s.connected.load(Ordering::SeqCst) && s.backlog.pending());
        // Abort a pending connect; a live writer sees the sender side
        // close, finds the queue empty and exits.
        s.stop.store(true, Ordering::SeqCst);
    }
}

fn push_writer(addr: EndpointAddr, shared: Arc<PushShared>, rx: Receiver<Multipart>) {
    let give_up = {
        let shared = shared.clone();
        move || shared.stop.load(Ordering::SeqCst)
    };
    let mut stream = match AnyStream::connect_retry(&addr, CONNECT_RETRY_FOR, give_up) {
        Ok(s) => s,
        Err(_) => return, // rx drops: senders observe Disconnected
    };
    shared.connected.store(true, Ordering::SeqCst);
    loop {
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if wire::write_data(&mut stream, &msg).is_err() {
            break; // peer gone: rx drops, senders observe Disconnected
        }
        shared.backlog.written();
    }
    shared.connected.store(false, Ordering::SeqCst);
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn dropping_a_pusher_lingers_until_its_queue_is_on_the_wire() {
        // A process may exit right after dropping its last socket: whatever
        // is still queued then is lost, so `drop` must not return before a
        // connected writer flushed — and must not wait for one that never
        // connected.
        let path = std::env::temp_dir().join(format!("ts-linger-{}.sock", std::process::id()));
        let name = format!("ipc://{}", path.display());
        let addr = EndpointAddr::parse(&name).unwrap();
        let pull = StreamPull::bind(&addr, &name, 4096).unwrap();
        let push = StreamPush::connect(addr.clone(), 4096);
        let first = Multipart::single(Bytes::from_static(b"connect"));
        push.send(first).unwrap();
        pull.recv_timeout(Duration::from_secs(5))
            .expect("connected");
        for _ in 0..2000 {
            push.send(Multipart::single(Bytes::from(vec![7u8; 512])))
                .unwrap();
        }
        let shared = push.shared.clone();
        drop(push);
        assert!(!shared.backlog.pending(), "dropped with a backlog");
        for _ in 0..2000 {
            pull.recv_timeout(Duration::from_secs(5)).expect("flushed");
        }
        drop(pull);
        let nobody = StreamPush::connect(addr, 16);
        nobody
            .send(Multipart::single(Bytes::from_static(b"x")))
            .unwrap();
        let started = std::time::Instant::now();
        drop(nobody);
        assert!(
            started.elapsed() < crate::transport::LINGER / 4,
            "waited for a connection"
        );
    }
}
