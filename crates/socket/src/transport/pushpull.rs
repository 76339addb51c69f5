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
    check_frames, AnyListener, AnyStream, EndpointAddr, CONNECT_RETRY_FOR, POLL_EVERY,
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
        self.tx.send(msg).map_err(|_| SendError::Disconnected)
    }

    pub(crate) fn try_send(&self, msg: Multipart) -> Result<(), SendError> {
        check_frames(&[], &msg)?;
        match self.tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SendError::Full),
            Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
        }
    }
}

impl Drop for StreamPush {
    fn drop(&mut self) {
        // Abort a pending connect; a live writer drains the queue (the
        // sender side closing wakes it) and then exits.
        self.shared.stop.store(true, Ordering::SeqCst);
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
    loop {
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if wire::write_data(&mut stream, &msg).is_err() {
            break; // peer gone: rx drops, senders observe Disconnected
        }
    }
    stream.shutdown();
}
