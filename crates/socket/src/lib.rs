#![warn(missing_docs)]

//! ZeroMQ-style messaging for the TensorSocket reproduction.
//!
//! The paper uses ZeroMQ sockets (§3.2.3): a PUB/SUB pair multicasts batch
//! payloads from the producer to all consumers, and separate channels carry
//! acknowledgements and heartbeats back. This crate reproduces the subset
//! TensorSocket relies on:
//!
//! * [`PubSocket`]/[`SubSocket`] — one-to-many multicast with per-subscriber
//!   bounded queues (high-water mark), prefix subscriptions, and ZeroMQ's
//!   "slow joiner" semantics (a subscriber only sees messages published
//!   after it connected);
//! * [`PushSocket`]/[`PullSocket`] — many-to-one fan-in used for ACKs,
//!   heartbeats and join requests;
//! * [`Multipart`] — multi-frame messages (`topic` + payload frames).
//!
//! ## Endpoint URIs
//!
//! The endpoint scheme picks the transport; the socket API is identical
//! across all three:
//!
//! * `inproc://name` — the in-process broker ([`endpoint`]): crossbeam
//!   queues inside one [`Context`], zero syscalls. What the paper's
//!   single-node evaluation effectively measures.
//! * `ipc:///path/to.sock` — Unix domain sockets, for *collocated
//!   processes* (the paper's deployment model: independent training
//!   processes on one machine share one loader).
//! * `tcp://host:port` — TCP, for crossing machines. `tcp://127.0.0.1:0`
//!   binds an ephemeral port; read it back from
//!   [`PubSocket::endpoint`]/[`PullSocket::endpoint`].
//!
//! Remote messages use the length-prefixed multipart framing of [`wire`],
//! and HWM backpressure, prefix filtering and
//! disconnect-as-[`RecvError::Closed`] behave the same everywhere.
//! Bind/connect order does not matter on any transport. Sockets unregister
//! on drop, and peers observe disconnection as pruned deliveries rather
//! than errors, like ZeroMQ.
//!
//! ## Which thread touches a frame
//!
//! Over `ipc://`/`tcp://` a message is a write plus, if the other side
//! sleeps, a wake-up ([`transport`] has the details):
//!
//! * [`PubSocket::send`], [`PushSocket::send`]: a *small* message — every
//!   frame under a page, so every announce, ack, heartbeat, JOIN and cursor
//!   — is put on the wire **by the calling thread**, one non-blocking
//!   `send`, whenever nothing is queued on that connection. Bulk frames,
//!   and whatever the kernel would not take at once, go through the
//!   connection's bounded queue to its writer thread; high-water mark,
//!   [`SendPolicy`] and `try_send → Full` are that queue's, and no sender
//!   ever blocks in a write. [`PubSocket::transport_stats`] and
//!   [`PushSocket::transport_stats`] count both paths.
//! * [`PullSocket`]: **its owner** reads the connections. There is no
//!   accept thread, reader thread or fan-in queue: [`PullSocket::wait`] is
//!   one `poll` over the listener, every pusher and the socket's [`Bell`]
//!   — the handle other threads ring to wake the owner for something that
//!   is not a message. A puller's high-water mark is therefore the
//!   kernel's socket buffer plus the pushers' own queues.
//! * [`SubSocket`]: a reader thread per subscriber decodes into its bounded
//!   queue, overlapping a streamed batch's kernel-to-user copy with
//!   whatever the subscriber's thread is doing.

pub mod bell;
pub mod coalesce;
pub mod endpoint;
pub mod error;
pub mod frame;
pub mod pubsub;
pub mod pushpull;
pub mod transport;
pub mod uri;
pub mod wire;

pub use bell::Bell;
pub use coalesce::{coalescing_cell, CoalescingReceiver, CoalescingSender};
pub use endpoint::{channel_endpoint, shard_endpoint, Context, EndpointMap};
pub use error::{RecvError, SendError};
pub use frame::Multipart;
pub use pubsub::{PubSocket, SendPolicy, SubSocket};
pub use pushpull::{PullSocket, PushSocket};
pub use transport::{EndpointAddr, TransportStats};
pub use uri::{Endpoint, EndpointError, Scheme};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn end_to_end_pub_sub_push_pull() {
        let ctx = Context::new();
        let publisher = PubSocket::bind(&ctx, "inproc://data").unwrap();
        let sub = SubSocket::connect(&ctx, "inproc://data");
        sub.subscribe(b"batch");

        let pull = PullSocket::bind(&ctx, "inproc://acks").unwrap();
        let push = PushSocket::connect(&ctx, "inproc://acks");

        publisher
            .send(
                b"batch/0",
                Multipart::single(Bytes::from_static(b"payload")),
            )
            .unwrap();
        let (topic, msg) = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&topic[..], b"batch/0");
        assert_eq!(&msg.frames()[0][..], b"payload");

        push.send(Multipart::single(Bytes::from_static(b"ack")))
            .unwrap();
        let ack = pull.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&ack.frames()[0][..], b"ack");
    }
}
