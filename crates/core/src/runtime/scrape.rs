//! Control-plane stats scrape client.
//!
//! The observability counterpart of the attach handshake: where HELLO
//! asks a producer "describe yourself", [`scrape_stats`] asks "report
//! your metrics". Same stateless pattern on the same channels — a
//! [`crate::protocol::messages::CtrlMsg::StatsRequest`] is pushed to the
//! base control endpoint and the producer answers with a
//! [`crate::protocol::messages::DataMsg::Stats`] on the one-shot reply
//! topic, in whatever wait state it happens to be (mid-epoch, at an
//! epoch barrier, or draining final acks). Both scrapes run on one retry
//! loop (`token_exchange`) over a connection pair of their own; a
//! consumer's HELLO has the same shape but travels on the link it keeps
//! (`runtime::consumer_state`).
//!
//! The scraped [`StatsPayload`] carries the producer context's *entire*
//! metrics registry — counters, gauges and the per-stage latency
//! histograms with their full bucket lists — deterministically sorted by
//! name. All shards of a group share one registry (per-shard metrics are
//! name-spaced, e.g. `stage.s1.publish_ack_ns`), so scraping the base
//! endpoint observes the whole group. This is what the `ts-top` CLI and
//! the counter-coherence tests consume; it needs no consumer attach, no
//! join, and leaves no trace in the producer's consumer state.

use crate::protocol::messages::{
    exchange_head, topics, CtrlMsg, DataMsg, StatsPayload, TracePayload, WIRE_VERSION,
};
use crate::runtime::consumer::rand_id;
use crate::runtime::context::TsContext;
use crate::{HandshakeError, Result, TsError};
use std::time::{Duration, Instant};
use ts_socket::{Endpoint, EndpointMap, Multipart, PushSocket, RecvError, SubSocket};

/// One stateless token exchange on the base endpoint's channels — the
/// shape both scrapes share. `request(token, seq)` is pushed to the
/// control endpoint every poll round with a fresh per-attempt stamp
/// `seq`, so a reply lost while the subscription was still propagating
/// (remote transports) is simply answered again;
/// `accept(reply, seq)` returns the answer once a frame on `topic(token)`
/// is the reply to the attempt in flight.
///
/// The reply's version is read from the frame's fixed head *before* the
/// rest is decoded: a producer speaking another [`WIRE_VERSION`] surfaces
/// as the typed [`HandshakeError::Version`] right away, never as a
/// misparse or a wait for `timeout`.
fn token_exchange<T>(
    ctx: &TsContext,
    endpoint: &str,
    timeout: Duration,
    what: &'static str,
    topic: fn(u64) -> Vec<u8>,
    request: impl Fn(u64, u32) -> CtrlMsg,
    accept: impl Fn(DataMsg, u32) -> Option<T>,
) -> Result<T> {
    let map = EndpointMap::new(endpoint, 1);
    let token = rand_id();
    let sub = SubSocket::connect(&ctx.sockets, &map.data(0));
    sub.subscribe(&topic(token));
    let push = PushSocket::connect(&ctx.sockets, &map.ctrl(0));
    let deadline = Instant::now() + timeout;
    let mut seq: u32 = 0;
    loop {
        seq = seq.wrapping_add(1);
        // A send failure only means the producer is not reachable *yet*
        // (bind/connect order is free on every transport): keep retrying
        // until the deadline.
        let _ = push.send(Multipart::single(request(token, seq).encode()));
        match sub.recv_timeout(Duration::from_millis(50)) {
            Ok((_, msg)) => {
                if let Some(frame) = msg.frames().first() {
                    match exchange_head(frame) {
                        Ok((t, version)) if t == token && version != WIRE_VERSION => {
                            return Err(HandshakeError::Version {
                                ours: WIRE_VERSION,
                                theirs: version,
                            }
                            .into())
                        }
                        Ok((t, _)) if t == token => {
                            let reply = DataMsg::decode_shared(frame).ok();
                            if let Some(answer) = reply.and_then(|m| accept(m, seq)) {
                                return Ok(answer);
                            }
                        }
                        _ => {}
                    }
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Closed) => {
                return Err(TsError::Socket(format!(
                    "producer disconnected waiting for {what}"
                )))
            }
        }
        if Instant::now() > deadline {
            return Err(TsError::Timeout(what));
        }
    }
}

/// Scrapes the metrics registry of the producer listening on `endpoint`
/// (the same base URI consumers attach to — as a string or a parsed
/// [`Endpoint`] — over any transport).
///
/// Returns within `timeout` or fails with [`TsError::Timeout`] — a
/// producer that already published `End` and shut down no longer
/// answers. The producer keeps serving batches while answering; a scrape
/// is a read-only snapshot, never an attach. Only the reply echoing the
/// stamp of the attempt *in flight* is accepted: a late duplicate from an
/// earlier round (remote transports can hold a reply past the next
/// resend) is dropped and counted in `producer.stats_dup`, never served
/// as a fresh snapshot.
pub fn scrape_stats<E>(ctx: &TsContext, endpoint: E, timeout: Duration) -> Result<StatsPayload>
where
    E: TryInto<Endpoint>,
    E::Error: Into<TsError>,
{
    let endpoint = endpoint.try_into().map_err(Into::into)?.to_string();
    let dup = ctx.metrics.counter("producer.stats_dup");
    token_exchange(
        ctx,
        &endpoint,
        timeout,
        "stats snapshot",
        topics::stats,
        |token, seq| CtrlMsg::StatsRequest {
            token,
            version: WIRE_VERSION,
            seq,
        },
        |reply, seq| match reply {
            DataMsg::Stats {
                seq: s, payload, ..
            } if s == seq => Some(payload),
            _ => {
                dup.inc();
                None
            }
        },
    )
}

/// Scrapes the batch flight recorder of the producer listening on
/// `endpoint`: the last `max` (clamped to 256 by the producer) completed
/// per-batch trace records, newest last, plus the recorder's current
/// clock so callers can place the records in time.
///
/// Same stateless control-plane pattern as [`scrape_stats`], stale
/// duplicates counted in `producer.trace_dup`. All shards of a group
/// share one flight recorder, so scraping the base endpoint observes
/// every shard's spans. This is what `ts-top --trace` renders into a
/// Chrome trace-event file.
pub fn scrape_trace<E>(
    ctx: &TsContext,
    endpoint: E,
    max: u32,
    timeout: Duration,
) -> Result<TracePayload>
where
    E: TryInto<Endpoint>,
    E::Error: Into<TsError>,
{
    let endpoint = endpoint.try_into().map_err(Into::into)?.to_string();
    let dup = ctx.metrics.counter("producer.trace_dup");
    token_exchange(
        ctx,
        &endpoint,
        timeout,
        "trace snapshot",
        topics::trace,
        |token, seq| CtrlMsg::TraceRequest {
            token,
            version: WIRE_VERSION,
            seq,
            max,
        },
        |reply, seq| match reply {
            DataMsg::Trace {
                seq: s, payload, ..
            } if s == seq => Some(payload),
            _ => {
                dup.inc();
                None
            }
        },
    )
}
