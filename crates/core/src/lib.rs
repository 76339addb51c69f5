#![warn(missing_docs)]

//! # TensorSocket — shared data loading for deep-learning training
//!
//! A from-scratch Rust reproduction of *TensorSocket: Shared Data Loading
//! for Deep Learning Training* (SIGMOD 2025). One **producer** owns the
//! data-loading pipeline; any number of collocated **consumers** (training
//! processes) iterate over the batches it prepares. Batches are shared as
//! *pointers* ([`ts_tensor::TensorPayload`]) rather than bytes, so adding a
//! consumer adds no loading work and no data duplication.
//!
//! The public surface is two builders — one [`Producer`], one
//! [`Consumer`], endpoint-only attach:
//!
//! ```no_run
//! use std::sync::Arc;
//! use tensorsocket::{Producer, Consumer, TsContext};
//! use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
//!
//! let ctx = TsContext::host_only();
//! let dataset = Arc::new(SyntheticImageDataset::imagenet_like(1024, 0));
//! let loader = DataLoader::new(dataset, DataLoaderConfig::default());
//!
//! // producer.py
//! let producer = Producer::builder().context(&ctx).spawn(loader).unwrap();
//!
//! // consumer.py (normally another thread / logical process): only the
//! // endpoint — everything else arrives over the attach handshake.
//! let consumer = Consumer::builder().context(&ctx).connect("inproc://tensorsocket").unwrap();
//! for batch in consumer {
//!     let batch = batch.unwrap();
//!     // ... model training iteration ...
//!     let _ = batch.fields[0].shape();
//! }
//! producer.join().unwrap();
//! ```
//!
//! ## The attach handshake: a consumer needs only the endpoint
//!
//! [`Consumer::builder`]`.connect(endpoint)` opens one *link* to the base
//! endpoint — a SUB connection for everything the producer says, a PUSH
//! connection for everything said to it — and starts with a versioned
//! HELLO/WELCOME exchange on it. That link stays: it is shard 0's, and the
//! JOIN, every ack, the heartbeats and the LEAVE travel on it, so a
//! consumer holds two connections per shard and an attach sets up nothing
//! it throws away. The producer's WELCOME
//! ([`WelcomeInfo`]) advertises the shard count (from which every shard's
//! data/ctrl endpoint derives via one scheme-aware
//! [`ts_socket::EndpointMap`], plus sparse per-shard overrides for
//! multi-host topologies), the shared-memory arena path and slot
//! geometry, the batch schema, and the payload-mode grant mask — so nothing about the topology is mirrored out of band,
//! and nothing can be silently misconfigured. Mismatches fail fast as
//! typed [`HandshakeError`]s (`Version`, `Topology`, `ArenaMissing`,
//! `Mode`), never as hangs.
//!
//! ## Wire contract
//!
//! Everything on the sockets — handshake, scrapes, every message —
//! shares one version, [`WIRE_VERSION`], and one compatibility rule:
//! bytes after a frame's last known field are ignored; a frame with an
//! unknown tag decodes to `Unknown` and is counted and ignored
//! (`producer.ctrl_unknown`, `consumer.data_unknown`), as are unknown
//! HELLO capability bits (`producer.hello_unknown_caps`); any other
//! change bumps the version. The producer always answers in its own
//! version, and the *client* of an exchange compares the version at the
//! fixed head of the reply with its own before reading further — a
//! mismatch is a prompt [`HandshakeError::Version`] on every transport,
//! never a hang or a misparse. A message is its type definition, its tag
//! and one line in a field list ([`protocol::messages`]); adding one
//! touches nothing else.
//!
//! ## Control plane vs. data plane, and payload-mode negotiation
//!
//! TensorSocket splits each shard into a **control plane** (PUSH/PULL:
//! joins, acks, heartbeats, hellos, stats scrapes) and a **data plane**
//! (PUB/SUB: batch announcements). On the data plane, *what an
//! announcement carries* is negotiated per consumer at attach:
//!
//! * [`PayloadMode::Shm`] — the announce carries **pointers**
//!   ([`ts_tensor::TensorPayload`]) into shared memory; consumers on the
//!   producer's host map the arena and rebuild batches zero-copy. The
//!   paper's deployment model, and the default.
//! * [`PayloadMode::Stream`] — the announce carries the **bytes
//!   themselves**, length-prefixed ([`StreamedTensor`]), on the
//!   consumer's private topic. Chosen automatically when the advertised
//!   arena cannot be opened — a consumer on *another host* over
//!   `tcp://` — or forced via [`ConsumerBuilder::payload_mode`] /
//!   `TS_FORCE_PAYLOAD_MODE=stream|shm`.
//!
//! The consumer's HELLO carries its capability bits ([`caps`]), the
//! WELCOME answers with the producer's grant mask
//! ([`WelcomeInfo::payload_modes`]; flexible-sizing producers grant shm
//! only), and the chosen mode travels in the JOIN. Both modes share one
//! sequence space, window and ack accounting, so a mixed fleet — some
//! consumers on pointers, some on bytes — sees **bit-identical**
//! `(epoch, shard, seq)` batch streams, and either side can detach
//! without disturbing the other.
//!
//! ### The streamed path: bytes move through the kernel only
//!
//! How many times user code passes over a batch's payload bytes on its
//! way from the producer's collated tensor to a tensor in the consumer:
//!
//! | path | user-space copies | what moves the bytes |
//! |---|---|---|
//! | pointer (`Shm`) | 0 | nothing — consumers map the slot the batch was collated into |
//! | streamed (`Stream`), contiguous tensors | 0 | one kernel copy into the socket, one out of it |
//! | streamed, a non-contiguous view | 1 | the gather into a dense buffer, counted in `stage.[s<N>.]stream_copy_bytes` |
//! | durable log append | 1 | [`ts_log::BatchLog::append_chunks`] copies the frame's segments into the mapped record, checksumming as it goes (no joined intermediate) |
//! | durable log replay to a stream consumer | 0 | the stored frame is sent as a view of the log's mapping ([`ts_log::Record`]), CRC-checked in place first; one kernel copy into the socket, one out of it |
//! | durable log replay to a pointer (`Shm`) consumer | 1 | the CRC-checked frame is decoded in place and each tensor copied once into an arena slot; a pointer announce goes out and **0** kernel copies move payload (the stored bytes, as above, only when no slot can be leased: `replay.[s<N>.]slot_fallbacks`) |
//!
//! A [`StreamedTensor`]'s `bytes` field is a [`bytes::Bytes`], and on
//! this path a `Bytes` is always borrowed, never filled:
//!
//! * **encode** — [`StreamedTensor::from_tensor`] takes a reference on
//!   the tensor's storage instead of its contents. For a batch collated
//!   into an arena slot that is a read reference on the slot, the same
//!   one a consumer's mapped view holds, so a frame still queued behind a
//!   slow subscriber keeps its slot from being rewritten and lets go of
//!   it when it is written or dropped. [`DataMsg::encode_segments`]
//!   emits the frame as `[head | tensor | head | tensor …]`, the tensors
//!   by reference;
//! * **send** — the runtime publishes the segments as one
//!   `ts_socket::Multipart::chunked` frame, which a stream transport
//!   writes with a gather write under a single length prefix. The bytes
//!   on the wire, and in the log, are exactly [`DataMsg::encode`]'s. On
//!   `ipc://` the publisher asks for a send buffer of a few MiB per
//!   subscriber, so a batch that fits is one uninterrupted kernel copy
//!   and one wake-up of the subscriber's reader;
//! * **receive** — the socket reads the frame into one buffer of exactly
//!   its length; [`DataMsg::decode_shared`] hands each `bytes` field out
//!   as a slice of that buffer, and [`StreamedTensor::to_tensor`] wraps
//!   the slice as tensor storage. The buffer is freed when the consumer
//!   releases the last tensor of the batch.
//!
//! A frame larger than `ts_socket::wire::MAX_FRAME_BYTES` (256 MiB)
//! cannot cross a stream transport; the data socket refuses it, the
//! producer counts the refusal in `stage.[s<N>.]stream_tx_errors` and
//! reports the first one.
//!
//! ## Endpoint URIs and cross-process sharing
//!
//! The endpoint selects the transport: `inproc://name` (threads in one
//! process, the default), `ipc:///path.sock` (collocated OS processes
//! over Unix sockets) and `tcp://host:port`. For separate processes, add
//! `.arena(path)` to the producer builder: it creates a shared-memory
//! arena auto-sized from the loader's decoded sample geometry, batch
//! tensors are placed in it, and consumers map them zero-copy — the
//! sockets carry only announce/ack metadata, the paper's split between a
//! metadata channel and a bulk payload path. Consumers learn the arena
//! from the handshake. See `examples/multi_process.rs` for the full
//! topology.
//!
//! With an arena bound, publish is **zero-copy end to end**, and the slot
//! a consumer maps is the place the batch is *born*: the producer's feeder
//! thread offers its [`ts_tensor::SlotPool`] to the loader it drives, a
//! [`ts_data::DataLoader`] worker leases the batch's slot *before*
//! decoding ([`ts_tensor::BatchBuf`]) and the dataset decodes every sample
//! straight into its row ([`ts_data::Dataset::decode_into`]) — PyTorch's
//! `default_collate` allocating the batch in shared memory inside a
//! worker. Each tensor arrives at the feeder carrying its lease; the
//! feeder adopts it and the publish step merely registers the placement
//! in the [`ts_tensor::SharedRegistry`] — no payload byte moves at publish
//! time, and epoch replays refcount the same placement. What does not
//! arrive placed the feeder collates into a leased slot itself
//! ([`ts_tensor::cat0_leased`], one copy). The *feeder* has no heap
//! fallback: when the pool has no slot to lease it **parks**
//! until an ack (or, with a durable log, the spiller's progress) frees
//! one, and the producer reports the wait state `arena`
//! (`stage.wait_state`, `stage.arena_parked_ns`); a batch that no slot
//! can ever hold stops the pipeline with a counted, logged reason
//! (`producer.feeder_failed`). If nothing but fully-acked rubberband pins
//! holds the dry arena, the join window closes early
//! (`stage.pins_shed_for_arena`) — joiners then wait for the next epoch —
//! so parking cannot deadlock on memory the producer itself owns.
//! `stage.publish_copy_bytes` counts the one copying path left — a source
//! that hands out device or pre-shared storages the feeder cannot lease
//! for — and reads 0 on every loader-collated stream (CI asserts this on
//! a live scrape).
//!
//! **Who writes the payload**, between the decoder and the slot a
//! consumer maps (`stage.collate_copy_bytes` is the third column as a
//! number; `loader.in_place_batches` / `loader.heap_batches` on the
//! loader's own registry say which row its batches took):
//!
//! | the batch comes from | writes | the feeder copies |
//! |---|---|---|
//! | a `DataLoader`, no transform pipeline | **1** — the decoder, into the slot | 0 |
//! | a `DataLoader` with a transform pipeline | 2 — the decoder, then one copy of the transformed tensor into its row | 0 |
//! | a [`runtime::producer::VecSource`] or custom [`EpochSource`], a `producer_map` output, the flexible fuse, a batch whose worker found the pool dry | whatever built it, + 1 | the payload, once, at memcpy speed ([`ts_tensor::cat0_leased`]) |
//!
//! The pool reaches the loader as a **binding scoped to the feeder
//! thread** (`ts_data::bind_slot_pool`, set once when the feeder starts,
//! read once per `DataLoader::epoch`), not as an [`EpochSource`] method:
//! the trait is public and its implementations wrap one another — a
//! wrapper forwards `epoch()` and nothing it does not know about, so a
//! defaulted `bind_…()` would silently never reach a wrapped loader,
//! while the `epoch()` call it does forward runs on the feeder thread
//! whatever wraps it. Nobody sets the binding: it is decided at spawn,
//! and withheld in two cases. Under **flexible sizing** loader batches
//! are only parts of a producer batch, and a slot-backed part is not
//! something the fuse could lease for. And when the **arena lacks room**
//! for what the loader keeps in flight (`workers × (prefetch + 1)`
//! batches) on top of the publish window and the stages in between —
//! batches behind the head of the stream would hold every slot while the
//! head waits for one — which an auto-sized arena never does and an
//! explicit `.arena_sized(..)` can: the pipeline then logs one line,
//! counts `stage.loader_unbound` and keeps the feeder-collated row of the
//! table. A worker that cannot lease never waits: it builds on the heap
//! and the feeder's dry-arena wait above takes over. Publishes are additionally announced on a **coalescing
//! cursor channel** — a latest-wins cell flushed once per ~25 ms tick,
//! read via `Consumer::latest_cursor` — which tells a waking consumer
//! where the producer *is* without any backlog to drain; it is lag
//! observability, never flow control.
//!
//! ## Multi-producer sharding and the `(epoch, shard, seq)` contract
//!
//! On many-GPU nodes one producer pipeline saturates one NUMA domain;
//! [`ProducerBuilder::spawn_sharded`] runs `N` feeder+publish pipelines,
//! each owning a **disjoint partition** of the dataset (build the
//! per-shard loaders with `ts_data::DataLoader::sharded`), in lockstep
//! under an [`EpochCoordinator`] that keeps epoch boundaries aligned and
//! join admission consistent — a consumer joining mid-epoch replays the
//! epoch prefix from *every* shard, not just one.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tensorsocket::{Producer, Consumer, TsContext};
//! use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
//!
//! let ctx = TsContext::host_only();
//! let dataset = Arc::new(SyntheticImageDataset::imagenet_like(1024, 0));
//! // One loader per shard, each owning a disjoint slice of every epoch.
//! let loaders = DataLoader::sharded(dataset, DataLoaderConfig::default(), 2);
//! let group = Producer::builder().context(&ctx).spawn_sharded(loaders).unwrap();
//!
//! // The consumer code is IDENTICAL to the unsharded case: it learns the
//! // shard count from the handshake and subscribes to both streams.
//! let consumer = Consumer::builder().context(&ctx).connect("inproc://tensorsocket").unwrap();
//! for batch in consumer {
//!     // batches arrive in (epoch, shard, seq) order: one bit-stable
//!     // stream regardless of shard count or socket timing
//!     let _ = batch.map(|b| (b.epoch, b.shard, b.seq));
//! }
//! group.join().unwrap();
//! ```
//!
//! **The ordering contract.** Each shard's stream is totally ordered by
//! its per-shard sequence numbers; the consumer merges the streams by
//! delivering announcements sorted by `(epoch, index_in_epoch, shard)`
//! ([`ShardInterleave`]). For shards aligned at an epoch boundary that
//! is a round-robin (`s0[0], s1[0], …, s0[1], s1[1], …`); a shard with
//! fewer batches (uneven `dataset_len % shards` tail) simply drops out
//! of the rotation once exhausted. Because the shard partition, each
//! shard's batch order, and the merge rule are all deterministic
//! functions of `(seed, epoch, shard count)`, training sees the same
//! batch sequence on every run and on every consumer. Shard endpoints
//! derive from the group base endpoint (`ts_socket::shard_endpoint`):
//! shard 0 *is* the base, which is where consumers hello.
//!
//! ## The producer pipeline and its tuning knobs
//!
//! The producer is a two-stage pipeline. A **feeder** thread prepares
//! batches ahead of the publish cursor — the loader's worker threads
//! decode and collate samples, the feeder applies the producer map and
//! (under flexible sizing) fuses loader batches into producer batches —
//! and hands them over a bounded queue to the **producer thread**, which
//! stages batches on the device, registers them, announces pointers and
//! serves joins, acks and heartbeats. There is one pipeline shape.
//!
//! The producer thread is a *pump* over a plain state machine
//! (`runtime::state`): it blocks in exactly one call — one `poll` over
//! the control socket's connections, which it reads itself, and that
//! socket's doorbell — and every other source of work (the feeder's
//! queue, the log spiller's progress) keeps its own queue and rings the
//! latest-wins doorbell after enqueueing, at the cost of a system call
//! only when the pump sleeps. Whatever woke the pump becomes one event
//! (`Ctrl(frame)`, `Prepared(item)`, `Logged`, `Tick`, `Stop`) fed to
//! `State::step(now, event, &mut effects)`, and the effects (`Send`,
//! `Spill`, `Finish`) are executed in order. The state machine owns no
//! socket, thread or clock, so every decision is unit-tested by feeding
//! it events (`runtime/step_tests.rs`). At any moment it is waiting for
//! exactly one thing — the [`Wait`] enum, exported as
//! `stage.[s<N>.]wait_state`: the group `barrier`, a ready consumer
//! (`consumers`), the feeder's next `item`, the publish `window`, an
//! `arena` slot, or the final acks (`drain`) — and control frames,
//! scrapes and ticks are handled identically in all six. A late joiner's
//! catch-up is a queued job advanced one frame per pump turn (publishing
//! halts until the queue is empty, the paper's rubberband), so a `Leave`
//! or a heartbeat expiry between two frames simply removes the job.
//! Housekeeping (join-reply nudges, the cursor broadcast, log retention,
//! heartbeat expiry; the watchdog every fourth time) runs on one ~25 ms
//! tick.
//!
//! The consumer has the same shape (`runtime::consumer_state` under
//! `runtime::consumer`): [`Consumer`] is a shell with one receive call,
//! and what came off the awaited link — a frame, nothing before the
//! deadline, a closed socket — or what the trainer did (`Next`: it came
//! back for a batch, `Leave`: it dropped the consumer) is one event for
//! `ConsumerState::step(now, event, &mut effects)`; the effects (`Ctrl`,
//! `Subscribe`, `Unsubscribe`, `Negotiate`) are executed in order. Each
//! shard's link is in one phase — `Hello`, `Joining`/`Parked`, `Splicing`
//! (a group member waiting for its `LogInfo`; all shards are asked at once
//! and share one limit), `Live`, `Ended` — and admission, the log splice,
//! in-order delivery across shards, duplicate and pointer-frame filtering
//! and what is owed an ack are decided there, scripted without a socket
//! in `runtime/consumer_step_tests.rs` — where the two state machines
//! also run back to back, the producer's `Send` effects routed by topic
//! into consumers and their `Ctrl` effects back. The one thread a
//! consumer adds is its heartbeat, because between two `next()` calls the
//! consumer's thread is the trainer's; it beats on the links' own control
//! sockets, between the JOIN and the LEAVE, and stops at once on drop.
//!
//! Producer knobs, in the order they usually matter:
//!
//! * `DataLoaderConfig::num_workers` — loader worker threads; `0`
//!   decodes on the feeder thread itself. Batch order is bit-identical
//!   either way.
//! * `DataLoaderConfig::prefetch_factor` — in-flight batches per worker;
//!   the feeder's hand-off queue holds `num_workers × prefetch_factor`
//!   prepared batches (at least one).
//! * [`ProducerBuilder::arena`] — cross-process deployments: creates the
//!   shared-memory arena *and* its recycling slot pool, both auto-sized
//!   from the loader's decoded sample geometry, so steady-state
//!   publishing performs zero arena allocations (observable via the
//!   pool's stats; [`TsContext::enable_slot_recycling`] remains the
//!   manual-depth path).
//! * [`ProducerBuilder::device`] — a GPU device stages every batch on it
//!   before the announce, and there is one way that happens: through a
//!   pre-allocated VRAM slab rotation (`ts-staging`'s `DeviceSlabPool`
//!   behind a pluggable `DeviceBackend`) with the H2D copy on a stage of
//!   its own between feeder and publish loop, so the copy of batch *n*
//!   overlaps collation of *n + 1* and publishing of *n − 1* and
//!   warmed-up staging performs zero device allocations (assert via
//!   `ts_device::MemoryBook::alloc_count`). Queue and slab depths follow
//!   from `buffer_size` and the rubberband pin set;
//!   [`ProducerConfig::staging`] holds the one thing left to set, the
//!   simulated backend's modeled bandwidth. A device the context cannot
//!   stage on fails the spawn with [`TsError::Config`]. Consumers see the
//!   bytes a CPU producer would have sent.
//!
//! ## Observability: stage histograms and the `ts-top` scrape
//!
//! Every pipeline stage records its latency into lock-free log-bucketed
//! histograms ([`ts_metrics::Histogram`]) in the context's shared
//! [`ts_metrics::Registry`] — a `record` is a handful of relaxed atomic
//! adds, so instrumentation never touches a lock on the hot path. A
//! running producer answers a stateless [`CtrlMsg::StatsRequest`] in
//! *any* wait state (mid-epoch, at an epoch barrier, parked on a dry
//! arena, draining final acks) with a [`DataMsg::Stats`]
//! snapshot of the whole registry — counters, gauges and full histogram
//! buckets, deterministically name-sorted. [`scrape_stats`] is the
//! client side, and the `ts-top` binary renders it live:
//!
//! ```text
//! ts-top ipc:///tmp/ts.sock            # live per-stage latency table
//! ts-top --json tcp://127.0.0.1:5555   # one-shot snapshot for scripts/CI
//! ```
//!
//! The scrape needs no consumer attach and leaves no state in the
//! producer. Metric names are per-stage prefixed: a plain producer uses
//! `stage.` (`staging.`), additional pipelines in the same context get
//! `stage.p<n>.`, and the shards of a group get `stage.s<shard>.` — all
//! shards share one registry, so scraping the group's base endpoint
//! observes every shard.
//!
//! | metric | kind | unit | meaning |
//! |---|---|---|---|
//! | `stage.[s<N>.]feeder_fetch_ns` | histogram | ns | fetch + collate of one batch from the loader (incl. producer map / flex fusing) |
//! | `stage.[s<N>.]publish_ack_ns` | histogram | ns | publish → final consumer ack round-trip per batch |
//! | `staging.[s<N>.]copy_wait_ns` | histogram | ns | backpressure wait handing an item to the H2D copy stage |
//! | `staging.[s<N>.]h2d_ns` | histogram | ns | slab lease + H2D copy + fence per staged batch |
//! | `consumer.wait_ns` | histogram | ns | consumer-side wait for the next batch to arrive |
//! | `consumer.interarrival_ns` | histogram | ns | time between consecutive batches yielded to training |
//! | `consumer.stream_rx_ns` | histogram | ns | rebuild of one batch from streamed bytes (non-shm consumers) |
//! | `stage.[s<N>.]pin_depth` | gauge | batches | rubberband pins currently holding memory (a pin shed to the durable log stays replayable but is not counted) |
//! | `stage.[s<N>.]wait_state` | gauge | code | what the producer is waiting for: 0 `barrier`, 1 `consumers`, 2 `item`, 3 `window`, 4 `arena`, 5 `drain` ([`Wait::ALL`]) |
//! | `replay.[s<N>.]inflight_bytes` | gauge | bytes | frames of the catch-up being served that are sent and not yet acked by its consumer (the catch-up window; 0 when none runs) |
//! | `consumer.cursor_lag` | gauge | batches | producer cursor position minus this consumer's, per the last cursor flush |
//! | `staging.[s<N>.]slab_occupancy` | gauge | slabs | VRAM rotation slabs currently leased |
//! | `staging.[s<N>.]copy_queue_depth` | gauge | items | items queued ahead of the copy stage |
//! | `staging.[s<N>.]h2d_bytes_per_sec` | gauge | B/s | smoothed H2D copy throughput |
//! | `producer.batches` | counter | batches | batches published (all shards) |
//! | `producer.bytes_staged` | counter | bytes | payload bytes placed on the staging device |
//! | `producer.replays` | counter | batches | rubberband replays sent to late joiners |
//! | `producer.joins_parked` | counter | joins | `Join`s answered `WaitEpoch`: past the join window, admitted at the next epoch boundary |
//! | `producer.detached` | counter | consumers | consumers detached on heartbeat expiry |
//! | `producer.ctrl_unknown` | counter | frames | control frames with an unknown tag, ignored |
//! | `producer.ctrl_unknown_consumer` | counter | frames | acks, readies, heartbeats, leaves and replay requests carrying an id that never joined (or already left), ignored — they never enter the heartbeat monitor |
//! | `producer.feeder_failed` | counter | failures | pipeline stops with a logged reason: a batch no arena slot can hold, a collation error, device staging out of memory |
//! | `producer.hello_unknown_caps` | counter | hellos | HELLOs carrying capability bits this producer does not know |
//! | `producer.stats_dup` | counter | replies | stats replies dropped for carrying a stale request stamp |
//! | `stage.[s<N>.]stream_tx_bytes` | counter | bytes | payload bytes sent over the streamed (non-shm) path |
//! | `stage.[s<N>.]stream_copy_bytes` | counter | bytes | payload bytes gathered into a new buffer to build a streamed frame because a tensor view was not contiguous — **0** on every collated batch (the streamed path's zero-copy invariant CI asserts) |
//! | `stage.[s<N>.]stream_tx_errors` | counter | frames | streamed frames the data socket refused for exceeding the stream transports' frame limit |
//! | `stage.[s<N>.]publish_copy_bytes` | counter | bytes | payload bytes the publish step copied into the arena because a tensor arrived without a feeder placement (device or pre-shared storages) — **0** on every loader-collated stream (the zero-copy invariant CI asserts); a dry arena never adds to it |
//! | `stage.[s<N>.]collate_copy_bytes` | counter | bytes | payload bytes the feeder copied into a leased slot because a batch did not arrive placed: **0** over a `DataLoader` whose workers lease (the batch is decoded straight into its slot; CI asserts this on a live scrape), the whole payload once over a `VecSource`, a custom source, a `producer_map` output or the flexible fuse; a batch whose loader worker found the pool dry adds its bytes |
//! | `stage.[s<N>.]loader_unbound` | counter | pipelines | 1 when this pipeline's explicit arena is too small for its loader to lease from (window + stages + the loader's in-flight set): the loader builds on the heap, the feeder collates, one log line says so |
//! | `loader.in_place_batches` / `loader.heap_batches` | counter | batches | on the **loader's** registry (`DataLoader::metrics`), not the context's: batches built entirely in leased arena slots / with at least one tensor on the heap (every batch of a loader nobody offered a pool; under a binding, a batch whose worker found the pool dry) |
//! | `stage.[s<N>.]arena_parked_ns` | counter | ns | total time spent in wait state `arena`: the feeder parked on a dry slot pool |
//! | `stage.[s<N>.]pins_shed_for_arena` | counter | batches | fully-acked rubberband pins released early because they alone held a dry arena (the join window closes for the rest of the epoch) |
//! | `stage.[s<N>.]cursor_coalesced` | counter | positions | stale cursor positions displaced (latest-wins) before a flush window |
//! | `consumer.batches` / `consumer.samples` | counter | batches / samples | consumed by this context's consumers |
//! | `consumer.acks` | counter | acks | batch acknowledgements sent back |
//! | `consumer.data_unknown` | counter | frames | data frames with an unknown tag, ignored on the consumer path |
//! | `consumer.dangling_skipped` | counter | batches | stale announces skipped because the producer (aborting) released the payload first |
//! | `staging.h2d_bytes` | counter | bytes | bytes through the H2D copy stage |
//! | `transport.inline_frames` | counter | frames | small frames (announces, cursors, acks, heartbeats, JOINs) an `ipc://`/`tcp://` socket of this context put on the wire on the sending thread — the pump's for a producer's data socket (counted per subscriber), the consumer's or its heartbeat's for a consumer's control sockets. Mirrored from `ts-socket` at every housekeeping tick (producer) and every `next()` (consumer) |
//! | `transport.queued_frames` | counter | frames | frames that went through a connection's queue and writer thread instead: every bulk (streamed) frame, and small ones sent while that connection still owed the wire something or the kernel's buffer was full |
//! | `transport.inline_wouldblock` | counter | frames | inline writes the kernel refused with `EAGAIN` (each then counted in `transport.queued_frames`): a peer that is not reading |
//! | `trace.dropped` | gauge | records | flight-recorder records evicted before completing (refreshed at scrape time) |
//! | `trace.capacity` | gauge | records | flight-recorder ring capacity (refreshed at scrape time) |
//! | `producer.trace_dup` | counter | replies | trace replies dropped for carrying a stale request stamp |
//! | `watchdog.stalls.consumer` | counter | stalls | watchdog verdicts: one straggling consumer holds the oldest batch |
//! | `watchdog.stalls.ack` | counter | stalls | watchdog verdicts: every consumer is late acking the oldest batch |
//! | `watchdog.stalls.loader` | counter | stalls | watchdog verdicts: parked on `item`, loader fetch is the bottleneck |
//! | `watchdog.stalls.h2d` | counter | stalls | watchdog verdicts: parked on `item`, H2D staging is the bottleneck |
//! | `watchdog.stalls.arena` | counter | stalls | watchdog verdicts: parked on `arena`; the verdict says how many live, pinned and un-logged batches hold the slots |
//! | `stage.[s<N>.]log_append_bytes` | counter | bytes | encoded batch frames the log spiller appended durably |
//! | `log.append_errors` | counter | appends | spiller append failures (first one latches the log failed and drops it from WELCOMEs) |
//! | `log.[s<N>.]lag` | gauge | batches | published batches not yet durably appended (spiller backlog) |
//! | `log.[s<N>.]retained_min` / `log.[s<N>.]retained_max` | gauge | seq | retained offset range replayable from the log (`min > max` = enabled, nothing retained yet) |
//! | `producer.replay_requests` | counter | requests | `CtrlMsg::Replay` requests answered (resends included) |
//! | `replay.log_batches` | counter | batches | batches served out of the durable log to resuming consumers, as bytes or through arena slots |
//! | `replay.log_bytes` | counter | bytes | stored frame bytes served out of the durable log |
//! | `replay.[s<N>.]gate_timeouts` | counter | frames | catch-up frames sent through a full window because a whole tick passed without an ack (the window paces, it never decides liveness) |
//! | `replay.[s<N>.]slot_frames` | counter | frames | frames out of the durable log sent to a pointer (`Shm`) consumer through arena slots: copied once into a slot per tensor, announced as pointers, the slots held until that consumer acks the frame or leaves |
//! | `replay.[s<N>.]slot_fallbacks` | counter | frames | frames out of the durable log sent to a pointer consumer as the stored bytes because no slot could be leased at that moment (an explicit arena too small for the catch-up window, or no arena); a catch-up never waits on the arena |
//! | `log.[s<N>.]read_corrupt` | counter | reads | replay reads that found their record retained but damaged (index geometry or CRC mismatch): that frame is not served — the live batch stands in if it is still held, else the consumer sees a gap — and the first one is logged with the segment's path |
//!
//! ### The batch flight recorder
//!
//! Histograms aggregate; the flight recorder *narrates*. Every batch's
//! passage through the pipeline is stamped into a lock-free ring of
//! per-batch trace records ([`TraceRing`], shared via
//! [`TsContext::trace`]) keyed by `(epoch, shard, seq)`: `fetch`,
//! `copy_wait`, `h2d`, `publish`, `announce` and `ack` spans on the
//! producer side, with `recv`, `rebuild` and `release` stitched onto the
//! *same record* by in-process consumers. A producer answers a stateless
//! [`CtrlMsg::TraceRequest`] with its last-N completed records
//! ([`scrape_trace`] is the client), and `ts-top --trace out.json`
//! renders them as a Chrome trace-event file — open it in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to see the
//! per-batch waterfalls:
//!
//! ```text
//! ts-top --trace trace.json ipc:///tmp/ts.sock
//! ```
//!
//! Alongside the recorder runs a low-frequency stall watchdog on the
//! producer's tick: a batch un-acked past a configurable multiple
//! ([`ProducerConfig::watchdog_stall_multiple`]) of the ack round trip's
//! rolling p99 is `ack-bound`, or `consumer-straggler` with the
//! offending consumer id; with nothing outstanding the watchdog *reads
//! the wait state* rather than inferring it — parked on `item` is
//! `loader-bound` (or `h2d-bound`), parked on `arena` is `arena-bound`,
//! naming how many live, pinned and un-logged batches hold the slots.
//! Each stall is counted under `watchdog.stalls.*`, and its verdict
//! surfaces in the stats snapshot and the `ts-top` header, next to the
//! current wait state of every pipeline.
//!
//! See `examples/observability.rs` for the full loop — including
//! `--serve`, which keeps a sharded GPU-staged producer alive to point
//! `ts-top` at.
//!
//! ## The durable batch log: crash-and-resume consumer groups
//!
//! Rubberband replay is bounded by memory: pinned batches hold arena
//! slots, so a late joiner can only catch up as far as the pin set
//! reaches. [`ProducerBuilder::log`] removes that bound with a
//! **durable epoch batch log** (`ts-log`): a background *spiller*
//! thread tees every published batch — encoded exactly as its streamed
//! wire frame — into mmap'd, CRC-framed, offset-addressed segments,
//! entirely off the publish hot path (`stage.[s<N>.]log_append_bytes`
//! counts the appends, `log.[s<N>.]lag` gauges the backlog). Once a
//! batch is both fully acked and durably on disk, its rubberband pin is
//! **shed** — the moment the ack or the spiller's `Logged` notice
//! arrives, not on a sweep: the arena slot releases while the seq stays
//! replayable —
//! pin depth stays bounded and `stage.publish_copy_bytes` stays 0, yet
//! replay reach extends to everything the log retains.
//!
//! The replay contract, over the same handshake:
//!
//! * the WELCOME advertises the log ([`WelcomeInfo::log`], a
//!   [`LogAd`] with the retained `[min, max]` offset range; the
//!   inverted range `min > max` means "enabled, nothing retained yet");
//! * a consumer attaching with [`ConsumerBuilder::group`] sends
//!   [`CtrlMsg::Replay`]`{ group, from }` per shard after admission;
//! * the producer answers `LogInfo` naming the resolved replay start
//!   (the group's persisted cursor, floored at the retained range and
//!   capped at the consumer's live splice point) and streams the logged
//!   range, which splices gaplessly onto the live stream admitted at
//!   `start_seq`;
//! * a stored frame is read in place: the log checks its CRC over the
//!   mapped bytes and hands out a [`ts_log::Record`] that owns the
//!   mapping. The stored frames ARE streamed-payload wire frames: a
//!   stream consumer gets the record itself, which the socket
//!   gather-writes from — no copy and no batch-sized allocation in user
//!   space on the way out. A pointer (`Shm`) consumer gets it the way it
//!   gets a live batch: the frame is decoded in place, each tensor is
//!   copied once into an arena slot leased from the shard's pool, and a
//!   pointer announce goes out (`replay.[s<N>.]slot_frames`). When no
//!   slot can be leased the stored bytes go instead
//!   (`replay.[s<N>.]slot_fallbacks`) — a catch-up never waits on the
//!   arena, because publishing waits on the catch-up — and an auto-sized
//!   arena provisions one catch-up window per shard so that does not
//!   happen;
//! * a catch-up has a window, like live publishing: the producer keeps
//!   at most a few MiB of it (never fewer than two frames) sent and not
//!   yet acked — `replay.[s<N>.]inflight_bytes` — so a late group's
//!   history queues in the log, not in the joiner's memory or the arena.
//!   A frame weighs its bytes on the socket, or, through slots, the slot
//!   bytes it pins until acked; ~100-byte pointer announces of a
//!   rubberband replay never feel it. While the window is shut the
//!   producer parks until an ack; after a whole tick without one it sends
//!   a frame anyway (`replay.[s<N>.]gate_timeouts`);
//! * every ack advances the group's cursor in `ts-log`'s
//!   [`ts_log::CursorStore`], persisted at a bounded ~25 ms cadence
//!   (each write tmp+rename atomic), so a consumer killed mid-epoch
//!   (`kill -9` included) and restarted with the same group name
//!   resumes from its last *persisted* ack — at most one flush interval
//!   of batches is re-delivered, and re-delivery is idempotent
//!   (cursor regressions are ignored), so the merged stream stays
//!   byte-identical to an uninterrupted run;
//! * resume is cursor-exact when the rejoining member is the only
//!   consumer (admitted at the current stream position, logged gap
//!   replayed). Rejoining **alongside active consumers** admits on the
//!   rubberband path at the epoch start, so the current epoch is
//!   re-delivered from its first batch — epoch-coherent rather than
//!   cursor-exact, with the already-acked prefix ignored as cursor
//!   regressions;
//! * retention never outruns a reader: segment reclamation is floored
//!   at the minimum persisted cursor AND the oldest rubberband pin
//!   (shed pins replay from their log frames, so those segments must
//!   outlive the pin set);
//! * durability is scoped to process crash: host power loss can reorder
//!   page writeback against the log's commit protocol — see `ts-log`'s
//!   crate-level *Durability* section ([`ts_log::BatchLog::sync`] is
//!   the opt-in power-fail barrier).
//!
//! ```no_run
//! # use tensorsocket::{Producer, Consumer};
//! # use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
//! # use std::sync::Arc;
//! # let loader = DataLoader::new(
//! #     Arc::new(SyntheticImageDataset::imagenet_like(256, 0)),
//! #     DataLoaderConfig::default(),
//! # );
//! let producer = Producer::builder()
//!     .endpoint("ipc:///tmp/ts.sock")
//!     .arena("/dev/shm/ts.arena")
//!     .log("/var/tmp/ts-log") // durable batch log, fresh directory
//!     .spawn(loader)
//!     .unwrap();
//! // a trainer that survives kill -9: same group name on restart
//! let consumer = Consumer::builder()
//!     .group("trainers")
//!     .connect("ipc:///tmp/ts.sock")
//!     .unwrap();
//! ```
//!
//! The log is per-run: sequence numbers restart at 0 each spawn, so the
//! producer refuses a directory that already holds records. Without a
//! log a `group` name is inert and the consumer attaches live-only. See
//! `examples/replay_smoke.rs` for the crash-and-resume loop end to end.
//!
//! ## Crate layout
//!
//! * [`protocol`] — pure, time-injected state machines: publish window
//!   ([`protocol::buffer::BatchWindow`]), release tracking
//!   ([`protocol::acks::AckTracker`]), liveness ([`protocol::heartbeat::HeartbeatMonitor`]),
//!   late-join admission ([`protocol::rubberband::RubberbandPolicy`]), flexible batch
//!   planning ([`protocol::flex`]) and batch-order variation
//!   ([`protocol::order`]). The virtual-time simulator (`ts-sim`) drives
//!   these same state machines, so the evaluated protocol and the shipped
//!   protocol cannot diverge.
//! * [`runtime`] — the threaded runtime behind the [`Producer`] /
//!   [`Consumer`] facades: the producer pipelines over `ts-socket`
//!   PUB/SUB + PUSH/PULL with real payload sharing through the
//!   [`ts_tensor::SharedRegistry`], and the sharded-group layer
//!   ([`EpochCoordinator`]).

pub mod protocol;
pub mod runtime;

pub use protocol::acks::AckTracker;
pub use protocol::buffer::BatchWindow;
pub use protocol::flex::{plan_flex, FlexPlan, Segment};
pub use protocol::heartbeat::HeartbeatMonitor;
pub use protocol::messages::{
    caps, AnnounceContent, ArenaAd, BatchAnnounce, CtrlMsg, DataMsg, JoinDecision, LogAd,
    PayloadMode, ReplayFrom, StatsPayload, StreamedTensor, TracePayload, WelcomeInfo, WIRE_VERSION,
};
pub use protocol::order::ShardInterleave;
pub use protocol::rubberband::RubberbandPolicy;
pub use runtime::builder::{ConsumerBuilder, Producer, ProducerBuilder};
pub use runtime::consumer::{Consumer, ConsumerBatch};
pub use runtime::context::TsContext;
pub use runtime::coordinator::{EpochCoordinator, GroupJoin};
pub use runtime::producer::{EpochSource, ProducerStats, SampleGeometry};
pub use runtime::scrape::{scrape_stats, scrape_trace};
pub use runtime::{FlexibleConfig, ProducerConfig, StagingConfig, Wait};
pub use ts_metrics::{SpanKind, TraceRecordSnap, TraceRing};
pub use ts_socket::{Endpoint, EndpointError, Scheme};

/// Why an attach handshake failed — the typed mismatches a
/// [`Consumer`] surfaces instead of hanging (or silently training on the
/// wrong topology) when its view of the world disagrees with what the
/// producer advertises in its WELCOME.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// [`WIRE_VERSION`] skew between this side (a consumer, or a stats /
    /// trace scraper) and the producer.
    Version {
        /// This side's version.
        ours: u32,
        /// The producer's advertised version.
        theirs: u32,
    },
    /// The topology the consumer insists on does not match what the
    /// producer advertises (e.g. an explicit `shards` override).
    Topology {
        /// Shard count the consumer demanded.
        requested: usize,
        /// Shard count the producer advertises.
        advertised: usize,
    },
    /// The producer advertises a shared-memory arena the consumer cannot
    /// open (not on the same host, stale path, permissions).
    ArenaMissing {
        /// Advertised arena path.
        path: String,
        /// Why the open failed.
        reason: String,
    },
    /// The consumer insisted on a payload mode the producer's WELCOME
    /// does not grant (e.g. forced streaming against a flexible-sizing
    /// producer, which serves shm only).
    Mode {
        /// The mode the consumer demanded.
        requested: PayloadMode,
        /// The producer's grant mask ([`caps`] bits).
        granted: u32,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Version { ours, theirs } => {
                write!(f, "wire version skew: ours {ours}, producer {theirs}")
            }
            HandshakeError::Topology {
                requested,
                advertised,
            } => write!(
                f,
                "topology mismatch: requested {requested} shard(s), producer advertises {advertised}"
            ),
            HandshakeError::ArenaMissing { path, reason } => {
                write!(f, "cannot open advertised arena {path}: {reason}")
            }
            HandshakeError::Mode { requested, granted } => write!(
                f,
                "payload mode {requested:?} not granted by producer (grant mask {granted:#x})"
            ),
        }
    }
}

/// Errors from the TensorSocket runtime and protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum TsError {
    /// Tensor-level failure (dangling payload, OOM, shape).
    Tensor(ts_tensor::TensorError),
    /// Messaging failure.
    Socket(String),
    /// Wire decode failure.
    Wire(String),
    /// Join handshake failed or was rejected.
    Join(String),
    /// The producer detached this consumer (missed heartbeats).
    Detached,
    /// Timed out waiting for the peer.
    Timeout(&'static str),
    /// Invalid configuration.
    Config(String),
    /// A consumer-local transform failed.
    Transform(String),
    /// Shared-memory arena failure (create/open/alloc).
    Arena(String),
    /// The attach handshake failed with a typed mismatch.
    Handshake(HandshakeError),
    /// A malformed endpoint URI, rejected at the API boundary.
    Endpoint(ts_socket::EndpointError),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::Tensor(e) => write!(f, "tensor error: {e}"),
            TsError::Socket(m) => write!(f, "socket error: {m}"),
            TsError::Wire(m) => write!(f, "wire error: {m}"),
            TsError::Join(m) => write!(f, "join failed: {m}"),
            TsError::Detached => write!(f, "detached by producer (missed heartbeats)"),
            TsError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            TsError::Config(m) => write!(f, "invalid config: {m}"),
            TsError::Transform(m) => write!(f, "local transform failed: {m}"),
            TsError::Arena(m) => write!(f, "shared-memory arena: {m}"),
            TsError::Handshake(e) => write!(f, "handshake failed: {e}"),
            TsError::Endpoint(e) => write!(f, "{e}"),
        }
    }
}

impl From<HandshakeError> for TsError {
    fn from(e: HandshakeError) -> Self {
        TsError::Handshake(e)
    }
}

impl std::error::Error for TsError {}

impl From<ts_tensor::TensorError> for TsError {
    fn from(e: ts_tensor::TensorError) -> Self {
        TsError::Tensor(e)
    }
}

impl From<ts_socket::EndpointError> for TsError {
    fn from(e: ts_socket::EndpointError) -> Self {
        TsError::Endpoint(e)
    }
}

/// Lets `impl TryInto<Endpoint>` APIs accept an already-parsed
/// [`Endpoint`] (whose reflexive conversion is infallible).
impl From<std::convert::Infallible> for TsError {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, TsError>;
