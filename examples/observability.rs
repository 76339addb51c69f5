//! Live pipeline observability: per-stage latency histograms scraped
//! over the control plane, the way `ts-top` does it.
//!
//! ```text
//! cargo run --release --example observability                 # quick demo
//! cargo run --release --example observability -- --serve 30   # serve 30s for ts-top
//! cargo run --release --example observability -- --serve 30 --endpoint ipc:///tmp/obs.sock
//! ```
//!
//! The demo spawns the paper's full producer shape — two sharded
//! feeder+publish pipelines staging batches through the GPU slab
//! rotation — plus a consumer "training" off it, then scrapes the
//! producer **from a separate context over the `ipc://` socket** and
//! renders the per-stage latency histograms. Nothing in the scrape path
//! touches process memory: what prints below is exactly what
//! `ts-top <endpoint>` shows from another process.
//!
//! `--serve <secs>` keeps the topology alive so you can point the real
//! CLI at it:
//!
//! ```text
//! cargo run --release --example observability -- --serve 60 &
//! ts-top ipc:///tmp/ts-obs-<pid>.sock            # live table, 1s refresh
//! ts-top --json ipc:///tmp/ts-obs-<pid>.sock     # one-shot snapshot
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use tensorsocket::{scrape_stats, Consumer, Producer, StatsPayload, TsContext};
use ts_data::{DataLoader, DataLoaderConfig, SyntheticImageDataset};
use ts_device::DeviceId;
use ts_metrics::table::fmt_num;
use ts_metrics::Table;

const SHARDS: usize = 2;

fn parse_args() -> (Option<u64>, Option<String>) {
    let mut serve = None;
    let mut endpoint = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" => {
                let secs = it.next().expect("--serve takes seconds");
                serve = Some(secs.parse().expect("--serve takes an integer"));
            }
            "--endpoint" => endpoint = Some(it.next().expect("--endpoint takes a URI")),
            other => panic!("unknown arg {other} (usage: [--serve <secs>] [--endpoint <uri>])"),
        }
    }
    (serve, endpoint)
}

fn us(ns: u64) -> String {
    fmt_num(ns as f64 / 1000.0)
}

/// Renders the stage-latency portion of a snapshot, `ts-top`-style.
fn print_stage_table(stats: &StatsPayload) {
    let mut lat = Table::new(
        "Stage latency (us)",
        &["stage", "count", "p50", "p99", "p99.9", "max"],
    );
    for (name, h) in &stats.histograms {
        lat.row(&[
            name.clone(),
            h.count.to_string(),
            us(h.p50()),
            us(h.p99()),
            us(h.p999()),
            us(h.max),
        ]);
    }
    print!("{}", lat.render());
}

fn main() {
    let (serve, endpoint_override) = parse_args();
    let endpoint = endpoint_override.unwrap_or_else(|| {
        format!(
            "ipc://{}",
            std::env::temp_dir()
                .join(format!("ts-obs-{}.sock", std::process::id()))
                .display()
        )
    });

    // The paper's producer shape: a simulated GPU so batches go through
    // the staging slab rotation (staging.* histograms), two shard
    // pipelines (per-shard stage.s<N>.* histograms), and a
    // builder-provisioned shm arena so every batch is built in a leased
    // slot and publishing moves no payload byte (the CI smoke asserts
    // `stage.s<N>.collate_copy_bytes` reads 0 on the scraped snapshot).
    let ctx = TsContext::with_gpus(1, 1 << 30, false);
    let arena_path = std::env::temp_dir().join(format!("ts-obs-{}.arena", std::process::id()));
    let dataset = Arc::new(SyntheticImageDataset::imagenet_like(512, 0));
    let loaders = DataLoader::sharded(
        dataset,
        DataLoaderConfig {
            batch_size: 16,
            num_workers: 2,
            ..Default::default()
        },
        SHARDS,
    );
    // Enough epochs to outlive any --serve window; we abort when done.
    let epochs = serve.map_or(8, |_| 100_000);
    let producer = Producer::builder()
        .context(&ctx)
        .endpoint(&endpoint)
        .epochs(epochs)
        .device(DeviceId::Gpu(0))
        .heartbeat_timeout(Duration::from_secs(30))
        .first_consumer_timeout(Some(Duration::from_secs(120)))
        .arena(&arena_path)
        .spawn_sharded(loaders)
        .expect("spawn sharded producer");
    println!("producer serving on {endpoint} ({SHARDS} shards, GPU staging)");

    // A consumer "training" off the stream: each batch costs a simulated
    // optimizer step, which is what gives the wait/inter-arrival
    // histograms realistic shape.
    let consumer_ctx = ctx.clone();
    let consumer_endpoint = endpoint.clone();
    let consumer = std::thread::spawn(move || {
        let mut consumer = Consumer::builder()
            .context(&consumer_ctx)
            .recv_timeout(Duration::from_secs(60))
            .connect(&consumer_endpoint)
            .expect("consumer connect");
        let mut consumed = 0u64;
        for batch in consumer.by_ref() {
            if batch.is_err() {
                break; // producer aborted at the end of --serve
            }
            std::thread::sleep(Duration::from_micros(500)); // train step
            consumed += 1;
        }
        consumed
    });

    if let Some(secs) = serve {
        println!("serving for {secs}s — attach with: ts-top {endpoint}");
        std::thread::sleep(Duration::from_secs(secs));
        producer.abort();
        let consumed = consumer.join().expect("consumer thread");
        println!("done: {consumed} batches consumed");
        return;
    }

    // Demo mode: scrape mid-stream from a context that shares nothing
    // with the pipeline — this snapshot crossed the ipc:// socket.
    std::thread::sleep(Duration::from_millis(750));
    let scrape_ctx = TsContext::host_only();
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = scrape_stats(&scrape_ctx, &endpoint, Duration::from_secs(5))
            .expect("scrape mid-stream");
        // Wait until every stage has reported at least once.
        // Per-shard names: each shard pipeline owns a staging engine.
        let warm = [
            "stage.s0.publish_ack_ns",
            "stage.s1.publish_ack_ns",
            "staging.s0.h2d_ns",
            "consumer.wait_ns",
        ]
        .iter()
        .all(|n| stats.histogram(n).is_some_and(|h| h.count > 0));
        if warm || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    println!("\n== scraped over the wire (stats v{}) ==\n", stats.version);
    print_stage_table(&stats);
    println!(
        "\nbatches published {} / consumed {} — acks pending on {} in-flight",
        stats.counter("producer.batches").unwrap_or(0),
        stats.counter("consumer.batches").unwrap_or(0),
        stats
            .gauges()
            .iter()
            .filter(|(n, _)| n.ends_with("pin_depth"))
            .map(|(_, v)| *v as u64)
            .sum::<u64>(),
    );

    let consumed = consumer.join().expect("consumer thread");
    let shard_stats = producer.join_shards().expect("producer join");
    println!(
        "clean shutdown: {} batches consumed, shards published {:?}",
        consumed,
        shard_stats
            .iter()
            .map(|s| s.batches_published)
            .collect::<Vec<_>>()
    );
}
