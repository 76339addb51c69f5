//! `ts-top` — live observability for a running TensorSocket producer.
//!
//! Attaches to a producer's base endpoint (the same URI consumers
//! connect to, over `inproc://` is meaningless here but `ipc://` and
//! `tcp://` both work), scrapes the control-plane stats snapshot
//! periodically, and renders the per-stage latency histograms, counters
//! and gauges as a live terminal table. With `--json` it performs a
//! single scrape and prints the snapshot as JSON, for scripting and CI.
//!
//! ```text
//! ts-top [--json] [--trace <file>] [--interval <ms>] [--frames <n>] [--timeout <ms>] <endpoint>
//! ```
//!
//! `--trace <file>` scrapes the producer's batch flight recorder instead
//! and writes the last-N completed per-batch records as a Chrome
//! trace-event JSON file — open it in `chrome://tracing` or Perfetto to
//! see each batch's fetch → copy-wait → H2D → publish → announce → ack
//! (and, for in-process consumers, recv → rebuild → release) waterfall,
//! one track per stage per shard.
//!
//! The scrape is read-only: it never attaches as a consumer, never
//! joins, and leaves no state in the producer.

use std::fmt::Write as _;
use std::time::Duration;
use tensorsocket::{scrape_stats, scrape_trace, SpanKind, StatsPayload, TracePayload, TsContext};
use ts_metrics::{HistogramSnapshot, Table};

struct Args {
    endpoint: String,
    json: bool,
    trace: Option<String>,
    last: u32,
    interval: Duration,
    frames: Option<u64>,
    timeout: Duration,
}

const USAGE: &str = "usage: ts-top [--json] [--trace <file>] [--last <n>] [--interval <ms>] \
     [--frames <n>] [--timeout <ms>] <endpoint>\n\
     \n\
     Scrapes the metrics registry of the TensorSocket producer listening on\n\
     <endpoint> (e.g. ipc:///tmp/ts.sock or tcp://127.0.0.1:5555) and renders\n\
     a live stage-latency table. --json scrapes once and prints JSON.\n\
     \n\
       --json            one-shot scrape, JSON on stdout\n\
       --trace <file>    one-shot flight-recorder scrape, Chrome trace-event\n\
                         JSON written to <file> ('-' for stdout); load it in\n\
                         chrome://tracing or Perfetto\n\
       --last <n>        trace records to request (default 256, producer caps)\n\
       --interval <ms>   refresh period in live mode (default 1000)\n\
       --frames <n>      exit after n refreshes (default: run until ^C)\n\
       --timeout <ms>    per-scrape timeout (default 5000)";

fn parse_args() -> Result<Args, String> {
    let mut endpoint = None;
    let mut json = false;
    let mut trace = None;
    let mut last = 256u32;
    let mut interval = Duration::from_millis(1000);
    let mut frames = None;
    let mut timeout = Duration::from_millis(5000);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--trace" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                trace = Some(v);
            }
            "--interval" | "--frames" | "--timeout" | "--last" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("{arg} expects an integer, got {v:?}"))?;
                match arg.as_str() {
                    "--interval" => interval = Duration::from_millis(n.max(1)),
                    "--frames" => frames = Some(n),
                    "--last" => last = (n.clamp(1, u32::MAX as u64)) as u32,
                    _ => timeout = Duration::from_millis(n.max(1)),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown flag {other}"))
            }
            other => {
                if endpoint.replace(other.to_string()).is_some() {
                    return Err("more than one endpoint given".into());
                }
            }
        }
    }
    Ok(Args {
        endpoint: endpoint.ok_or("missing <endpoint>")?,
        json,
        trace,
        last,
        interval,
        frames,
        timeout,
    })
}

fn us(ns: u64) -> String {
    ts_metrics::table::fmt_num(ns as f64 / 1000.0)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the snapshot as a single JSON object. Hand-rolled (the
/// workspace is dependency-free); quantiles are pre-computed so
/// consumers of the JSON need no knowledge of the bucket layout.
fn to_json(stats: &StatsPayload) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"stats_version\": {},", stats.version);
    out.push_str("  \"counters\": {");
    for (i, (name, v)) in stats.counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {v}", json_escape(name));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, v)) in stats.gauges().iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(name), json_f64(*v));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in stats.histograms.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{}\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            json_escape(name),
            h.count,
            json_f64(h.mean()),
            h.p50(),
            h.p99(),
            h.p999(),
            h.max,
        );
    }
    out.push_str("\n  }\n}");
    out
}

/// Renders the flight-recorder scrape as a Chrome trace-event JSON
/// document (the `{"traceEvents": [...]}` object form): one `ph:"X"`
/// complete event per recorded span, with the shard as the `pid` and
/// the stage as the `tid`, plus `ph:"M"` metadata events naming both.
/// Timestamps are the recorder's nanosecond offsets converted to the
/// format's microseconds, so all shards share one timeline.
/// Hand-rolled like `to_json` — the workspace is dependency-free.
fn trace_to_chrome(payload: &TracePayload) -> String {
    let mut shards: Vec<u32> = payload.records.iter().map(|r| r.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for &shard in &shards {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{shard},\"tid\":0,\
                 \"args\":{{\"name\":\"shard {shard}\"}}}}"
            ),
        );
        for kind in SpanKind::ALL {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{shard},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    kind as u8,
                    kind.as_str()
                ),
            );
        }
    }
    for r in &payload.records {
        for &(kind, start_ns, end_ns) in &r.spans {
            let Some(k) = SpanKind::from_u8(kind) else {
                continue; // a newer producer's span kind: skip, keep the rest
            };
            let ts_us = start_ns as f64 / 1000.0;
            let dur_us = end_ns.saturating_sub(start_ns) as f64 / 1000.0;
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"epoch\":{},\"seq\":{},\
                     \"complete\":{}}}}}",
                    k.as_str(),
                    r.shard,
                    kind,
                    r.epoch,
                    r.seq,
                    r.complete
                ),
            );
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"trace_version\":{},\
         \"scraped_at_ns\":{},\"records\":{}}}}}",
        payload.version,
        payload.now_ns,
        payload.records.len()
    );
    out
}

/// Per-interval rate of a counter between two frames, as a rendered
/// cell. Uses the producer's own monotonic snapshot stamps when both
/// frames carry them, so the rate is immune to scrape
/// latency jitter; frames without stamps fall back to the wall
/// interval. First frame (no previous) renders a dash.
fn rate_cell(name: &str, now: u64, prev: Option<&StatsPayload>, stats: &StatsPayload) -> String {
    let Some(prev) = prev else {
        return "-".into();
    };
    let &(_, before) = match prev.counters.iter().find(|(n, _)| n == name) {
        Some(kv) => kv,
        None => return "-".into(),
    };
    let dt_ns = if prev.snapshot_ns > 0 && stats.snapshot_ns > prev.snapshot_ns {
        stats.snapshot_ns - prev.snapshot_ns
    } else {
        return "-".into();
    };
    let rate = now.saturating_sub(before) as f64 / (dt_ns as f64 / 1e9);
    ts_metrics::table::fmt_num(rate)
}

fn fmt_uptime(ns: u64) -> String {
    let s = ns / 1_000_000_000;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// Metric families this build of ts-top knows about. Anything else came
/// from a newer producer: warned once per family on stderr, and rendered
/// (and exported in `--json`) like every other metric — pass-through,
/// never dropped.
const KNOWN_FAMILIES: &[&str] = &[
    "stage", "staging", "consumer", "producer", "watchdog", "trace", "log", "replay",
];

fn warn_unknown_families(stats: &StatsPayload, warned: &mut std::collections::HashSet<String>) {
    let gauges = stats.gauges();
    let names = stats
        .counters
        .iter()
        .map(|(n, _)| n.clone())
        .chain(gauges.iter().map(|(n, _)| n.clone()))
        .chain(stats.histograms.iter().map(|(n, _)| n.clone()));
    for name in names {
        let family = name.split('.').next().unwrap_or(&name).to_string();
        if !KNOWN_FAMILIES.contains(&family.as_str()) && warned.insert(family.clone()) {
            eprintln!(
                "ts-top: unknown metric family \"{family}\" (newer producer?) — \
                 passing it through unrendered-but-included"
            );
        }
    }
}

/// The durable-log header line, when the scraped producer keeps one:
/// per-shard retained offset range and append lag, read from the
/// `log.[s<N>.]retained_min/retained_max/lag` gauges. The inverted range
/// `min > max` is the producer's "enabled, nothing retained yet" ad.
fn log_header(stats: &StatsPayload) -> Option<String> {
    let gauges = stats.gauges();
    let get = |name: &str| gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut prefixes: Vec<String> = gauges
        .iter()
        .filter_map(|(n, _)| n.strip_suffix("retained_max").map(str::to_string))
        .filter(|p| p.starts_with("log."))
        .collect();
    if prefixes.is_empty() {
        return None;
    }
    prefixes.sort();
    let mut parts = Vec::new();
    for p in prefixes {
        let min = get(&format!("{p}retained_min")).unwrap_or(0.0);
        let max = get(&format!("{p}retained_max")).unwrap_or(0.0);
        let lag = get(&format!("{p}lag")).unwrap_or(0.0);
        let shard = p.trim_start_matches("log.").trim_end_matches('.');
        let label = if shard.is_empty() {
            String::new()
        } else {
            format!("{shard} ")
        };
        if min > max {
            parts.push(format!("{label}retained (empty) lag {lag:.0}"));
        } else {
            parts.push(format!("{label}retained [{min:.0}, {max:.0}] lag {lag:.0}"));
        }
    }
    Some(format!("log: {}", parts.join(" | ")))
}

/// The pump header line: what each producer pipeline is waiting for right
/// now (`stage.[s<N>.]wait_state`, a [`tensorsocket::Wait`] code), how
/// long its feeder has spent parked on a dry arena in total
/// (`stage.[s<N>.]arena_parked_ns`), how many payload bytes that feeder
/// had to copy into the arena because batches did not arrive built in
/// place (`stage.[s<N>.]collate_copy_bytes`: 0 over a `DataLoader`),
/// while a catch-up runs, how much of it is sent and not yet acked
/// (`replay.[s<N>.]inflight_bytes`) and, once a pointer joiner was
/// replayed out of the log, how many of those frames went through arena
/// slots and how many as bytes (`replay.[s<N>.]slot_frames`,
/// `replay.[s<N>.]slot_fallbacks`).
fn wait_header(stats: &StatsPayload) -> Option<String> {
    let gauges = stats.gauges();
    let counter = |prefix: &str, name: &str| {
        let name = format!("{prefix}{name}");
        let found = stats.counters.iter().find(|(n, _)| *n == name);
        found.map(|(_, v)| *v).unwrap_or(0)
    };
    let inflight = |prefix: &str| {
        let name = format!("{}inflight_bytes", prefix.replacen("stage.", "replay.", 1));
        let found = gauges.iter().find(|(n, _)| *n == name);
        found.map(|(_, v)| *v).unwrap_or(0.0)
    };
    let mut parts = Vec::new();
    for (name, code) in &gauges {
        let (name, code) = (name.as_str(), *code);
        let Some(prefix) = name.strip_suffix("wait_state") else {
            continue;
        };
        let state = tensorsocket::Wait::ALL.get(code as usize);
        let state = state.map(|w| w.name()).unwrap_or("?");
        let label = prefix.trim_start_matches("stage.").trim_end_matches('.');
        let mut part = match label {
            "" => format!("waiting on {state}"),
            shard => format!("{shard} waiting on {state}"),
        };
        match counter(prefix, "arena_parked_ns") {
            0 => {}
            ns => part.push_str(&format!(" (arena-parked {} ms total)", ns / 1_000_000)),
        }
        match counter(prefix, "collate_copy_bytes") {
            0 => {}
            bytes => part.push_str(&format!(" (feeder copied {} KiB)", bytes / 1024)),
        }
        let unacked = inflight(prefix);
        if unacked > 0.0 {
            part.push_str(&format!(
                " (catch-up: {:.0} KiB un-acked)",
                unacked / 1024.0
            ));
        }
        let replay = prefix.replacen("stage.", "replay.", 1);
        match (
            counter(&replay, "slot_frames"),
            counter(&replay, "slot_fallbacks"),
        ) {
            (0, 0) => {}
            (slots, bytes) => part.push_str(&format!(
                " (log frames to pointer joiners: {slots} via slots, {bytes} as bytes)"
            )),
        }
        parts.push(part);
    }
    (!parts.is_empty()).then(|| format!("pump: {}", parts.join(" | ")))
}

fn render_tables(endpoint: &str, stats: &StatsPayload, prev: Option<&StatsPayload>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ts-top — {endpoint} (stats v{}, up {})",
        stats.version,
        fmt_uptime(stats.uptime_ns)
    );
    if !stats.verdict.is_empty() {
        let _ = writeln!(out, "watchdog: {}", stats.verdict);
    }
    for line in [wait_header(stats), log_header(stats)]
        .into_iter()
        .flatten()
    {
        let _ = writeln!(out, "{line}");
    }
    out.push('\n');
    let mut lat = Table::new(
        "Stage latency (us)",
        &["stage", "count", "p50", "p99", "p99.9", "max", "mean"],
    );
    for (name, h) in &stats.histograms {
        let h: &HistogramSnapshot = h;
        lat.row(&[
            name.clone(),
            h.count.to_string(),
            us(h.p50()),
            us(h.p99()),
            us(h.p999()),
            us(h.max),
            ts_metrics::table::fmt_num(h.mean() / 1000.0),
        ]);
    }
    out.push_str(&lat.render());
    out.push('\n');
    // Live mode leads with what changed this interval, not lifetime
    // totals: a stalled pipeline shows 0/s immediately instead of a
    // slowly diluting cumulative count.
    let mut counters = Table::new("Counters", &["counter", "per/s", "total"]);
    for (name, v) in &stats.counters {
        counters.row(&[
            name.clone(),
            rate_cell(name, *v, prev, stats),
            v.to_string(),
        ]);
    }
    out.push_str(&counters.render());
    out.push('\n');
    let gauges_list = stats.gauges();
    if !gauges_list.is_empty() {
        let mut gauges = Table::new("Gauges", &["gauge", "value"]);
        for (name, v) in &gauges_list {
            gauges.row(&[name.clone(), ts_metrics::table::fmt_num(*v)]);
        }
        out.push_str(&gauges.render());
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ts-top: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = TsContext::host_only();
    if let Some(path) = &args.trace {
        match scrape_trace(&ctx, &args.endpoint, args.last, args.timeout) {
            Ok(payload) => {
                let doc = trace_to_chrome(&payload);
                if path == "-" {
                    println!("{doc}");
                } else if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("ts-top: writing {path}: {e}");
                    std::process::exit(1);
                } else {
                    eprintln!(
                        "ts-top: wrote {} trace record(s) to {path} — open in \
                         chrome://tracing or https://ui.perfetto.dev",
                        payload.records.len()
                    );
                }
            }
            Err(e) => {
                eprintln!("ts-top: trace scrape failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut warned_families = std::collections::HashSet::new();
    if args.json {
        match scrape_stats(&ctx, &args.endpoint, args.timeout) {
            Ok(stats) => {
                warn_unknown_families(&stats, &mut warned_families);
                println!("{}", to_json(&stats));
            }
            Err(e) => {
                eprintln!("ts-top: scrape failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut frame = 0u64;
    let mut prev: Option<StatsPayload> = None;
    loop {
        match scrape_stats(&ctx, &args.endpoint, args.timeout) {
            Ok(stats) => {
                warn_unknown_families(&stats, &mut warned_families);
                // Clear screen + home, like top(1).
                print!(
                    "\x1b[2J\x1b[H{}",
                    render_tables(&args.endpoint, &stats, prev.as_ref())
                );
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                prev = Some(stats);
            }
            Err(e) => {
                eprintln!("ts-top: scrape failed: {e}");
                std::process::exit(1);
            }
        }
        frame += 1;
        if let Some(max) = args.frames {
            if frame >= max {
                return;
            }
        }
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pump_header_shows_a_running_catch_up_per_pipeline() {
        let registry = ts_metrics::Registry::new();
        registry.gauge("stage.s0.wait_state").set(3.0);
        registry.gauge("stage.s1.wait_state").set(2.0);
        registry
            .gauge("replay.s0.inflight_bytes")
            .set(3.0 * 1024.0 * 1024.0);
        registry.gauge("replay.s1.inflight_bytes").set(0.0);
        registry.counter("stage.s0.collate_copy_bytes").add(0);
        registry.counter("stage.s1.collate_copy_bytes").add(5 << 20);
        registry.counter("replay.s0.slot_frames").add(40);
        registry.counter("replay.s0.slot_fallbacks").add(2);
        registry.counter("replay.s1.slot_frames").add(0);
        let header = wait_header(&StatsPayload::from_registry(&registry)).unwrap();
        assert_eq!(
            header,
            "pump: s0 waiting on window (catch-up: 3072 KiB un-acked) \
             (log frames to pointer joiners: 40 via slots, 2 as bytes) | \
             s1 waiting on item (feeder copied 5120 KiB)"
        );
        // A standalone producer's gauges carry no shard.
        let registry = ts_metrics::Registry::new();
        registry.gauge("stage.wait_state").set(3.0);
        registry.gauge("replay.inflight_bytes").set(2048.0);
        let header = wait_header(&StatsPayload::from_registry(&registry)).unwrap();
        assert_eq!(header, "pump: waiting on window (catch-up: 2 KiB un-acked)");
    }
}
