//! Bench-side spans: recorded in memory around the calls into each layer,
//! written out as JSONL when the process ends, merged by the driver into
//! one Chrome trace-event file.
//!
//! A span is a name, a start and an end on the shared clock
//! ([`crate::util::now_ns`]), the span that caused it, and the batch
//! identity `(epoch, shard, index in epoch)` — the one triple both the
//! feeder (which runs before a seq exists) and the consumers know, so one
//! batch's spans share an identifier across all processes.
//!
//! Within a traced run the per-batch spans are on for every other block
//! of batches ([`block_traced`]): neighbouring blocks see the same machine
//! seconds apart at most, so the tracing overhead is the difference
//! within block pairs, not between two runs minutes apart.

use crate::util::{now_ns, percentile_sorted, quartiles, Json};
use std::io::Write;
use std::path::Path;

/// `(epoch, shard, index in epoch)`; `NO_BATCH` for spans that belong to
/// no batch.
pub type BatchId = (u64, u32, u64);
pub const NO_BATCH: BatchId = (u64::MAX, 0, 0);

/// Whether the per-batch spans are on for batch `index` of `epoch` in a
/// traced run with blocks of `block_len` batches: every other block, and
/// the other half in the next epoch so that neither side always holds the
/// epoch's first and last batch.
pub fn block_traced(epoch: u64, index: u64, block_len: u64) -> bool {
    block_len > 0 && (index / block_len + epoch) % 2 == 1
}

/// Tracing overhead out of a consumer's timed blocks `(traced, ns)` in
/// stream order: for each adjacent pair holding one block of each kind,
/// the share by which the traced block's rate is below the untraced
/// one's (`1 - untraced_ns / traced_ns`). Returns the pair values.
pub fn block_pair_overheads(blocks: &[(bool, u64)]) -> Vec<f64> {
    blocks
        .chunks_exact(2)
        .filter_map(|pair| match (pair[0], pair[1]) {
            ((true, on), (false, off)) | ((false, off), (true, on)) if on > 0 => {
                Some(1.0 - off as f64 / on as f64)
            }
            _ => None,
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the causing span within the same recorder; 0 for
    /// a root span.
    pub parent: u32,
    pub batch: BatchId,
    pub pid: u32,
    /// Recorder label within the process (one per recording thread).
    pub lane: String,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("start", Json::Int(self.start_ns)),
            ("end", Json::Int(self.end_ns)),
            ("parent", Json::Int(self.parent as u64)),
            (
                "batch",
                if self.batch == NO_BATCH {
                    Json::Null
                } else {
                    Json::Arr(vec![
                        Json::Int(self.batch.0),
                        Json::Int(self.batch.1 as u64),
                        Json::Int(self.batch.2),
                    ])
                },
            ),
            ("pid", Json::Int(self.pid as u64)),
            ("lane", Json::Str(self.lane.clone())),
        ])
    }

    fn from_json(v: &Json) -> Option<Span> {
        let batch = match v.get("batch")?.as_arr() {
            Some([e, s, q]) => (e.as_u64()?, s.as_u64()? as u32, q.as_u64()?),
            _ => NO_BATCH,
        };
        Some(Span {
            name: v.get("name")?.as_str()?.to_string(),
            start_ns: v.get("start")?.as_u64()?,
            end_ns: v.get("end")?.as_u64()?,
            parent: v.get("parent")?.as_u64()? as u32,
            batch,
            pid: v.get("pid")?.as_u64()? as u32,
            lane: v.get("lane")?.as_str()?.to_string(),
        })
    }
}

/// One thread's span recorder. Disabled, every call is a branch and
/// nothing else — the untraced run pays no clock reads for it.
pub struct Recorder {
    enabled: bool,
    lane: String,
    pid: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, lane: &str) -> Self {
        Self {
            enabled,
            lane: lane.to_string(),
            pid: std::process::id(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its 1-based index for use as a
    /// later span's `parent` (0 when disabled).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        batch: BatchId,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            batch,
            pid: self.pid,
            lane: self.lane.clone(),
        });
        self.spans.len() as u32
    }

    /// Times `f` as a root span that belongs to no batch.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        // Reserve the slot first so children can name it as parent.
        let idx = self.record(name, now_ns(), 0, 0, NO_BATCH);
        let out = f(self);
        self.spans[idx as usize - 1].end_ns = now_ns();
        out
    }

    /// Index the next recorded span will get — lets a caller parent
    /// children to a span opened by [`Recorder::scope`].
    pub fn current(&self) -> u32 {
        self.spans.len() as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json().render())?;
    }
    out.flush()
}

pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            Json::parse(l)
                .ok()
                .as_ref()
                .and_then(Span::from_json)
                .ok_or_else(|| format!("{}: malformed span line `{l}`", path.display()))
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps relative to the earliest span,
/// the batch identity in `args` so a batch can be followed across
/// processes by searching for it.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut lanes: Vec<(u32, &str)> = spans.iter().map(|s| (s.pid, s.lane.as_str())).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let tid_of = |pid: u32, lane: &str| lanes.iter().position(|l| *l == (pid, lane)).unwrap_or(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !std::mem::replace(&mut first, false) {
            write!(out, ",")?;
        }
        writeln!(out)
    };
    for (tid, (pid, lane)) in lanes.iter().enumerate() {
        sep(&mut out)?;
        let ev = Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(*pid as u64)),
            ("tid", Json::Int(tid as u64)),
            ("args", Json::obj([("name", Json::Str(lane.to_string()))])),
        ]);
        write!(out, "{}", ev.render())?;
    }
    for s in spans {
        sep(&mut out)?;
        let args = if s.batch == NO_BATCH {
            Json::obj([])
        } else {
            Json::obj([(
                "batch",
                Json::Str(format!("e{}/s{}/i{}", s.batch.0, s.batch.1, s.batch.2)),
            )])
        };
        let ev = Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num((s.start_ns - t0) as f64 / 1e3)),
            ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::Int(s.pid as u64)),
            ("tid", Json::Int(tid_of(s.pid, &s.lane) as u64)),
            ("args", args),
        ]);
        write!(out, "{}", ev.render())?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

/// Self time of every span of one recorder: its duration minus the part
/// of its interval that its child spans cover (overlapping children are
/// counted once; a child reaching outside its parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(slot) = (s.parent as usize)
            .checked_sub(1)
            .and_then(|p| children.get_mut(p))
        {
            slot.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Standard error of the median of `pairs` (block-pair overheads pooled
/// over `consumers` processes that receive the same stream in step, so
/// only one process's worth of pairs counts as independent): the normal
/// approximation, 1.2533 sigma / sqrt(n), with sigma taken from the
/// distance between the quartiles. With too few pairs to have quartiles
/// the answer is 1 — nothing is resolved.
pub fn median_se(pairs: &[f64], consumers: usize) -> f64 {
    let independent = pairs.len() / consumers.max(1);
    match quartiles(pairs) {
        Some((q1, q3)) if independent >= 2 => {
            1.2533 * ((q3 - q1) / 1.349) / (independent as f64).sqrt()
        }
        _ => 1.0,
    }
}

/// p50, p99 and count of the durations of every span called `name`.
pub fn duration_stats<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    name: &str,
) -> (u64, u64, usize) {
    let mut d: Vec<u64> = spans
        .into_iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    d.sort_unstable();
    (
        percentile_sorted(&d, 0.50),
        percentile_sorted(&d, 0.99),
        d.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            batch: NO_BATCH,
            pid: 1,
            lane: "t".into(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("setup", 0, 100, 0),
            span("spawn_producer", 10, 30, 1),
            span("fork_consumers", 25, 50, 1), // overlaps the previous child
            span("outside", 90, 130, 1),       // clipped at the parent's end
            span("leaf", 12, 14, 2),
        ];
        let st = self_times_ns(&spans);
        // children cover [10,50) and [90,100) of [0,100)
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 20 - 2);
        assert_eq!(st[2], 25);
        assert_eq!(st[4], 2);
        // self times of a parent and its (non-overlapping) children add
        // up to the parent's duration
        let flat = vec![
            span("p", 0, 50, 0),
            span("a", 0, 20, 1),
            span("b", 30, 45, 1),
        ];
        let st = self_times_ns(&flat);
        assert_eq!(st.iter().sum::<u64>(), 50);
    }

    #[test]
    fn blocks_alternate_and_pair_up() {
        // blocks of 4: epoch 1 traces blocks 0, 2, ..; epoch 2 the others
        assert!(block_traced(1, 0, 4) && block_traced(1, 3, 4));
        assert!(!block_traced(1, 4, 4) && block_traced(1, 8, 4));
        assert!(!block_traced(2, 0, 4) && block_traced(2, 4, 4));
        assert!(!block_traced(1, 0, 0), "block length 0 is tracing off");
        // traced blocks 2 % slower than their untraced neighbours
        let blocks = [(true, 1020), (false, 1000), (false, 2000), (true, 2040)];
        let pairs = block_pair_overheads(&blocks);
        assert_eq!(pairs.len(), 2);
        assert!(pairs
            .iter()
            .all(|f| (f - (1.0 - 1000.0 / 1020.0)).abs() < 1e-12));
        // a pair of one kind carries no comparison; a trailing block none
        assert!(block_pair_overheads(&[(true, 5), (true, 6), (false, 7)]).is_empty());
        // quartiles of 1..=10 are 2.75 and 8.25; two consumers in step
        // leave five independent pairs
        let spread: Vec<f64> = (1..=10).map(f64::from).collect();
        let se = median_se(&spread, 2);
        assert!((se - 1.2533 * (5.5 / 1.349) / 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(median_se(&[0.1], 1), 1.0);
    }

    #[test]
    fn recorder_disabled_records_nothing() {
        let mut r = Recorder::new(false, "x");
        assert_eq!(r.record("a", 1, 2, 0, NO_BATCH), 0);
        let v = r.scope("b", |r| {
            r.record("c", 1, 2, 0, NO_BATCH);
            7
        });
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn scope_parents_children_and_jsonl_round_trips() {
        let mut r = Recorder::new(true, "driver");
        r.scope("setup", |r| {
            let parent = r.current();
            r.record("spawn_producer", now_ns(), now_ns(), parent, NO_BATCH);
            r.record("next_wait", 5, 9, parent, (1, 0, 42));
        });
        let spans = r.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 1);
        assert!(spans[0].end_ns >= spans[0].start_ns && spans[0].end_ns > 0);
        let dir = std::env::temp_dir().join(format!("ts-e2e-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        write_jsonl(&path, &spans).unwrap();
        assert_eq!(read_jsonl(&path).unwrap(), spans);
        let chrome = dir.join("trace.json");
        write_chrome(&chrome, &spans).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1 + spans.len());
        assert!(events.iter().any(|e| e
            .get("args")
            .and_then(|a| a.get("batch"))
            .and_then(Json::as_str)
            == Some("e1/s0/i42")));
        let _ = std::fs::remove_dir_all(&dir);
        let (p50, p99, n) = duration_stats(&spans, "next_wait");
        assert_eq!((p50, p99, n), (4, 4, 1));
    }
}
