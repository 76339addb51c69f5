//! `ts-e2e` — the multi-process shared-loading benchmark.
//!
//! One producer process feeding consumer processes over `ipc://` and a
//! shared-memory arena, against private loaders on the same machine: the
//! deployment shape the paper is about, measured live, with each layer a
//! batch crosses reported next to a same-run roofline. See `README.md`
//! in this directory for the workloads, the metrics and how they interact.
//!
//! ```text
//! ts-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, one JSON line last
//! ts-e2e --all --seed <n> [--out runs.jsonl] [--trace-out trace]     every workload, both passes
//! ts-e2e --check                                                     tiny sizes, asserts the contract
//! ts-e2e --compare a.jsonl b.jsonl                                   verdict per (workload, metric)
//! ```
//!
//! A pass — one workload, untraced or traced — always runs as
//! `--workload` in a process of its own; `--all` and `--check` start one
//! such process per pass and read its last line.

mod child;
mod driver;
mod layers;
mod procstat;
mod report;
mod trace;
mod util;
mod workloads;

use driver::{RunConfig, RunOutcome, WorkDir};
use report::{Metrics, END_TO_END, PER_LAYER, TRACE_OVERHEAD_LIMIT};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use util::{Args, Json};
use workloads::{Workload, WORKLOADS};

/// Run length when `--seconds` is not given; `BENCHMARK.json` names the
/// same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Cold bring-ups behind `setup_s`; the last one carries the run.
const SETUPS: usize = 9;
/// The run under the allocator's defaults streams this share of the
/// epochs; the traced run streams them all, like the untraced one.
const DEFAULT_MALLOC_SCALE: f64 = 0.25;
/// `--check` runs every workload at this share of its epochs (never
/// fewer than the workload's minimum) ...
const CHECK_SCALE: f64 = 0.05;
/// ... over epochs this many times shorter.
const CHECK_EPOCH_DIVISOR: usize = 16;

struct Options {
    seed: u64,
    seconds: f64,
    work_root: PathBuf,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl Options {
    fn from_args(args: &Args) -> Result<Self, String> {
        let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Self {
            seed: args.parsed("--seed")?.unwrap_or(1),
            seconds,
            work_root: PathBuf::from(args.value("--work-dir").unwrap_or(".bench_work")),
            out: args.value("--out").map(PathBuf::from),
            trace_out: args.value("--trace-out").map(PathBuf::from),
        })
    }

    /// One shared stream of `w` at `scale`, without the measurements
    /// around it (one bring-up, no non-shared phase).
    fn stream(&self, w: &Workload, scale: f64, traced: bool) -> RunConfig {
        RunConfig {
            workload: *w,
            seed: self.seed,
            seconds: self.seconds,
            scale,
            traced,
            setups: 1,
            nonshared: false,
            work_root: self.work_root.clone(),
        }
    }
}

/// One finished pass over one workload, ready to print and to record.
struct Pass {
    trace: u64,
    values: Metrics,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    sizing: Json,
}

impl Pass {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn defs(&self) -> &'static [report::MetricDef] {
        if self.trace == 0 {
            &END_TO_END
        } else {
            &PER_LAYER
        }
    }

    /// The contract's result object.
    fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", report::metrics_json(self.defs(), &self.values)),
        ])
    }

    /// The line `--out` appends: the result plus what identifies the run.
    fn record_json(&self, w: &Workload, env: &Json) -> Json {
        let Json::Obj(mut map) = self.result_json() else {
            unreachable!("result_json builds an object")
        };
        map.insert("workload".into(), Json::Str(w.name.into()));
        map.insert("trace".into(), Json::Int(self.trace));
        map.insert("env".into(), env.clone());
        map.insert("sizing".into(), self.sizing.clone());
        map.insert(
            "notes".into(),
            Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
        );
        Json::Obj(map)
    }
}

fn sizing_json(out: &RunOutcome) -> Json {
    let s = out.sizing;
    Json::obj([
        ("timed_epochs", Json::Int(s.timed_epochs)),
        ("nonshared_epochs", Json::Int(s.nonshared_epochs)),
        ("late_launch_batches", Json::Int(s.late_launch_batches)),
        ("late_replay_batches", Json::Int(s.late_replay_batches)),
    ])
}

/// The untraced pass: the only source of end-to-end metrics. `measured`
/// adds what surrounds the stream — the cold bring-ups behind `setup_s`
/// and the non-shared phase; the run under the allocator's defaults,
/// which is read for its `samples_per_s` alone, goes without them.
fn untraced_pass(opts: &Options, w: &Workload, scale: f64, measured: bool) -> Result<Pass, String> {
    let mut cfg = opts.stream(w, scale, false);
    if measured {
        cfg.nonshared = true;
        cfg.setups = if scale < 1.0 { 1 } else { SETUPS };
    }
    let out = driver::run(&cfg)?;
    let window_s = |c: Option<&driver::ChildResult>| c.map_or(0.0, driver::ChildResult::window_s);
    println!(
        "[{}] shared {:.1} samples/s per consumer over {:.2} s (base) vs non-shared {:.1} samples/s \
         per process over {:.2} s (upper quartiles over epochs); {} waits pooled per epoch; setups {:?} s",
        w.name,
        out.samples_per_s(),
        window_s(out.consumers.first()),
        out.nonshared_samples_per_s(),
        window_s(out.nonshared.first()),
        out.wait_percentile_us(0.5).1,
        out.setup_s
    );
    if let Some(ns) = out.late.as_ref().and_then(|late| late.join_ns) {
        println!(
            "[{}] late group: {} batches off the log in {:.3} s from connect() start (base)",
            w.name,
            out.sizing.late_replay_batches,
            ns as f64 / 1e9
        );
    }
    let (pc, cc) = (out.producer_cpu(), out.consumer_cpu());
    println!(
        "[{}] timed-window CPU: producer {:.0} ms user + {:.0} ms sys, consumers {:.0} ms user + {:.0} ms sys",
        w.name, pc.user, pc.sys, cc.user, cc.sys
    );
    Ok(Pass {
        trace: 0,
        values: report::end_to_end(w, &out),
        attempted: out.attempted,
        failed: out.failed,
        sizing: sizing_json(&out),
        notes: out.notes,
    })
}

/// The traced pass: the stream with bench-side spans on for every other
/// block of batches, then the standalone layer replays, then the same
/// stream once more under the allocator's defaults.
fn traced_pass(
    opts: &Options,
    w: &Workload,
    tiny: bool,
    trace_out: Option<&Path>,
) -> Result<Pass, String> {
    let scale = if tiny { CHECK_SCALE } else { 1.0 };
    let traced = driver::run(&opts.stream(w, scale, true))?;
    let dir = WorkDir::create(&opts.work_root, &format!("{}-layers", w.name))?;
    let standalone = layers::replay(w, opts.seed, dir.path(), tiny)?;
    drop(dir);
    let mut pass = Pass {
        trace: 1,
        values: Metrics::new(),
        attempted: traced.attempted,
        failed: traced.failed,
        sizing: sizing_json(&traced),
        notes: traced.notes.clone(),
    };

    let mut flags = vec!["--default-malloc"];
    flags.extend(tiny.then_some("--tiny"));
    let probe = run_pass(opts, w, false, &flags, false)?.1;
    let default_rate = probe.as_ref().and_then(|r| {
        r.get("metrics")?
            .get("samples_per_s")?
            .get("value")?
            .as_f64()
    });
    let count = |key: &str| probe.as_ref().and_then(|r| r.get(key)?.as_u64());
    pass.attempted += count("attempted").unwrap_or(1);
    pass.failed += count("failed").unwrap_or(1);
    if default_rate.is_none() || count("failed") != Some(0) {
        pass.notes
            .push("the run under the allocator's defaults failed".into());
    }

    pass.values = report::per_layer(w, &traced, &standalone, default_rate.unwrap_or(0.0));
    let get = |k: &str| pass.values.get(k).copied().unwrap_or(f64::NAN);
    println!(
        "[{}] traced blocks {:.1} samples/s per consumer vs untraced blocks {:.1} (base), {} pairs; \
         allocator defaults {:.1} vs pinned {:.1} (base)",
        w.name,
        get("bench.traced_samples_per_s"),
        get("bench.untraced_samples_per_s"),
        get("bench.trace_block_pairs"),
        get("bench.default_malloc_samples_per_s"),
        get("bench.untraced_samples_per_s"),
    );
    if let Some((q1, q3)) = util::quartiles(&traced.trace_pair_overheads()) {
        println!(
            "[{}] tracing overhead per block pair: quartiles {q1:+.4} / {:+.4} / {q3:+.4}",
            w.name,
            get("bench.trace_overhead_frac")
        );
    }
    // Throughput moves by several per cent from block to block, so the
    // estimate carries a standard error; the pass fails when the data
    // put the overhead above the limit, and says so when they cannot put
    // it below.
    let (overhead, se) = (
        get("bench.trace_overhead_frac"),
        get("bench.trace_overhead_se"),
    );
    if overhead - 2.0 * se > TRACE_OVERHEAD_LIMIT {
        pass.failed += 1;
        pass.notes.push(format!(
            "tracing overhead {overhead:.4} (standard error {se:.4}) is above {TRACE_OVERHEAD_LIMIT}"
        ));
    } else if overhead + 2.0 * se > TRACE_OVERHEAD_LIMIT {
        pass.notes.push(format!(
            "tracing overhead {overhead:.4} (standard error {se:.4}) is not resolved below \
             {TRACE_OVERHEAD_LIMIT} by this run"
        ));
    }
    if let Some(path) = trace_out {
        trace::write_chrome(path, &traced.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "[{}] {} spans -> {}",
            w.name,
            traced.spans.len(),
            path.display()
        );
    }
    Ok(pass)
}

fn append_record(path: &Path, record: &Json) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", record.render()).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_pass(w: &Workload, pass: &Pass) {
    let title = if pass.trace == 0 {
        format!("== {} · end-to-end (untraced) ==", w.name)
    } else {
        format!(
            "== {} · per-layer (traced pass + standalone replays) ==",
            w.name
        )
    };
    report::print_metrics(&title, pass.defs(), &pass.values);
    if pass.trace == 1 {
        report::print_budget(w, &pass.values);
    }
    println!(
        "  failed {} of {} operations{}",
        pass.failed,
        pass.attempted,
        if pass.correct() {
            ""
        } else {
            "  <-- INCORRECT"
        }
    );
    for note in &pass.notes {
        println!("  note: {note}");
    }
}

/// `--workload`: one pass of one workload; the contract's JSON object is
/// the last line of stdout.
fn single(opts: &Options, args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    // `--check`'s size: a twentieth of the epochs would leave less than
    // one, so the rest of the shrink comes out of the epoch length.
    let tiny = args.has("--tiny");
    let shrunk;
    let w = if tiny {
        shrunk = w.with_batches_per_epoch(w.batches_per_epoch / CHECK_EPOCH_DIVISOR);
        &shrunk
    } else {
        w
    };
    ensure_root(opts)?;
    let env = procstat::environment(&opts.work_root, opts.seed, opts.seconds);
    println!("env {}", env.render());
    let pass = if traced {
        traced_pass(opts, w, tiny, opts.trace_out.as_deref())?
    } else if args.has("--default-malloc") {
        let scale = if tiny {
            CHECK_SCALE
        } else {
            DEFAULT_MALLOC_SCALE
        };
        untraced_pass(opts, w, scale, false)?
    } else {
        untraced_pass(opts, w, if tiny { CHECK_SCALE } else { 1.0 }, true)?
    };
    print_pass(w, &pass);
    if let Some(out) = &opts.out {
        append_record(out, &pass.record_json(w, &env))?;
    }
    println!("{}", pass.result_json().render());
    Ok(pass.correct())
}

/// Runs one pass of one workload as `--workload` in a process of its own
/// — the one way a pass is run, so its numbers are the ones the
/// contract's command gives (a process that had already run another
/// workload would carry that one's heap into `mem_pss_mib`) and a pass
/// that dies takes nothing else down. Returns whether it exited with
/// success and the result object off its last line.
fn run_pass(
    opts: &Options,
    w: &Workload,
    traced: bool,
    flags: &[&str],
    echo: bool,
) -> Result<(bool, Option<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--work-dir")
        .arg(&opts.work_root)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if flags.contains(&"--default-malloc") {
        for (key, _) in MALLOC_REGIME {
            cmd.env_remove(key);
        }
    }
    if let Some(out) = opts.out.as_ref().filter(|_| echo) {
        cmd.arg("--out").arg(out);
    }
    if let Some(base) = opts.trace_out.as_ref().filter(|_| echo && traced) {
        cmd.arg("--trace-out")
            .arg(format!("{}.{}.json", base.display(), w.name));
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("[{}] pass failed to start: {e}", w.name))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in std::io::BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
    {
        if echo {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("[{}] waiting for the pass: {e}", w.name))?;
    Ok((status.success(), Json::parse(&last).ok()))
}

/// `--all`: every workload untraced, then traced; prints every metric by
/// name with its unit.
fn all(opts: &Options) -> Result<bool, String> {
    let mut correct = true;
    for w in &WORKLOADS {
        let s = w.sizing(opts.seconds, 1.0);
        println!(
            "-- {}: {} — 1+{} shared epochs x {} batches of {} B, non-shared {} epochs",
            w.name,
            w.why,
            s.timed_epochs,
            w.batches_per_epoch,
            w.batch_bytes(),
            s.nonshared_epochs
        );
        for traced in [false, true] {
            correct &= run_pass(opts, w, traced, &[], true)?.0;
        }
    }
    println!(
        "{}",
        if correct {
            "ok: every workload correct"
        } else {
            "FAILED: see notes above"
        }
    );
    Ok(correct)
}

/// Every metric `BENCHMARK.json` declares under `key` must be in the
/// pass's result exactly once, with its unit, direction and bound, finite
/// and (unless it is a difference) non-negative.
fn check_declared(
    declared: &Json,
    key: &str,
    defs: &[report::MetricDef],
    result: &Json,
    w: &Workload,
) -> Vec<String> {
    let mut problems = Vec::new();
    let printed = result
        .get("metrics")
        .and_then(Json::as_obj)
        .cloned()
        .unwrap_or_default();
    let declared = declared.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    if declared.len() != printed.len() {
        problems.push(format!(
            "{}: {key} declares {} metrics, {} printed",
            w.name,
            declared.len(),
            printed.len()
        ));
    }
    for d in declared {
        let name = d.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(p) = printed.get(name) else {
            problems.push(format!("{}: `{name}` declared but not printed", w.name));
            continue;
        };
        let value = p.get("value").and_then(Json::as_f64);
        if p.get("unit").and_then(Json::as_str) != d.get("unit").and_then(Json::as_str) {
            problems.push(format!(
                "{}: `{name}` unit differs from the declaration",
                w.name
            ));
        }
        let def = defs.iter().find(|m| m.name == name);
        if def.map(|m| m.better.as_str()) != d.get("better").and_then(Json::as_str) {
            problems.push(format!(
                "{}: `{name}` direction differs from the declaration",
                w.name
            ));
        }
        if key == "end_to_end" && def.map(|m| m.bound) != d.get("bound").and_then(Json::as_f64) {
            problems.push(format!(
                "{}: `{name}` bound differs from the declaration",
                w.name
            ));
        }
        match value {
            Some(v) if v.is_finite() && (v >= 0.0 || report::SIGNED_ROWS.contains(&name)) => {}
            other => problems.push(format!("{}: `{name}` = {other:?}", w.name)),
        }
        if key == "end_to_end" && value == Some(0.0) {
            problems.push(format!("{}: end-to-end `{name}` is 0", w.name));
        }
    }
    problems
}

/// `--check`: every workload at a twentieth of its size, both passes,
/// held against `BENCHMARK.json` in the current directory.
fn check(opts: &Options) -> Result<bool, String> {
    let path = "BENCHMARK.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let declared = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut problems = Vec::new();
    let declared_workloads: Vec<&str> = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared_workloads != ours {
        problems.push(format!(
            "workloads declared {declared_workloads:?}, implemented {ours:?}"
        ));
    }
    if declared.get("run_seconds").and_then(Json::as_f64) != Some(DEFAULT_SECONDS) {
        problems.push(format!(
            "run_seconds differs from the default {DEFAULT_SECONDS}"
        ));
    }
    for w in &WORKLOADS {
        let started = std::time::Instant::now();
        for (key, traced, defs) in [
            ("end_to_end", false, &END_TO_END[..]),
            ("per_layer", true, &PER_LAYER[..]),
        ] {
            let (ok, result) = run_pass(opts, w, traced, &["--tiny"], true)?;
            let Some(result) = result else {
                problems.push(format!("{}: {key} pass printed no result", w.name));
                continue;
            };
            problems.extend(check_declared(&declared, key, defs, &result, w));
            if !ok || result.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{}: {key} pass failed operations", w.name));
            }
            if traced {
                let get = |k: &str| {
                    let value = result.get("metrics")?.get(k)?.get("value")?;
                    value.as_f64()
                };
                let row = |k: &str| get(k).unwrap_or(f64::NAN);
                let gap = row("budget.layers_us_per_batch")
                    + row("budget.unattributed_us_per_batch")
                    - row("budget.e2e_us_per_batch");
                let tolerance = 1e-6 * row("budget.e2e_us_per_batch").abs().max(1.0);
                if gap.is_nan() || gap.abs() > tolerance {
                    problems.push(format!("{}: budget does not sum (gap {gap})", w.name));
                }
            }
        }
        println!("check {}: {:.2} s", w.name, started.elapsed().as_secs_f64());
    }
    for p in &problems {
        println!("check problem: {p}");
    }
    println!(
        "{}",
        if problems.is_empty() {
            "check ok"
        } else {
            "check FAILED"
        }
    );
    Ok(problems.is_empty())
}

/// Creates the directory the runs put their pid-tagged directories in.
fn ensure_root(opts: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&opts.work_root)
        .map_err(|e| format!("{}: {e}", opts.work_root.display()))
}

/// glibc lets its mmap and trim thresholds drift with a process's
/// allocation history, and batch-sized buffers sit right in their range:
/// under the defaults, identical runs of `streamed_bytes` land anywhere
/// between 5 k and 8 k samples/s (spread over ten runs 32 %, above any
/// bound the contract allows), depending on where the thresholds happen
/// to settle. Every process of the benchmark therefore runs with the
/// thresholds held where the dynamic adjustment tops out — 32 MiB, and
/// twice that for trimming — whatever the caller's environment says. The
/// traced pass runs the stream once more under the defaults
/// (`--default-malloc`) and reports that rate next to the pinned one, so
/// what the pin hides — a fresh batch-sized buffer per streamed frame —
/// stays in the report.
const MALLOC_REGIME: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "67108864"),
];

/// Replaces this process with itself under [`MALLOC_REGIME`]; children
/// inherit the environment. Returns only if the environment already
/// holds exactly these values or the exec failed.
fn pin_malloc_regime() -> Result<(), String> {
    use std::os::unix::process::CommandExt;
    if MALLOC_REGIME
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
    {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let err = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_REGIME)
        .exec();
    Err(format!("re-exec under the pinned malloc thresholds: {err}"))
}

fn real_main() -> Result<bool, String> {
    let args = Args::from_env();
    // The roles inherit the allocator regime of the driver that started
    // them.
    match args.value("--role") {
        Some("consumer") => return child::consumer_main(&args).map(|_| true),
        Some("nonshared") => return child::nonshared_main(&args).map(|_| true),
        Some(other) => return Err(format!("unknown role `{other}`")),
        None => {}
    }
    if let Some(paths) = args.values("--compare", 2) {
        let (worse, _) = report::compare(&paths[0], &paths[1])?;
        return Ok(worse == 0);
    }
    if !args.has("--default-malloc") {
        pin_malloc_regime()?;
    }
    let opts = Options::from_args(&args)?;
    let result = if args.has("--check") {
        check(&opts)
    } else if args.has("--all") {
        all(&opts)
    } else if args.has("--workload") {
        single(&opts, &args)
    } else {
        Err(
            "usage: ts-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             | --all | --check | --compare a b"
                .into(),
        )
    };
    // Each run removes its own pid-tagged directory; the root goes too
    // once nothing else (a concurrent run) is left in it.
    let _ = std::fs::remove_dir(&opts.work_root);
    result
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ts-e2e: {e}");
            std::process::exit(2);
        }
    }
}
