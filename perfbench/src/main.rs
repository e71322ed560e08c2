//! The STREX reproduction's benchmark: runs one named workload from a
//! seed as a closed loop, checks every output, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`), with a
//! JSON summary as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload claims-quick --seed 20130624 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: `claims-quick` reads the committed
//! `scenarios/`, and spans and scratch journals go to `.perfbench-out/`.
//! See `perfbench/README.md` for the workloads and metrics.

mod claims;
mod fleet;
mod layers;
mod metrics;
mod paper;
mod reference;
mod stats;
mod trace;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use strex::json::JsonWriter;

use crate::metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::Tracer;

/// The seed every committed input uses (`scenarios/*.json` and the
/// experiment harness). Exact-count and assertion checks apply on it.
pub const COMMITTED_SEED: u64 = strex_bench::experiments::SEED;

/// Where spans and scratch journals go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

/// The `k`th workload seed of a run at `seed`: `seed` itself first, then
/// seeds drawn from it, so a held-out `--seed` gives held-out inputs
/// throughout and the committed seed's first pass uses the committed
/// inputs.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// Passes after which the peak resident set is read.
const RSS_PASSES: usize = 3;

/// What every workload is given.
pub struct Ctx {
    /// Process start, for the first set-up's time.
    pub started: Instant,
    pub seed: u64,
    /// How long the measured phase runs (whole passes; at least one, two
    /// when tracing).
    pub seconds: f64,
    /// Present for `--trace 1`.
    pub tracer: Option<Arc<Tracer>>,
    pub out_dir: PathBuf,
    /// The latest reference kernel time (see [`Meter`]).
    last_ref: Cell<f64>,
}

/// Times one pass in wall and CPU seconds. It samples the reference
/// kernel when the pass ends and at each [`Meter::checkpoint`] inside it,
/// scales each segment's CPU time by the mean of the samples at its two
/// ends, and leaves the sampling out of both times.
pub struct Meter<'a> {
    ctx: &'a Ctx,
    start: Instant,
    sampling_wall_s: f64,
    /// Process CPU time at the current segment's start.
    segment_start: f64,
    cpu_s: f64,
    scaled_s: f64,
}

impl Meter<'_> {
    /// Ends the current segment and starts the next.
    pub fn checkpoint(&mut self) {
        let end = process_cpu_s();
        let t = Instant::now();
        let sample = reference::sample();
        let before = self.ctx.last_ref.replace(sample);
        self.sampling_wall_s += t.elapsed().as_secs_f64();
        let cpu = end - self.segment_start;
        self.cpu_s += cpu;
        self.scaled_s += scaled(cpu, (before + sample) / 2.0);
        self.segment_start = process_cpu_s();
    }

    /// Ends the pass. Returns its wall and CPU seconds, and the single
    /// reference time that scales the CPU seconds as the segments did.
    pub fn finish(mut self) -> (f64, f64, f64) {
        self.checkpoint();
        let wall_s = self.start.elapsed().as_secs_f64() - self.sampling_wall_s;
        let ref_s = self.cpu_s * reference::NOMINAL_S / self.scaled_s;
        (wall_s, self.cpu_s, ref_s)
    }
}

/// One pass of a workload's closed loop.
pub struct Pass {
    /// Whether spans were recorded and cells timed.
    pub traced: bool,
    /// The pass's root span, when traced.
    pub root: Option<u64>,
    pub wall_s: f64,
    /// CPU time every thread of the process spent over the pass, the
    /// reference kernel's sampling left out (see [`Meter`]).
    pub cpu_s: f64,
    /// The reference kernel's time around the pass (see [`Meter`]).
    pub ref_s: f64,
    /// Events simulated during the pass.
    pub events: u64,
    /// Latency of each job the pass completed.
    pub jobs: Vec<f64>,
}

/// How long each set-up repetition took, in process CPU seconds (see
/// [`process_cpu_s`]) and in wall seconds, and the reference kernel's
/// time sampled just after each.
#[derive(Default)]
pub struct Setups {
    pub cpu_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub ref_s: Vec<f64>,
}

/// What a workload's run measured and found.
#[derive(Default)]
pub struct Run {
    /// Operations attempted and failed (a failed check fails its
    /// operation).
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The set-up repetitions' times.
    pub setup: Setups,
    pub passes: Vec<Pass>,
    /// Peak resident set after the first passes (see [`Ctx::measure`]).
    pub peak_rss_mib: f64,
    /// Per-layer metrics (traced runs): the declared ones and any that
    /// only this workload has.
    pub layers: Metrics,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Run {
    /// Records one operation and whether its checks passed.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

impl Ctx {
    /// Starts timing a pass.
    pub fn meter(&self) -> Meter<'_> {
        Meter {
            ctx: self,
            start: Instant::now(),
            sampling_wall_s: 0.0,
            segment_start: process_cpu_s(),
            cpu_s: 0.0,
            scaled_s: 0.0,
        }
    }

    /// Runs passes until `seconds` have elapsed (and at least one pass,
    /// or two when tracing, so a traced run also measures an untraced
    /// pass). Traced runs mix traced and untraced passes in pairs.
    ///
    /// Also returns the peak resident set after the first [`RSS_PASSES`]
    /// passes, so the figure covers a fixed amount of work however fast
    /// the passes run.
    pub fn measure(
        &self,
        mut pass: impl FnMut(usize, Option<&Arc<Tracer>>) -> Pass,
    ) -> Result<(Vec<Pass>, f64), String> {
        let min_passes = if self.tracer.is_some() { 2 } else { 1 };
        let steal = host_steal_s();
        self.last_ref.set(reference::sample());
        let start = Instant::now();
        let mut out: Vec<Pass> = Vec::new();
        let mut rss = None;
        while out.len() < min_passes || start.elapsed().as_secs_f64() < self.seconds {
            // Traced, untraced, untraced, traced, ...: each pair of passes
            // has one of each, and neither always goes first.
            let tracer = self
                .tracer
                .as_ref()
                .filter(|_| matches!(out.len() % 4, 0 | 3));
            let p = pass(out.len(), tracer);
            out.push(p);
            if out.len() == RSS_PASSES {
                rss = Some(peak_rss_mib()?);
            }
        }
        let rss = match rss {
            Some(r) => r,
            None => peak_rss_mib()?,
        };
        if let (Some(before), Some(after)) = (steal, host_steal_s()) {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let share = (after - before) / (start.elapsed().as_secs_f64() * cpus as f64);
            eprintln!(
                "perfbench: host steal during the measured phase: {:.1} % of {cpus} CPUs",
                100.0 * share
            );
        }
        Ok((out, rss))
    }

    /// Times `k` set-up repetitions and returns the last one's state;
    /// `rep` learns whether its state is the one kept. The first
    /// repetition is timed from process start (its CPU time is all the
    /// process has used so far). The others' states go to `discard`,
    /// untimed.
    pub fn setup<T>(
        &self,
        k: usize,
        mut rep: impl FnMut(bool) -> Result<T, String>,
        mut discard: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(T, Setups), String> {
        let mut times = Setups::default();
        for i in 0..k {
            let t = if i == 0 { self.started } else { Instant::now() };
            let cpu = if i == 0 { 0.0 } else { process_cpu_s() };
            let state = rep(i + 1 == k)?;
            times.cpu_s.push(process_cpu_s() - cpu);
            times.wall_s.push(t.elapsed().as_secs_f64());
            times.ref_s.push(reference::sample());
            if i + 1 == k {
                return Ok((state, times));
            }
            discard(state)?;
        }
        Err("no set-up repetitions".to_string())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: COMMITTED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time used so far by every thread of the process, ended ones
/// included, in seconds (`CLOCK_PROCESS_CPUTIME_ID`). The kernel leaves
/// out of it the time the hypervisor gave to other guests (steal).
fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time used so far by the calling thread, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// Reads one of Linux's CPU-time clocks.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time the hypervisor gave other guests while this one wanted it
/// (the `steal` column of `/proc/stat`), in seconds; `None` where the
/// host does not report it.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// CPU seconds scaled to the reference kernel's nominal speed: what they
/// would have been on a host where the kernel, timed at `ref_s`, takes
/// [`reference::NOMINAL_S`].
fn scaled(cpu_s: f64, ref_s: f64) -> f64 {
    cpu_s * reference::NOMINAL_S / ref_s
}

/// The end-to-end metrics, from the untraced passes: the declared ones
/// (simulator throughput per scaled CPU second, scaled set-up CPU time,
/// peak memory), and, printed but not declared, the same figures in
/// unscaled CPU and in wall time, the pass times and job latency.
///
/// Times are CPU times scaled by the reference kernel (see
/// [`reference`]) because both the wall clock and the CPU clock move
/// with other guests' load on a shared host. Pass times are not declared
/// because they also scale with the size of the pools a seed generates,
/// which the per-event rate divides out.
fn end_to_end(run: &Run, notes: &mut Vec<String>) -> Result<Metrics, String> {
    let untraced: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let mut m = Metrics::default();
    let median_of = |f: &dyn Fn(&Pass) -> f64| -> Result<f64, String> {
        let values: Vec<f64> = untraced.iter().map(|p| f(p)).collect();
        stats::median(&values).ok_or_else(|| "no untraced pass".to_string())
    };
    m.put(
        "sim_events_per_ref_s",
        median_of(&|p| p.events as f64 / scaled(p.cpu_s, p.ref_s))?,
        "1/s",
    );
    m.put(
        "sim_events_per_cpu_s",
        median_of(&|p| p.events as f64 / p.cpu_s)?,
        "1/s",
    );
    m.put(
        "sim_events_per_s",
        median_of(&|p| p.events as f64 / p.wall_s)?,
        "1/s",
    );
    m.put("pass_p50_s", median_of(&|p| p.wall_s)?, "s");
    m.put("pass_cpu_p50_s", median_of(&|p| p.cpu_s)?, "s");
    m.put("ref_kernel_cpu_s", median_of(&|p| p.ref_s)?, "s");
    let jobs: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.jobs.iter().copied())
        .collect();
    m.put(
        "job_p50_s",
        stats::percentile(&jobs, 50.0).ok_or("no job completed")?,
        "s",
    );
    let (tail, p) = stats::tail(&jobs).ok_or("no job completed")?;
    m.put("job_tail_s", tail, "s");
    let setup = &run.setup;
    let scaled_setups: Vec<f64> = setup
        .cpu_s
        .iter()
        .zip(&setup.ref_s)
        .map(|(&c, &r)| scaled(c, r))
        .collect();
    m.put(
        "setup_s",
        stats::median(&scaled_setups).ok_or("no set-up")?,
        "s",
    );
    m.put(
        "setup_cpu_s",
        stats::median(&setup.cpu_s).ok_or("no set-up")?,
        "s",
    );
    m.put(
        "setup_wall_s",
        stats::median(&setup.wall_s).ok_or("no set-up")?,
        "s",
    );
    m.put("peak_rss_mib", run.peak_rss_mib, "MiB");
    notes.push(format!(
        "untraced passes (wall s / CPU s / reference kernel s / events): {}",
        untraced
            .iter()
            .map(|p| format!("{:.3}/{:.3}/{:.4}/{}", p.wall_s, p.cpu_s, p.ref_s, p.events))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "samples: {} passes, {} jobs, {} set-ups; job_tail_s is p{p}{}",
        untraced.len(),
        jobs.len(),
        run.setup.cpu_s.len(),
        if stats::tail_percentile(jobs.len()).is_none() {
            " (the maximum: too few jobs for a percentile with ten samples beyond it)"
        } else {
            ""
        }
    ));
    Ok(m)
}

/// Tracing overhead and where each traced pass's wall time went.
fn trace_report(run: &mut Run, tracer: &Tracer, ctx: &Ctx, workload: &str) -> Result<(), String> {
    // Per scaled CPU second, like the declared throughput, so that the
    // host's changing speed does not pass for tracing cost.
    let rate = |traced: bool| {
        let (c, e) = run
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .fold((0.0, 0u64), |(c, e), p| {
                (c + scaled(p.cpu_s, p.ref_s), e + p.events)
            });
        e as f64 / c
    };
    let (traced, untraced) = (rate(true), rate(false));
    run.layers
        .put("trace.events_per_ref_s_traced", traced, "1/s");
    run.layers
        .put("trace.events_per_ref_s_untraced", untraced, "1/s");
    run.layers
        .put("trace.overhead", untraced / traced - 1.0, "ratio");

    let spans = tracer.spans();
    let names: BTreeMap<u64, &str> = spans.iter().map(|s| (s.id, s.name.as_str())).collect();
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut self_sum, mut wall_sum) = (0.0, 0.0);
    for pass in run.passes.iter().filter(|p| p.traced) {
        let root = pass.root.ok_or("a traced pass has no root span")?;
        let times = trace::self_times(&spans, root);
        let root_span = spans
            .iter()
            .find(|s| s.id == root)
            .ok_or("root span missing")?;
        wall_sum += root_span.seconds();
        for (id, t) in times {
            self_sum += t;
            *by_name.entry(names[&id]).or_default() += t;
        }
    }
    run.layers
        .put("trace.self_sum_ratio", self_sum / wall_sum, "ratio");
    if (self_sum / wall_sum - 1.0).abs() > 0.05 {
        run.problems.push(format!(
            "span self times add up to {self_sum:.3} s of {wall_sum:.3} s traced pass time"
        ));
    }
    let mut rows: Vec<(&str, f64)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    run.notes.push(format!(
        "where the time went ({} traced passes, {wall_sum:.3} s; self time, parallel cells share wall time):",
        run.passes.iter().filter(|p| p.traced).count()
    ));
    for (name, t) in rows {
        run.notes.push(format!(
            "  {name:<32} {t:>10.4} s {:>6.1} %",
            100.0 * t / wall_sum
        ));
    }

    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let path = ctx
        .out_dir
        .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    for s in &spans {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("id");
        w.number_u64(s.id);
        w.key("parent");
        match s.parent {
            Some(p) => w.number_u64(p),
            None => w.null(),
        }
        w.key("name");
        w.string(&s.name);
        w.key("label");
        w.string(&s.label);
        w.key("job");
        w.number_u64(s.job);
        w.key("lane");
        w.number_u64(s.lane);
        w.key("start_ns");
        w.number_u64(s.start_ns);
        w.key("end_ns");
        w.number_u64(s.end_ns);
        w.key("count");
        w.number_u64(s.count);
        w.end_object();
        writeln!(file, "{}", w.finish()).map_err(|e| e.to_string())?;
    }
    file.flush().map_err(|e| e.to_string())?;
    run.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        started,
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(|| Arc::new(Tracer::new())),
        out_dir: PathBuf::from(OUT_DIR),
        last_ref: Cell::new(0.0),
    };
    match report(&args, &ctx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn report(args: &Args, ctx: &Ctx) -> Result<(), String> {
    let mut run = match args.workload.as_str() {
        "claims-quick" => claims::run(ctx)?,
        "paper-full" => paper::run(ctx)?,
        "fleet-journal" => fleet::run(ctx)?,
        other => return Err(format!("no workload {other:?}")),
    };
    let mut notes = Vec::new();
    let e2e = end_to_end(&run, &mut notes)?;
    if let Some(tracer) = &ctx.tracer {
        trace_report(&mut run, tracer, ctx, &args.workload)?;
    }
    let cache = strex_oltp::cache::WorkloadCache::stats();
    run.layers
        .put("oltp.cache_hits", cache.hits as f64, "count");
    run.layers
        .put("oltp.cache_misses", cache.misses as f64, "count");

    println!(
        "workload {} seed {} ({}), {} host cores",
        args.workload,
        ctx.seed,
        if ctx.seed == COMMITTED_SEED {
            "committed"
        } else {
            "held out"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in run.notes.iter().chain(&notes) {
        println!("{line}");
    }
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    for (name, value, unit) in e2e.iter() {
        let tag = if declared.contains(&name) {
            "end_to_end"
        } else {
            "reported"
        };
        println!("{tag} {name} = {value} {unit}");
    }
    println!(
        "reported error_rate = {} ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    if ctx.tracer.is_some() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        for (name, value, unit) in run.layers.iter() {
            let tag = if declared.contains(&name) {
                "per_layer"
            } else {
                "layer_only_here"
            };
            println!("{tag} {name} = {value} {unit}");
        }
    }
    for p in run.problems.iter().take(20) {
        println!("FAILED CHECK: {p}");
    }

    let selected = if ctx.tracer.is_some() {
        run.layers.select(&PER_LAYER)?
    } else {
        e2e.select(&END_TO_END)?
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(run.failed == 0 && run.problems.is_empty());
    w.key("attempted");
    w.number_u64(run.attempted);
    w.key("failed");
    w.number_u64(run.failed);
    w.key("metrics");
    w.begin_object();
    for (name, value, unit) in selected {
        w.key(&name);
        w.begin_object();
        w.key("value");
        w.float(value);
        w.key("unit");
        w.string(&unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
    Ok(())
}
