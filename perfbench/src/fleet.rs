//! `fleet-journal`: scenario submissions through an in-process,
//! journal-backed coordinator with two workers.
//!
//! One submitter sends a seeded sequence of distinct quick-sized
//! scenario documents, each split into more shards than there are
//! workers, and waits for each merged result. Every fourth submission
//! repeats an earlier document, so it takes the idempotent-key replay
//! path and simulates nothing. After the measured phase every result is
//! compared byte for byte with an in-process run of its document.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strex::campaign::{CampaignResult, CampaignShard};
use strex::dispatch::{
    client, job_key, replay_journal_file, run_worker, DispatchConfig, DispatchError, JobSpec,
    Journal, Message, ServeOptions, ServeSummary, Server, SystemClock, WorkerOptions,
    WorkerSummary,
};
use strex::scenario::{AssertionOutcome, EvaluatorRegistry, Scenario};
use strex_oltp::workload::Workload;

use crate::layers::{self, Accounting, WireCost};
use crate::trace::{self, timing_registry, Tracer};
use crate::{derive_seed, stats, Ctx, Pass, Run};

/// Shards per job: several per worker, so the two workers balance a
/// job between them by pulling shards as they finish.
const SHARDS: usize = 8;
const WORKERS: usize = 2;
/// Submissions per pass: three fresh documents, then one resubmission.
const CYCLE: usize = 4;
/// Set-up repetitions (each binds a coordinator and registers both
/// workers).
const SETUPS: usize = 7;

/// The workloads every fleet document runs: one TPC-C and the TPC-E
/// mix, with MapReduce as the non-OLTP contrast, as in the committed
/// scenarios. TPC-C-10 is left out: at 30 transactions its pools move
/// with TPC-C-1's from seed to seed, and two of them would double the
/// document-to-document swing in work.
const DOC_WORKLOADS: [&str; 3] = ["TPC-C-1", "TPC-E", "MapReduce"];

/// The `index`th fresh document of the sequence `seed` selects: the
/// three workloads (pool 30, scaled databases) under baseline, STREX
/// and SLICC at 2 and 4 cores — 18 cells — with two assertions.
/// Documents differ only in their workload seed, so every one costs
/// about the same: the first uses `seed` itself, the rest draw fresh
/// seeds from it.
fn document(seed: u64, index: u64) -> String {
    let doc_seed = derive_seed(seed, index);
    let [a, b, c] = DOC_WORKLOADS;
    let cell = |w: &str, s: &str, cores: u32| {
        format!("{{\"workload\": \"{w}\", \"scheduler\": \"{s}\", \"cores\": {cores}}}")
    };
    format!(
        r#"{{
    "name": "fleet-{seed}-{index}",
    "matrix": {{
        "workloads": ["{a}", "{b}", "{c}"],
        "pool": 30,
        "seed": {doc_seed},
        "small": true,
        "schedulers": ["baseline", "strex", "slicc"],
        "cores": [2, 4]
    }},
    "assertions": [
        {{"kind": "reduction_at_least", "metric": "i_mpki", "from": {}, "to": {}, "min_percent": 25.0}},
        {{"kind": "ratio_at_least", "metric": "i_mpki", "numerator": {}, "denominator": {}, "min": 1.0}}
    ]
}}"#,
        cell(a, "baseline", 4),
        cell(a, "strex", 4),
        cell(b, "baseline", 2),
        cell(b, "slicc", 2),
    )
}

/// A coordinator serving on a loopback port with a journal, and its two
/// workers, all on threads of this process.
struct Fleet {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Result<ServeSummary, DispatchError>>,
    workers: Vec<JoinHandle<Result<WorkerSummary, DispatchError>>>,
}

impl Fleet {
    fn start(journal: &Path) -> Result<Fleet, String> {
        match std::fs::remove_file(journal) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
            _ => {}
        }
        // One closed-loop submitter sends a few jobs a second; the
        // limiter stays on but never refuses it.
        let cfg = DispatchConfig {
            submit_refill_ms: 10,
            ..DispatchConfig::default()
        };
        let server = Server::bind(
            "127.0.0.1:0",
            cfg,
            strex_bench::perf::dispatch_catalog(),
            Arc::new(SystemClock::new()),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            journal: Some(journal.to_path_buf()),
            stop: Some(Arc::clone(&stop)),
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || server.run(opts));
        let workers = (0..WORKERS)
            .map(|i| {
                std::thread::spawn(move || {
                    let opts = WorkerOptions {
                        name: format!("perfbench-{i}"),
                        ..WorkerOptions::default()
                    };
                    run_worker(addr, &opts, &mut strex_bench::perf::dispatch_runner())
                })
            })
            .collect();
        let fleet = Fleet {
            addr,
            stop,
            server,
            workers,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client::status(addr) {
                Ok(r) if r.workers.len() == WORKERS => return Ok(fleet),
                _ if Instant::now() > deadline => {
                    let _ = fleet.stop();
                    return Err("workers did not register within 30 s".to_string());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Stops the coordinator and waits for every thread.
    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        let served = self.server.join().map_err(|_| "coordinator panicked")?;
        let mut problems = Vec::new();
        if let Err(e) = served {
            problems.push(format!("coordinator: {e}"));
        }
        for w in self.workers {
            // A worker's connection closing under it is how a stopped
            // coordinator ends it.
            match w.join() {
                Ok(Ok(_)) | Ok(Err(DispatchError::Io(_))) | Ok(Err(DispatchError::Proto(_))) => {}
                Ok(Err(e)) => problems.push(format!("worker: {e}")),
                Err(_) => problems.push("worker panicked".to_string()),
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// What one submission returned.
struct Answer {
    result: CampaignResult,
    outcomes: Vec<AssertionOutcome>,
}

struct Fresh {
    scenario: Scenario,
    answer: Result<Answer, String>,
    latency: f64,
    parse_s: f64,
    pass_no: usize,
}

struct Replay {
    of: usize,
    answer: Result<Answer, String>,
    latency: f64,
}

fn submit(
    addr: SocketAddr,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    job: u64,
    text: &str,
) -> (Result<(Scenario, Answer), String>, f64, f64) {
    let t0 = Instant::now();
    let mut parse_s = 0.0;
    let out = trace::span(tracer, "dispatch.job", "", parent, job, |id| {
        let t = Instant::now();
        let s = trace::span(tracer, "scenario.parse", "", id, job, |_| {
            Scenario::from_json(text)
        })
        .map_err(|e| e.to_string())?;
        parse_s = t.elapsed().as_secs_f64();
        let (result, outcomes) = trace::span(tracer, "dispatch.submit", &s.name, id, job, |_| {
            client::submit_scenario(addr, &s, SHARDS)
        })
        .map_err(|e| e.to_string())?;
        Ok((s, Answer { result, outcomes }))
    });
    (out, t0.elapsed().as_secs_f64(), parse_s)
}

fn outcome_text(outcomes: &[AssertionOutcome]) -> Vec<String> {
    outcomes.iter().map(AssertionOutcome::to_json).collect()
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
    let pid = std::process::id();
    let journal_of =
        |rep: usize| -> PathBuf { ctx.out_dir.join(format!("journal-{pid}-{rep}.log")) };
    let mut rep = 0;
    let mut stopping = Vec::new();
    let (fleet, setup) = ctx.setup(
        SETUPS,
        |_| {
            rep += 1;
            Fleet::start(&journal_of(rep))
        },
        // Stopping waits out the workers' heartbeat sleep (up to a
        // second), so the discarded fleets stop on their own threads.
        |old| {
            stopping.push(std::thread::spawn(move || old.stop()));
            Ok(())
        },
    )?;
    let journal = journal_of(SETUPS);
    let mut run = Run {
        setup,
        ..Run::default()
    };

    let mut fresh: Vec<Fresh> = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let mut submission = 0u64;
    let (passes, rss) = ctx.measure(|pass_no, tracer| {
        let tr = tracer.map(|t| &**t);
        let root = tr.map(|t| t.start("pass", "fleet-journal", None, pass_no as u64));
        let root_id = root.as_ref().map(|r| r.id());
        let meter = ctx.meter();
        let mut times = Vec::new();
        let mut events = 0;
        for slot in 0..CYCLE {
            if slot + 1 < CYCLE {
                let text = document(ctx.seed, fresh.len() as u64);
                let (answer, latency, parse_s) = submit(fleet.addr, tr, root_id, submission, &text);
                times.push(latency);
                let (scenario, answer) = match answer {
                    Ok((s, a)) => (s, Ok(a)),
                    Err(e) => (
                        Scenario::from_json(&text).expect("generated documents are valid"),
                        Err(e),
                    ),
                };
                if let Ok(a) = &answer {
                    events += a.result.perf().total_events;
                }
                fresh.push(Fresh {
                    scenario,
                    answer,
                    latency,
                    parse_s,
                    pass_no,
                });
            } else {
                let of = (derive_seed(ctx.seed, submission) % fresh.len() as u64) as usize;
                let text = fresh[of].scenario.to_json();
                let (answer, latency, _) = submit(fleet.addr, tr, root_id, submission, &text);
                replays.push(Replay {
                    of,
                    answer: answer.map(|(_, a)| a),
                    latency,
                });
            }
            submission += 1;
        }
        if let (Some(t), Some(r)) = (tr, root) {
            t.end(r, 0);
        }
        let (wall_s, cpu_s, ref_s) = meter.finish();
        Pass {
            traced: tracer.is_some(),
            root: root_id,
            wall_s,
            cpu_s,
            ref_s,
            events,
            jobs: times,
        }
    })?;
    run.passes = passes;
    run.peak_rss_mib = rss;

    let status = client::status(fleet.addr).map_err(|e| format!("status: {e}"))?;
    fleet.stop()?;
    for handle in stopping {
        handle
            .join()
            .map_err(|_| "a fleet panicked while stopping")??;
    }

    // References, after the measured phase: the trace pools are already
    // in the process-wide cache, so generating them first would have
    // taken that work out of the workers' hands.
    let tracer = ctx.tracer.as_ref();
    let timing = tracer.map(timing_registry);
    let evaluators = EvaluatorRegistry::with_defaults();
    let mut references: Vec<Result<(String, Vec<String>), String>> = Vec::new();
    let mut reference_spans = Vec::new();
    let mut evaluate_s = Vec::new();
    for (i, f) in fresh.iter().enumerate() {
        let workloads = f.scenario.workloads();
        let campaign = f.scenario.campaign(&workloads);
        let reference = trace::span(
            tracer.map(|t| &**t),
            "reference.run",
            &f.scenario.name,
            None,
            i as u64,
            |id| {
                reference_spans.push(id);
                match (tracer, &timing) {
                    (Some(t), Some(reg)) => {
                        t.set_cell_parent(id.expect("traced span"), i as u64);
                        campaign.run_on(reg)
                    }
                    _ => campaign.run(),
                }
            },
        );
        let reference = reference.map_err(|e| e.to_string()).and_then(|result| {
            layers::events_per_workload([&result])?;
            let t = Instant::now();
            let outcomes = f
                .scenario
                .evaluate(&result, &evaluators)
                .map_err(|e| e.to_string())?;
            evaluate_s.push(t.elapsed().as_secs_f64());
            Ok((result.to_json(), outcome_text(&outcomes)))
        });
        references.push(reference);
    }
    let judge = |answer: &Result<Answer, String>,
                 reference: &Result<(String, Vec<String>), String>| {
        let mut problems = Vec::new();
        match (answer, reference) {
            (Err(e), _) => problems.push(format!("submission failed: {e}")),
            (_, Err(e)) => problems.push(format!("in-process reference failed: {e}")),
            (Ok(a), Ok((json, outcomes))) => {
                if &a.result.to_json() != json {
                    problems.push("merged result differs from the in-process run".to_string());
                }
                if &outcome_text(&a.outcomes) != outcomes {
                    problems.push(
                        "assertion outcomes differ from the in-process evaluation".to_string(),
                    );
                }
            }
        }
        problems
    };
    let mut passed = (0, 0);
    for (f, reference) in fresh.iter().zip(&references) {
        let problems = judge(&f.answer, reference)
            .into_iter()
            .map(|p| format!("{}: {p}", f.scenario.name))
            .collect();
        run.op(problems);
        if let Ok(a) = &f.answer {
            passed.0 += a.outcomes.iter().filter(|o| o.passed).count();
            passed.1 += a.outcomes.len();
        }
    }
    for r in &replays {
        let problems = judge(&r.answer, &references[r.of])
            .into_iter()
            .map(|p| format!("resubmitted {}: {p}", fresh[r.of].scenario.name))
            .collect();
        run.op(problems);
    }
    run.notes.push(format!(
        "{} fresh jobs, {} resubmissions; assertion verdicts (reported, not judged): {} of {} passed",
        fresh.len(),
        replays.len(),
        passed.0,
        passed.1
    ));

    if let Some(tracer) = tracer {
        layer_metrics(
            &mut run,
            tracer,
            &fresh,
            &replays,
            &reference_spans,
            &journal,
            &status,
        )?;
        let l = &mut run.layers;
        l.put(
            "scenario.evaluate_s",
            stats::median(&evaluate_s).unwrap_or(0.0),
            "s",
        );
    }
    for rep in 1..=SETUPS {
        let _ = std::fs::remove_file(journal_of(rep));
    }
    let _ = std::fs::remove_file(journal.with_extension("append"));
    Ok(run)
}

fn layer_metrics(
    run: &mut Run,
    tracer: &Tracer,
    fresh: &[Fresh],
    replays: &[Replay],
    reference_spans: &[Option<u64>],
    journal: &Path,
    status: &strex::dispatch::StatusReport,
) -> Result<(), String> {
    let entries = replay_journal_file(journal).map_err(|e| format!("journal: {e}"))?;
    let bytes = std::fs::metadata(journal).map_err(|e| e.to_string())?.len();

    // Re-append the run's own records to a scratch journal.
    let scratch = journal.with_extension("append");
    let _ = std::fs::remove_file(&scratch);
    let mut copy = Journal::open_append(&scratch).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for e in &entries {
        copy.append(e.now_ms, e.conn, &e.peer, &e.msg)
            .map_err(|e| e.to_string())?;
    }
    let append_s = t.elapsed().as_secs_f64() / entries.len().max(1) as f64;

    let mut records: BTreeMap<&str, u64> = BTreeMap::new();
    // Per job key: each shard's worker connection and compute time, and
    // the shards themselves (first delivery of each index).
    let mut compute: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    let mut shards: BTreeMap<String, BTreeMap<usize, CampaignShard>> = BTreeMap::new();
    for e in &entries {
        *records.entry(e.msg.type_name()).or_default() += 1;
        if let Message::ShardDone { job, shard } = &e.msg {
            *compute
                .entry(job.clone())
                .or_default()
                .entry(e.conn)
                .or_default() += shard.perf().wall_seconds;
            shards
                .entry(job.clone())
                .or_default()
                .entry(shard.spec().index)
                .or_insert_with(|| shard.clone());
        }
    }

    let mut overhead = Vec::new();
    let mut wires: Vec<WireCost> = Vec::new();
    for f in fresh {
        let Ok(answer) = &f.answer else { continue };
        let key = job_key(
            &JobSpec::Scenario(Arc::new(f.scenario.clone())).canonical(),
            SHARDS,
        );
        // The job's compute critical path: the busiest worker's shards.
        let critical = compute
            .get(&key)
            .map(|per_conn| per_conn.values().copied().fold(0.0, f64::max))
            .unwrap_or(0.0);
        overhead.push(f.latency - critical);
        if let Some(s) = shards.get(&key) {
            let s: Vec<CampaignShard> = s.values().cloned().collect();
            match layers::wire_cost(&s, &answer.result.to_json()) {
                Ok(w) => wires.push(w),
                Err(e) => run
                    .problems
                    .push(format!("{}: journal shards: {e}", f.scenario.name)),
            }
        }
    }

    // Executor, simulator, partition and generation figures for the
    // first pass's documents, from their in-process reference runs.
    let spans = tracer.spans();
    let mut acc = Accounting::default();
    let mut gen_s = Vec::new();
    for (f, &span) in fresh
        .iter()
        .zip(reference_spans)
        .filter(|(f, _)| f.pass_no == 0)
    {
        let Ok(answer) = &f.answer else { continue };
        acc.add(None, &answer.result, &spans, span);
        let m = &f.scenario.matrix;
        let t = Instant::now();
        for name in &m.workloads {
            let kind = layers::workload_kind(name)?;
            std::hint::black_box(Workload::preset_small(kind, m.pool, m.seed));
        }
        gen_s.push(t.elapsed().as_secs_f64());
    }

    let l = &mut run.layers;
    l.put("oltp.gen_s", stats::median(&gen_s).unwrap_or(0.0), "s");
    acc.put(l, &spans);
    layers::put_wire(l, &wires);
    let parse: Vec<f64> = fresh.iter().map(|f| f.parse_s).collect();
    l.put(
        "scenario.parse_s",
        stats::median(&parse).unwrap_or(0.0),
        "s",
    );
    l.put(
        "dispatch.overhead_s",
        stats::median(&overhead).unwrap_or(0.0),
        "s",
    );
    let replay: Vec<f64> = replays.iter().map(|r| r.latency).collect();
    l.put(
        "dispatch.replay_s",
        stats::median(&replay).unwrap_or(0.0),
        "s",
    );
    for kind in ["submit", "shard_done", "checkpoint"] {
        let n = records.get(kind).copied().unwrap_or(0);
        l.put(
            format!("dispatch.journal_records.{kind}"),
            n as f64,
            "count",
        );
    }
    l.put("dispatch.journal_bytes", bytes as f64, "bytes");
    l.put("dispatch.journal_append_s", append_s, "s");
    l.put(
        "dispatch.shards_completed",
        status.counters.shards_completed as f64,
        "count",
    );
    l.put(
        "dispatch.rejections",
        status.counters.rejections as f64,
        "count",
    );
    Ok(())
}
