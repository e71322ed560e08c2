//! `claims-quick`: the committed scenario documents run the way
//! `repro check` runs them in-process — parse, generate (or fetch) the
//! traces, run the campaign, evaluate the assertions — in passes over
//! all four documents, each pass at its own workload seed.

use std::collections::BTreeSet;
use std::time::Instant;

use strex::campaign::CampaignResult;
use strex::scenario::{AssertionOutcome, EvaluatorRegistry, Scenario};
use strex::sched::registry::SchedulerRegistry;
use strex_oltp::workload::Workload;

use crate::layers::{self, Accounting, WireCost, SPLITS};
use crate::trace::{self, timing_registry, Tracer};
use crate::{derive_seed, stats, Ctx, Pass, Run, COMMITTED_SEED};

/// The committed documents this workload runs, in this order. Listed by
/// name so that a scenario added later does not change the workload.
const FILES: [&str; 4] = [
    "missrate_windows.json",
    "strex_l1i_reduction.json",
    "team_size_scaling.json",
    "throughput_bounds.json",
];

/// Assertions across the committed documents; all pass on the committed
/// seed.
const COMMITTED_ASSERTIONS: usize = 17;

/// Events of the quick matrix (every workload x the four schedulers x 2
/// and 4 cores, pool 30) on the committed seed: 8 cells per workload.
const QUICK_MATRIX_EVENTS: u64 = 18_392_560;

/// Workload seeds a run cycles through, one per pass, derived from the
/// run's seed. Each pass is then a fresh sample of the same input
/// distribution: at 30 transactions a pool's size swings by about a
/// fifth from one seed to the next, and a run's medians must not hang
/// on one draw.
const SEEDS: u64 = 12;

/// Set-up repetitions (each generates every seed's pools).
const SETUPS: usize = 3;

/// The committed documents with every matrix seed replaced by `seed`, as
/// the JSON text the workload's jobs parse.
fn documents(seed: u64) -> Result<Vec<(String, String)>, String> {
    FILES
        .iter()
        .map(|file| {
            let path = format!("scenarios/{file}");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut s = Scenario::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            s.matrix.seed = seed;
            Ok((s.name.clone(), s.to_json()))
        })
        .collect()
}

/// The trace pools `docs` need, generated directly (`cached == false`)
/// or through the process-wide cache the jobs will hit.
fn generate<'a>(
    docs: impl IntoIterator<Item = &'a (String, String)>,
    cached: bool,
) -> Result<(), String> {
    let mut done = BTreeSet::new();
    for (_, text) in docs {
        let s = Scenario::from_json(text).map_err(|e| e.to_string())?;
        if cached {
            s.workloads();
            continue;
        }
        let m = &s.matrix;
        for name in &m.workloads {
            if !done.insert((name.clone(), m.pool, m.seed, m.small)) {
                continue;
            }
            let kind = layers::workload_kind(name)?;
            let w = if m.small {
                Workload::preset_small(kind, m.pool, m.seed)
            } else {
                Workload::preset(kind, m.pool, m.seed)
            };
            std::hint::black_box(w);
        }
    }
    Ok(())
}

struct Job {
    name: String,
    result: CampaignResult,
    outcomes: Vec<AssertionOutcome>,
    campaign_span: Option<u64>,
    parse_s: f64,
    evaluate_s: f64,
}

/// One scenario document from text to verdicts, as `repro check` runs
/// it: parse, fetch the trace pools, run the campaign (on the timing
/// registry when traced), evaluate.
fn job(
    text: &str,
    evaluators: &EvaluatorRegistry,
    traced: Option<(&Tracer, &SchedulerRegistry)>,
    parent: Option<u64>,
    job_id: u64,
) -> Result<Job, String> {
    let tracer = traced.map(|(t, _)| t);
    trace::span(tracer, "scenario.job", "", parent, job_id, |id| {
        let t = Instant::now();
        let s = trace::span(tracer, "scenario.parse", "", id, job_id, |_| {
            Scenario::from_json(text)
        })
        .map_err(|e| e.to_string())?;
        let parse_s = t.elapsed().as_secs_f64();
        let workloads = trace::span(tracer, "oltp.workloads", &s.name, id, job_id, |_| {
            s.workloads()
        });
        let mut campaign_span = None;
        let result = trace::span(tracer, "campaign.run", &s.name, id, job_id, |span| {
            let campaign = s.campaign(&workloads);
            match (traced, span) {
                (Some((t, reg)), Some(span)) => {
                    campaign_span = Some(span);
                    t.set_cell_parent(span, job_id);
                    campaign.run_on(reg)
                }
                _ => campaign.run(),
            }
        })
        .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcomes = trace::span(tracer, "scenario.evaluate", &s.name, id, job_id, |_| {
            s.evaluate(&result, evaluators)
        })
        .map_err(|e| e.to_string())?;
        Ok(Job {
            name: s.name.clone(),
            result,
            outcomes,
            campaign_span,
            parse_s,
            evaluate_s: t.elapsed().as_secs_f64(),
        })
    })
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let seeds: Vec<u64> = (0..SEEDS).map(|k| derive_seed(ctx.seed, k)).collect();
    let mut gen_s = Vec::new();
    let (docs, setup) = ctx.setup(
        SETUPS,
        |last| {
            let docs = seeds
                .iter()
                .map(|&s| documents(s))
                .collect::<Result<Vec<_>, _>>()?;
            let t = Instant::now();
            // The kept set-up goes through the cache; the others generate
            // the same pools directly, since the cache cannot be emptied.
            generate(docs.iter().flatten(), last)?;
            gen_s.push(t.elapsed().as_secs_f64());
            Ok(docs)
        },
        |_| Ok(()),
    )?;
    let evaluators = EvaluatorRegistry::with_defaults();
    let timing = ctx.tracer.as_ref().map(timing_registry);

    let mut run = Run {
        setup,
        ..Run::default()
    };
    let mut traced_jobs: Vec<Job> = Vec::new();
    let mut parse_s = Vec::new();
    let mut evaluate_s = Vec::new();
    let (passes, rss) = ctx.measure(|pass_no, tracer| {
        // A traced run pairs a traced and an untraced pass on each seed,
        // so the two differ only by the tracing.
        let sample = if ctx.tracer.is_some() {
            pass_no / 2
        } else {
            pass_no
        };
        let k = sample % SEEDS as usize;
        let traced = tracer.map(|t| &**t).zip(timing.as_ref());
        let root = tracer.map(|t| t.start("pass", "claims-quick", None, pass_no as u64));
        let root_id = root.as_ref().map(|r| r.id());
        let meter = ctx.meter();
        let mut jobs = Vec::new();
        let mut times = Vec::new();
        let mut errors = Vec::new();
        for (i, (name, text)) in docs[k].iter().enumerate() {
            let job_id = (pass_no * docs[k].len() + i) as u64;
            let t = Instant::now();
            let outcome = job(text, &evaluators, traced, root_id, job_id);
            times.push(t.elapsed().as_secs_f64());
            match outcome {
                Ok(j) => jobs.push(j),
                Err(e) => errors.push(format!("{name}: {e}")),
            }
        }
        if let (Some(t), Some(r)) = (tracer, root) {
            t.end(r, 0);
        }
        let (wall_s, cpu_s, ref_s) = meter.finish();

        let events = jobs.iter().map(|j| j.result.perf().total_events).sum();
        check_pass(seeds[k], &jobs, errors, &mut run);
        if tracer.is_some() {
            parse_s.extend(jobs.iter().map(|j| j.parse_s));
            evaluate_s.extend(jobs.iter().map(|j| j.evaluate_s));
            if traced_jobs.is_empty() {
                traced_jobs = jobs;
            }
        }
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

    if let Some(tracer) = &ctx.tracer {
        let spans = tracer.spans();
        let mut acc = Accounting::default();
        let mut wires: Vec<WireCost> = Vec::new();
        for job in &traced_jobs {
            acc.add(None, &job.result, &spans, job.campaign_span);
            let shards = layers::shards_of(&job.result, SPLITS[1]);
            match layers::wire_cost(&shards, &job.result.to_json()) {
                Ok(w) => wires.push(w),
                Err(e) => run.problems.push(format!("{}: {e}", job.name)),
            }
        }
        let l = &mut run.layers;
        l.put("oltp.gen_s", stats::median(&gen_s).unwrap_or(0.0), "s");
        acc.put(l, &spans);
        layers::put_wire(l, &wires);
        l.put(
            "scenario.parse_s",
            stats::median(&parse_s).unwrap_or(0.0),
            "s",
        );
        l.put(
            "scenario.evaluate_s",
            stats::median(&evaluate_s).unwrap_or(0.0),
            "s",
        );
    }
    Ok(run)
}

/// Checks one pass's outputs, made at workload seed `seed`, and records
/// each job as an operation.
fn check_pass(seed: u64, jobs: &[Job], errors: Vec<String>, run: &mut Run) {
    if run.notes.is_empty() {
        let outcomes = jobs.iter().flat_map(|j| &j.outcomes);
        let passed = outcomes.clone().filter(|o| o.passed).count();
        run.notes.push(format!(
            "assertion verdicts ({}): {passed} of {} passed",
            if seed == COMMITTED_SEED {
                "judged"
            } else {
                "reported, not judged"
            },
            outcomes.count()
        ));
    }
    for e in errors {
        run.op(vec![e]);
    }
    // Checks on the pass as a whole fail every job in it.
    let mut pass_problems = Vec::new();
    match layers::events_per_workload(jobs.iter().map(|j| &j.result)) {
        Err(e) => pass_problems.push(e),
        Ok(per_workload) if seed == COMMITTED_SEED => {
            let total: u64 = per_workload.values().map(|n| n * 8).sum();
            if per_workload.len() != 4 || total != QUICK_MATRIX_EVENTS {
                pass_problems.push(format!(
                    "quick-matrix total is {total} over {} workloads, expected {QUICK_MATRIX_EVENTS} over 4",
                    per_workload.len()
                ));
            }
        }
        Ok(_) => {}
    }
    let assertions: usize = jobs.iter().map(|j| j.outcomes.len()).sum();
    if seed == COMMITTED_SEED && assertions != COMMITTED_ASSERTIONS {
        pass_problems.push(format!(
            "{assertions} assertions evaluated, expected {COMMITTED_ASSERTIONS}"
        ));
    }
    for job in jobs {
        let mut problems = pass_problems.clone();
        if let Err(e) = layers::events_per_workload([&job.result]) {
            problems.push(format!("{}: {e}", job.name));
        }
        // Verdicts count only on the committed seed; on a held-out seed
        // they are reported, not judged.
        if seed == COMMITTED_SEED {
            for o in job.outcomes.iter().filter(|o| !o.passed) {
                problems.push(format!("{}: {o}", job.name));
            }
        }
        run.op(problems);
    }
}
