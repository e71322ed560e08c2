//! `paper-full`: the full-scale Figure 5/6 matrix, one pass per
//! reproduction.
//!
//! [`fig5_fig6`] declares the same three campaigns as
//! `strex_bench::experiments::fig5_fig6_campaign` — the four schedulers,
//! then the next-line and PIF prefetcher families, over the four
//! workloads at 2 to 16 cores — with two differences the benchmark
//! needs: the workload seed is a parameter, and the campaigns can run on
//! a timing registry. A test pins it to the harness's own function.

use std::sync::Arc;
use std::time::Instant;

use strex::campaign::{Campaign, CampaignResult};
use strex::config::{SchedulerKind, SimConfig};
use strex::error::ConfigError;
use strex::report::Report;
use strex::sched::registry::{self, SchedulerRegistry};
use strex_bench::experiments::{Effort, MatrixRow, MATRIX_POOL};
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::prefetch::PrefetcherKind;

use crate::layers::{self, Accounting, WireCost, SPLITS};
use crate::trace::{self, timing_registry, Tracer};
use crate::{stats, Ctx, Pass, Run, COMMITTED_SEED};

/// Events of the 64 scheduler cells on the committed seed.
const SCHEDULER_MATRIX_EVENTS: u64 = 264_702_768;

/// Set-up repetitions (each generates the four full-scale pools).
const SETUPS: usize = 3;

const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Baseline,
    SchedulerKind::Slicc,
    SchedulerKind::Strex,
    SchedulerKind::Hybrid,
];

const PREFETCHERS: [(PrefetcherKind, &str); 2] = [
    (PrefetcherKind::NextLine, "nextline"),
    (PrefetcherKind::PifIdeal, "pif"),
];

/// One reproduction of Figures 5 and 6.
pub struct Matrix {
    /// The scheduler campaign.
    pub schedulers: CampaignResult,
    /// The prefetcher campaigns, with their family names.
    pub prefetchers: Vec<(&'static str, CampaignResult)>,
    /// The figure's rows.
    pub rows: Vec<MatrixRow>,
    /// Each campaign's span, when traced.
    pub campaign_spans: Vec<Option<u64>>,
}

/// The matrix's workloads at `effort`, through the process-wide cache.
fn workloads(effort: Effort, seed: u64) -> Vec<Arc<Workload>> {
    WorkloadKind::ALL
        .into_iter()
        .map(|wk| effort.workload(wk, MATRIX_POOL, seed))
        .collect()
}

/// Runs the Figure 5/6 matrix at `seed`, fetching its pools through the
/// process-wide cache as the harness does, on `reg` (the global registry
/// when `None`), recording spans under `parent` when traced, and calling
/// `between` between one campaign and the next.
fn fig5_fig6(
    effort: Effort,
    seed: u64,
    reg: Option<&SchedulerRegistry>,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    job: u64,
    between: &mut dyn FnMut(),
) -> Result<Matrix, ConfigError> {
    let reg = reg.unwrap_or_else(|| registry::global());
    let workloads = &workloads(effort, seed);
    let core_counts = effort.core_counts();
    let mut campaign_spans = Vec::new();
    let mut run = |label: &str, campaign: Campaign<'_>| {
        trace::span(tracer, "campaign.run", label, parent, job, |id| {
            if let (Some(t), Some(id)) = (tracer, id) {
                t.set_cell_parent(id, job);
            }
            campaign_spans.push(id);
            campaign.run_on(reg)
        })
    };
    let schedulers = run(
        "schedulers",
        Campaign::new(
            SimConfig::builder()
                .cores(2)
                .scheduler(SchedulerKind::Baseline)
                .build()?,
        )
        .over_schedulers(KINDS)
        .over_workloads(workloads.iter().map(|w| &**w))
        .over_cores(core_counts.iter().copied()),
    )?;
    let mut prefetchers = Vec::new();
    for (pf, family) in PREFETCHERS {
        between();
        let base = SimConfig::builder().cores(2).prefetcher(pf).build()?;
        let result = run(
            family,
            Campaign::new(base)
                .over_workloads(workloads.iter().map(|w| &**w))
                .over_cores(core_counts.iter().copied()),
        )?;
        prefetchers.push((family, result));
    }
    let rows = trace::span(tracer, "experiments.rows", "fig5_fig6", parent, job, |_| {
        rows(&schedulers, &prefetchers, workloads, &core_counts)
    });
    Ok(Matrix {
        schedulers,
        prefetchers,
        rows,
        campaign_spans,
    })
}

fn rows(
    schedulers: &CampaignResult,
    prefetchers: &[(&'static str, CampaignResult)],
    workloads: &[Arc<Workload>],
    core_counts: &[usize],
) -> Vec<MatrixRow> {
    let mut rows = Vec::new();
    for (wk, w) in WorkloadKind::ALL.into_iter().zip(workloads) {
        let base2 = schedulers
            .report(w.name(), SchedulerKind::Baseline.key(), 2)
            .expect("2-core baseline is part of the matrix");
        for &cores in core_counts {
            let mut push = |technique: String, r: &Report| {
                rows.push(MatrixRow {
                    workload: wk.name(),
                    cores,
                    technique,
                    i_mpki: r.i_mpki(),
                    d_mpki: r.d_mpki(),
                    rel_throughput: r.relative_throughput(base2),
                });
            };
            for kind in KINDS {
                let r = schedulers
                    .report(w.name(), kind.key(), cores)
                    .expect("every scheduler cell ran");
                push(format!("{kind}"), r);
            }
            for ((pf, _), (_, matrix)) in PREFETCHERS.iter().zip(prefetchers) {
                let r = matrix
                    .report(w.name(), SchedulerKind::Baseline.key(), cores)
                    .expect("every prefetcher cell ran");
                push(format!("{pf}"), r);
            }
        }
    }
    rows
}

impl Matrix {
    fn results(&self) -> impl Iterator<Item = (Option<&'static str>, &CampaignResult)> {
        std::iter::once((None, &self.schedulers))
            .chain(self.prefetchers.iter().map(|(f, r)| (Some(*f), r)))
    }

    fn events(&self) -> u64 {
        self.results().map(|(_, r)| r.perf().total_events).sum()
    }
}

/// Checks one pass's outputs.
fn check(seed: u64, m: &Matrix, core_counts: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = layers::events_per_workload(m.results().map(|(_, r)| r)) {
        problems.push(e);
    }
    let expected_rows = WorkloadKind::ALL.len() * core_counts * (KINDS.len() + PREFETCHERS.len());
    if m.rows.len() != expected_rows {
        problems.push(format!(
            "{} figure rows, expected {expected_rows}",
            m.rows.len()
        ));
    }
    if seed == COMMITTED_SEED && m.schedulers.perf().total_events != SCHEDULER_MATRIX_EVENTS {
        problems.push(format!(
            "scheduler matrix simulated {} events, expected {SCHEDULER_MATRIX_EVENTS}",
            m.schedulers.perf().total_events
        ));
    }
    problems
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let effort = Effort::Full;
    let mut gen_s = Vec::new();
    let (_, setup) = ctx.setup(
        SETUPS,
        |last| {
            let t = Instant::now();
            // The kept set-up fills the cache the passes read; the others
            // generate the same pools directly and drop them, so at most one
            // copy is alive at a time.
            if last {
                workloads(effort, ctx.seed);
            } else {
                for wk in WorkloadKind::ALL {
                    std::hint::black_box(Workload::preset(wk, MATRIX_POOL, ctx.seed));
                }
            }
            gen_s.push(t.elapsed().as_secs_f64());
            Ok(())
        },
        |_| Ok(()),
    )?;
    let timing = ctx.tracer.as_ref().map(timing_registry);
    let mut run = Run {
        setup,
        ..Run::default()
    };
    let mut traced: Option<Matrix> = None;
    let core_counts = effort.core_counts().len();
    let (passes, rss) = ctx.measure(|pass_no, tracer| {
        let job = pass_no as u64;
        let root = tracer.map(|t| t.start("pass", "paper-full", None, job));
        let root_id = root.as_ref().map(|r| r.id());
        let mut meter = ctx.meter();
        let reg = tracer.and(timing.as_ref());
        // A pass is half a minute, so the reference kernel is also sampled
        // between its campaigns.
        let m = fig5_fig6(
            effort,
            ctx.seed,
            reg,
            tracer.map(|t| &**t),
            root_id,
            job,
            &mut || meter.checkpoint(),
        );
        if let (Some(t), Some(r)) = (tracer, root) {
            t.end(r, 0);
        }
        let (wall_s, cpu_s, ref_s) = meter.finish();
        let events = match m {
            Ok(m) => {
                run.op(check(ctx.seed, &m, core_counts));
                let events = m.events();
                if tracer.is_some() && traced.is_none() {
                    traced = Some(m);
                }
                events
            }
            Err(e) => {
                run.op(vec![e.to_string()]);
                0
            }
        };
        Pass {
            traced: tracer.is_some(),
            root: root_id,
            wall_s,
            cpu_s,
            ref_s,
            events,
            jobs: vec![wall_s],
        }
    })?;
    run.passes = passes;
    run.peak_rss_mib = rss;

    if let (Some(tracer), Some(m)) = (&ctx.tracer, &traced) {
        let spans = tracer.spans();
        let mut acc = Accounting::default();
        let mut wire = WireCost::default();
        for ((family, result), &span) in m.results().zip(&m.campaign_spans) {
            acc.add(family, result, &spans, span);
            let shards = layers::shards_of(result, SPLITS[1]);
            match layers::wire_cost(&shards, &result.to_json()) {
                Ok(w) => wire = wire.plus(&w),
                Err(e) => run.problems.push(e),
            }
        }
        let l = &mut run.layers;
        l.put("oltp.gen_s", stats::median(&gen_s).unwrap_or(0.0), "s");
        acc.put(l, &spans);
        layers::put_wire(l, &[wire]);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex_bench::experiments::{fig5_fig6_campaign, SEED};

    fn same_rows(a: &[MatrixRow], b: &[MatrixRow]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (x.workload, x.cores, &x.technique),
                (y.workload, y.cores, &y.technique)
            );
            assert_eq!(x.i_mpki.to_bits(), y.i_mpki.to_bits());
            assert_eq!(x.d_mpki.to_bits(), y.d_mpki.to_bits());
            assert_eq!(x.rel_throughput.to_bits(), y.rel_throughput.to_bits());
        }
    }

    #[test]
    fn matrix_matches_the_harness_and_the_timing_registry() {
        let ((_, harness_rows), harness) = fig5_fig6_campaign(Effort::Quick);
        let plain = fig5_fig6(Effort::Quick, SEED, None, None, None, 0, &mut || {}).expect("valid");
        assert_eq!(plain.schedulers.to_json(), harness.to_json());
        same_rows(&plain.rows, &harness_rows);

        // The timing wrapper gives bit-identical results on every cell
        // family, and times every cell.
        let tracer = Arc::new(Tracer::new());
        let reg = timing_registry(&tracer);
        let timed = fig5_fig6(
            Effort::Quick,
            SEED,
            Some(&reg),
            Some(&tracer),
            None,
            0,
            &mut || {},
        )
        .expect("valid");
        for ((_, a), (_, b)) in plain.results().zip(timed.results()) {
            assert_eq!(a.to_json(), b.to_json());
        }
        same_rows(&plain.rows, &timed.rows);
        let cells = tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("driver.cell."))
            .count();
        let expected: usize = plain.results().map(|(_, r)| r.len()).sum();
        assert_eq!(cells, expected);
    }
}
