//! In-memory span tracing from the benchmark's own code, and the
//! attribution of a pass's wall time to the spans inside it.
//!
//! Spans are recorded around calls into the library's public functions;
//! per-cell spans come from [`TimingFactory`], which wraps the built-in
//! scheduler factories and is handed to `Campaign::run_on`, so cells are
//! timed inside the real executor on its own worker threads.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use strex::config::SimConfig;
use strex::driver::{self, SimScratch};
use strex::report::Report;
use strex::sched::registry::{self, SchedulerFactory, SchedulerRegistry};
use strex::sched::Scheduler;
use strex_oltp::workload::Workload;
use strex_sim::prefetch::PrefetcherKind;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, never 0.
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `campaign.run` or `driver.cell.strex`.
    pub name: String,
    /// Free-form detail: a cell key, a scenario name.
    pub label: String,
    /// The job (pass, scenario document, submission) the span belongs to.
    pub job: u64,
    /// Host thread the span ran on, numbered in order of first use.
    pub lane: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `>= start_ns`.
    pub end_ns: u64,
    /// A count attached at the boundary (simulated events for a cell).
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder. Spans are appended under a mutex when they end;
/// nothing is written out until the run finishes.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    cell_parent: AtomicU64,
    cell_job: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    label: String,
    job: u64,
    start_ns: u64,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            cell_parent: AtomicU64::new(0),
            cell_job: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span.
    pub fn start(&self, name: &str, label: &str, parent: Option<u64>, job: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            label: label.to_string(),
            job,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` on the calling thread, attaching `count`.
    pub fn end(&self, open: Open, count: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            label: open.label,
            job: open.job,
            lane: lane(),
            start_ns: open.start_ns,
            end_ns,
            count,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Makes `parent` (of job `job`) the parent of the cell spans the
    /// [`TimingFactory`] records until the next call. Campaigns run one
    /// at a time, so one slot suffices.
    pub fn set_cell_parent(&self, parent: u64, job: u64) {
        self.cell_parent.store(parent, Ordering::SeqCst);
        self.cell_job.store(job, Ordering::SeqCst);
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Runs `f` inside a span when a tracer is given, passing the span's id
/// (`None` when untraced) so `f` can parent its own spans.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    label: &str,
    parent: Option<u64>,
    job: u64,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let open = t.start(name, label, parent, job);
            let out = f(Some(open.id()));
            t.end(open, 0);
            out
        }
    }
}

/// The cell family a configuration belongs to: its scheduler, or the
/// prefetcher when one is configured (the Figure 6 prefetcher cells run
/// under the baseline scheduler).
fn family(scheduler: &str, config: &SimConfig) -> String {
    match config.system.prefetcher {
        PrefetcherKind::None => scheduler.to_string(),
        PrefetcherKind::NextLine => "nextline".to_string(),
        PrefetcherKind::PifIdeal => "pif".to_string(),
    }
}

/// A built-in scheduler factory that records one `driver.cell.<family>`
/// span per simulation it runs. Results come from the wrapped factory
/// unchanged, so a campaign run through [`timing_registry`] is
/// bit-identical to one run through the global registry.
pub struct TimingFactory {
    inner: &'static dyn SchedulerFactory,
    tracer: Arc<Tracer>,
}

impl SchedulerFactory for TimingFactory {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&self, config: &SimConfig) -> Box<dyn Scheduler> {
        self.inner.create(config)
    }

    fn run_typed(
        &self,
        workload: &Workload,
        config: &SimConfig,
        scratch: &mut SimScratch,
    ) -> Option<Report> {
        let parent = match self.tracer.cell_parent.load(Ordering::SeqCst) {
            0 => None,
            id => Some(id),
        };
        let job = self.tracer.cell_job.load(Ordering::SeqCst);
        let label = format!(
            "{}/{}/c{}/t{}",
            workload.name(),
            self.name(),
            config.system.n_cores,
            config.strex.team_size
        );
        let name = format!("driver.cell.{}", family(self.name(), config));
        let open = self.tracer.start(&name, &label, parent, job);
        let report = self
            .inner
            .run_typed(workload, config, scratch)
            .unwrap_or_else(|| driver::run_with(workload, config, self.create(config).as_mut()));
        let agg = report.stats.aggregate();
        self.tracer.end(open, agg.i_accesses + agg.d_accesses);
        Some(report)
    }
}

/// A registry holding every policy of the global registry, each wrapped
/// in a [`TimingFactory`] recording into `tracer`.
pub fn timing_registry(tracer: &Arc<Tracer>) -> SchedulerRegistry {
    let global = registry::global();
    let mut reg = SchedulerRegistry::empty();
    for name in global.names() {
        let inner = global.get(name).expect("listed names are registered");
        reg.register(Box::new(TimingFactory {
            inner,
            tracer: Arc::clone(tracer),
        }));
    }
    reg
}

/// Wall time attributed to each span of the tree rooted at `root`, in
/// seconds, keyed by span id.
///
/// A span's self time is the part of its interval its children do not
/// cover. Where children overlap — cells running in parallel on the
/// executor's workers — each instant is shared equally among the
/// children active at it, so parallel work is not counted twice and the
/// self times of a tree add up to the root's duration. For children that
/// never overlap this is exactly "duration minus the time covered by
/// children".
pub fn self_times(spans: &[Span], root: u64) -> BTreeMap<u64, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    if let Some(r) = by_id.get(&root) {
        let segments = vec![(r.start_ns, r.end_ns, 1.0)];
        attribute(r, segments, &kids, &mut out);
    }
    out
}

/// `segments` partition (part of) `span`'s interval, each carrying the
/// share of wall time that flows into `span` over it.
fn attribute(
    span: &Span,
    segments: Vec<(u64, u64, f64)>,
    kids: &BTreeMap<u64, Vec<&Span>>,
    out: &mut BTreeMap<u64, f64>,
) {
    let children: &[&Span] = kids.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
    let mut child_segments: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); children.len()];
    let mut own = 0.0;
    for (s, e, w) in segments {
        let mut points = vec![s, e];
        for c in children {
            for t in [c.start_ns, c.end_ns] {
                if t > s && t < e {
                    points.push(t);
                }
            }
        }
        points.sort_unstable();
        points.dedup();
        for pair in points.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let active: Vec<usize> = (0..children.len())
                .filter(|&i| children[i].start_ns <= a && children[i].end_ns >= b)
                .collect();
            if active.is_empty() {
                own += (b - a) as f64 * w;
            } else {
                let share = w / active.len() as f64;
                for i in active {
                    child_segments[i].push((a, b, share));
                }
            }
        }
    }
    out.insert(span.id, own * 1e-9);
    for (c, segs) in children.iter().zip(child_segments) {
        attribute(c, segs, kids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            label: String::new(),
            job: 0,
            lane: 0,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
            count: 0,
        }
    }

    fn total(t: &BTreeMap<u64, f64>) -> f64 {
        t.values().sum()
    }

    #[test]
    fn sequential_children_leave_the_uncovered_remainder() {
        // root 0..10 with children 1..3 and 5..9; child 2 has a grandchild.
        let spans = [
            span(1, None, 0, 10),
            span(2, Some(1), 1, 3),
            span(3, Some(1), 5, 9),
            span(4, Some(3), 6, 7),
        ];
        let t = self_times(&spans, 1);
        assert!((t[&1] - 4.0).abs() < 1e-9);
        assert!((t[&2] - 2.0).abs() < 1e-9);
        assert!((t[&3] - 3.0).abs() < 1e-9);
        assert!((t[&4] - 1.0).abs() < 1e-9);
        assert!((total(&t) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_share_the_overlap() {
        // Two parallel cells 0..6 and 2..8 under a campaign 0..10.
        let spans = [
            span(1, None, 0, 10),
            span(2, Some(1), 0, 6),
            span(3, Some(1), 2, 8),
        ];
        let t = self_times(&spans, 1);
        assert!((t[&1] - 2.0).abs() < 1e-9, "8..10 is uncovered");
        assert!((t[&2] - 4.0).abs() < 1e-9, "0..2 alone, half of 2..6");
        assert!((t[&3] - 4.0).abs() < 1e-9, "half of 2..6, 6..8 alone");
        assert!((total(&t) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_shared_interval_is_split_again_below() {
        // Children 2 and 3 overlap fully; 2's own child covers its
        // first half, so it inherits half-weight time.
        let spans = [
            span(1, None, 0, 4),
            span(2, Some(1), 0, 4),
            span(3, Some(1), 0, 4),
            span(4, Some(2), 0, 2),
        ];
        let t = self_times(&spans, 1);
        assert!((t[&1]).abs() < 1e-9);
        assert!((t[&2] - 1.0).abs() < 1e-9);
        assert!((t[&3] - 2.0).abs() < 1e-9);
        assert!((t[&4] - 1.0).abs() < 1e-9);
        assert!((total(&t) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spans_outside_the_tree_are_ignored() {
        let spans = [
            span(1, None, 0, 2),
            span(2, None, 0, 5),
            span(3, Some(2), 1, 2),
        ];
        let t = self_times(&spans, 1);
        assert_eq!(t.len(), 1);
        assert!((t[&1] - 2.0).abs() < 1e-9);
        assert!(self_times(&spans, 9).is_empty());
    }
}
