//! Per-layer accounting computed from outside the program: simulated
//! statistics summed over results, the shard partition and wire codecs
//! applied to a job's cells, and executor behaviour read off cell spans.

use std::collections::BTreeMap;
use std::time::Instant;

use strex::campaign::{merge, shard_of, CampaignPerf, CampaignResult, CampaignShard, ShardSpec};
use strex::report::Report;
use strex_oltp::workload::WorkloadKind;

use crate::metrics::Metrics;
use crate::stats;
use crate::trace::Span;

/// The generator kind behind a canonical workload name.
pub fn workload_kind(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// Simulated events of one report: L1-I plus L1-D references.
fn events(report: &Report) -> u64 {
    let agg = report.stats.aggregate();
    agg.i_accesses + agg.d_accesses
}

/// Totals of the modelled hierarchy's statistics over a set of cells.
#[derive(Default, Debug)]
struct SimTotals {
    pub events: u64,
    pub instructions: u64,
    pub l1i_misses: u64,
    pub l1d_misses: u64,
    pub coherence_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub writebacks: u64,
    pub prefetches: u64,
    pub useful_prefetches: u64,
    pub i_stall_cycles: u64,
    pub d_stall_cycles: u64,
    pub makespan_cycles: u64,
    /// Per cell family: (L1-I misses, instructions).
    pub per_family: BTreeMap<String, (u64, u64)>,
    pub context_switches: BTreeMap<String, u64>,
    pub migrations: BTreeMap<String, u64>,
    /// Hybrid cells by the policy they selected.
    pub hybrid_choice: BTreeMap<String, u64>,
}

impl SimTotals {
    /// Adds one cell of `family` (its scheduler, or its prefetcher).
    pub fn add(&mut self, family: &str, r: &Report) {
        let agg = r.stats.aggregate();
        self.events += agg.i_accesses + agg.d_accesses;
        self.instructions += agg.instructions;
        self.l1i_misses += agg.i_misses;
        self.l1d_misses += agg.d_misses;
        self.coherence_misses += agg.d_coherence_misses;
        self.l2_accesses += r.stats.shared.l2_accesses;
        self.l2_misses += r.stats.shared.l2_misses;
        self.writebacks += r.stats.shared.writebacks;
        self.prefetches += agg.prefetches;
        self.useful_prefetches += agg.useful_prefetches;
        self.i_stall_cycles += agg.i_stall_cycles;
        self.d_stall_cycles += agg.d_stall_cycles;
        self.makespan_cycles += r.makespan;
        let f = self.per_family.entry(family.to_string()).or_default();
        f.0 += agg.i_misses;
        f.1 += agg.instructions;
        *self.context_switches.entry(family.to_string()).or_default() += r.context_switches;
        *self.migrations.entry(family.to_string()).or_default() += r.migrations;
        if r.scheduler == "hybrid" {
            let choice = r.hybrid_choice.unwrap_or("baseline").to_ascii_lowercase();
            *self.hybrid_choice.entry(choice).or_default() += 1;
        }
    }

    /// Adds every cell of `result`; `family` overrides the cells'
    /// scheduler as their family (for prefetcher campaigns).
    pub fn add_result(&mut self, family: Option<&str>, result: &CampaignResult) {
        for cell in result.cells() {
            self.add(family.unwrap_or(&cell.key.scheduler), &cell.report);
        }
    }

    /// Instruction misses per kilo-instruction of one family's cells.
    pub fn i_mpki(&self, family: &str) -> Option<f64> {
        let &(misses, instr) = self.per_family.get(family)?;
        (instr > 0).then(|| misses as f64 * 1000.0 / instr as f64)
    }
}

/// Checks that every cell of each workload simulated the same number of
/// events, whatever its scheduler, prefetcher or core count. Returns the
/// per-workload event count, or a description of the first mismatch.
pub fn events_per_workload<'a>(
    results: impl IntoIterator<Item = &'a CampaignResult>,
) -> Result<BTreeMap<String, u64>, String> {
    let mut seen: BTreeMap<String, (u64, String)> = BTreeMap::new();
    for result in results {
        for cell in result.cells() {
            let n = events(&cell.report);
            let key = cell.key.to_string();
            match seen.get(&cell.key.workload) {
                Some((m, first)) if *m != n => {
                    return Err(format!(
                        "cell {key} simulated {n} events but {first} simulated {m}"
                    ));
                }
                Some(_) => {}
                None => {
                    seen.insert(cell.key.workload.clone(), (n, key));
                }
            }
        }
    }
    Ok(seen.into_iter().map(|(w, (n, _))| (w, n)).collect())
}

/// Splits `result` into the `count` shards [`shard_of`] assigns, as the
/// dispatcher would partition the same matrix.
pub fn shards_of(result: &CampaignResult, count: usize) -> Vec<CampaignShard> {
    let mut parts: Vec<Vec<_>> = vec![Vec::new(); count];
    for (i, cell) in result.cells().iter().enumerate() {
        parts[shard_of(&cell.key, count)].push((i, cell.clone()));
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(index, cells)| {
            let total_events = cells.iter().map(|(_, c)| events(&c.report)).sum();
            let perf = CampaignPerf {
                workers: 1,
                wall_seconds: 0.0,
                total_events,
            };
            let spec = ShardSpec::new(index, count).expect("index < count");
            CampaignShard::from_parts(spec, cells, perf).expect("valid spec")
        })
        .collect()
}

/// Events of the largest `shard_of` shard over the mean shard: the
/// slowdown a `count`-way split of `result` would suffer against a
/// perfect split if every event cost the same.
fn shard_balance(result: &CampaignResult, count: usize) -> (f64, f64) {
    let mut per = vec![0u64; count];
    for cell in result.cells() {
        per[shard_of(&cell.key, count)] += events(&cell.report);
    }
    let max = per.iter().copied().max().unwrap_or(0) as f64;
    let mean = per.iter().sum::<u64>() as f64 / count as f64;
    (max, mean)
}

/// What encoding, decoding and merging one job's shards cost.
#[derive(Default, Debug, Clone, Copy)]
pub struct WireCost {
    pub json_encode_s: f64,
    pub json_decode_s: f64,
    pub json_bytes: u64,
    pub bin_encode_s: f64,
    pub bin_decode_s: f64,
    pub bin_bytes: u64,
    pub merge_s: f64,
}

impl WireCost {
    /// The cost of two jobs' worth of shards together.
    pub fn plus(&self, o: &WireCost) -> WireCost {
        WireCost {
            json_encode_s: self.json_encode_s + o.json_encode_s,
            json_decode_s: self.json_decode_s + o.json_decode_s,
            json_bytes: self.json_bytes + o.json_bytes,
            bin_encode_s: self.bin_encode_s + o.bin_encode_s,
            bin_decode_s: self.bin_decode_s + o.bin_decode_s,
            bin_bytes: self.bin_bytes + o.bin_bytes,
            merge_s: self.merge_s + o.merge_s,
        }
    }
}

/// Round-trips every shard through both wire formats and merges them,
/// checking that decoding and merging reproduce `expected` byte for
/// byte.
pub fn wire_cost(shards: &[CampaignShard], expected: &str) -> Result<WireCost, String> {
    let mut c = WireCost::default();
    for shard in shards {
        let t = Instant::now();
        let json = shard.to_json();
        c.json_encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = CampaignShard::from_json(&json).map_err(|e| e.to_string())?;
        c.json_decode_s += t.elapsed().as_secs_f64();
        c.json_bytes += json.len() as u64;
        if back.to_json() != json {
            return Err(format!(
                "shard {} changed in a JSON round trip",
                shard.spec()
            ));
        }
        let t = Instant::now();
        let bin = shard.to_bin();
        c.bin_encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = CampaignShard::from_bin(&bin).map_err(|e| e.to_string())?;
        c.bin_decode_s += t.elapsed().as_secs_f64();
        c.bin_bytes += bin.len() as u64;
        if back.to_bin() != bin {
            return Err(format!(
                "shard {} changed in a binary round trip",
                shard.spec()
            ));
        }
    }
    let owned = shards.to_vec();
    let t = Instant::now();
    let merged = merge(owned).map_err(|e| e.to_string())?;
    c.merge_s = t.elapsed().as_secs_f64();
    if merged.to_json() != expected {
        return Err("merged shards differ from the unsharded result".to_string());
    }
    Ok(c)
}

/// How the campaign executor's workers spent one campaign run, read off
/// its cell spans.
#[derive(Default, Debug, Clone, Copy)]
struct ExecutorUse {
    pub cells: u64,
    pub busy_max_s: f64,
    pub busy_sum_s: f64,
    pub workers: u64,
    /// From the first worker running out of cells to the last cell
    /// ending.
    pub tail_s: f64,
}

impl ExecutorUse {
    /// Reads one campaign run's cell spans (all on the executor's worker
    /// threads).
    pub fn of(cells: &[&Span]) -> ExecutorUse {
        let mut per_lane: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        let mut u = ExecutorUse::default();
        for s in cells {
            let e = per_lane.entry(s.lane).or_default();
            e.0 += s.seconds();
            e.1 = e.1.max(s.end_ns);
        }
        u.cells = cells.len() as u64;
        u.workers = per_lane.len() as u64;
        u.busy_sum_s = per_lane.values().map(|l| l.0).sum();
        u.busy_max_s = per_lane.values().map(|l| l.0).fold(0.0, f64::max);
        let last = per_lane.values().map(|l| l.1).max().unwrap_or(0);
        let first_idle = per_lane.values().map(|l| l.1).min().unwrap_or(0);
        u.tail_s = (last - first_idle) as f64 * 1e-9;
        u
    }

    /// Sums two campaign runs made one after the other.
    pub fn add(&mut self, o: &ExecutorUse) {
        self.cells += o.cells;
        self.busy_max_s += o.busy_max_s;
        self.busy_sum_s += o.busy_sum_s;
        self.workers = self.workers.max(o.workers);
        self.tail_s += o.tail_s;
    }

    /// Mean busy time per worker.
    pub fn busy_mean_s(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.busy_sum_s / self.workers as f64
        }
    }
}

/// Host nanoseconds per simulated event, per cell family, from cell
/// spans.
fn ns_per_event(cells: &[&Span]) -> BTreeMap<String, f64> {
    let mut acc: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in cells {
        let family = s.name.trim_start_matches("driver.cell.").to_string();
        let e = acc.entry(family).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += s.count;
    }
    acc.into_iter()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(f, (ns, n))| (f, ns as f64 / n as f64))
        .collect()
}

/// Shard counts the partition balance is reported for.
pub const SPLITS: [usize; 2] = [2, 4];

/// The per-layer figures of a set of campaign runs: simulated totals,
/// how the executor's workers spent them, the partition balance of their
/// matrices, and host time per event.
#[derive(Default)]
pub struct Accounting {
    sim: SimTotals,
    exec: ExecutorUse,
    balance: [(f64, f64); SPLITS.len()],
}

impl Accounting {
    /// Adds one campaign run: its result (`family` overrides the cells'
    /// scheduler as their family) and the cell spans under its span
    /// `campaign`.
    pub fn add(
        &mut self,
        family: Option<&str>,
        result: &CampaignResult,
        spans: &[Span],
        campaign: Option<u64>,
    ) {
        self.sim.add_result(family, result);
        let cells: Vec<&Span> = spans
            .iter()
            .filter(|s| campaign.is_some() && s.parent == campaign)
            .collect();
        self.exec.add(&ExecutorUse::of(&cells));
        for (b, n) in self.balance.iter_mut().zip(SPLITS) {
            let (max, mean) = shard_balance(result, n);
            b.0 += max;
            b.1 += mean;
        }
    }

    /// Records the figures, with host time per event taken from every
    /// cell span in `spans`.
    pub fn put(&self, m: &mut Metrics, spans: &[Span]) {
        put_sim(m, &self.sim);
        put_executor(m, &self.exec);
        for ((max, mean), n) in self.balance.iter().zip(SPLITS) {
            m.put(format!("campaign.shard_balance.{n}"), max / mean, "ratio");
        }
        let cells: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name.starts_with("driver.cell."))
            .collect();
        put_driver(m, &cells);
    }
}

/// Records the simulated totals: exact counts, identical on every run
/// of a seed.
fn put_sim(m: &mut Metrics, sim: &SimTotals) {
    let counts = [
        ("sim.events", sim.events),
        ("sim.instructions", sim.instructions),
        ("sim.l1i_misses", sim.l1i_misses),
        ("sim.l1d_misses", sim.l1d_misses),
        ("sim.coherence_misses", sim.coherence_misses),
        ("sim.l2_accesses", sim.l2_accesses),
        ("sim.l2_misses", sim.l2_misses),
        ("sim.writebacks", sim.writebacks),
    ];
    for (name, v) in counts {
        m.put(name, v as f64, "count");
    }
    m.put("sim.i_stall_cycles", sim.i_stall_cycles as f64, "cycles");
    m.put("sim.d_stall_cycles", sim.d_stall_cycles as f64, "cycles");
    m.put("sim.makespan_cycles", sim.makespan_cycles as f64, "cycles");
    if sim.prefetches > 0 {
        let accuracy = sim.useful_prefetches as f64 / sim.prefetches as f64;
        m.put("sim.prefetch_accuracy", accuracy, "ratio");
    }
    for family in sim.per_family.keys() {
        if let Some(v) = sim.i_mpki(family) {
            m.put(format!("sim.i_mpki.{family}"), v, "mpki");
        }
    }
    if let Some(&n) = sim.context_switches.get("strex") {
        m.put("sched.context_switches.strex", n as f64, "count");
    }
    if let Some(&n) = sim.migrations.get("slicc") {
        m.put("sched.migrations.slicc", n as f64, "count");
    }
    if !sim.hybrid_choice.is_empty() {
        for choice in ["baseline", "strex", "slicc"] {
            let n = sim.hybrid_choice.get(choice).copied().unwrap_or(0);
            m.put(format!("sched.hybrid_choice.{choice}"), n as f64, "count");
        }
    }
}

/// Records how the executor's workers spent a pass.
fn put_executor(m: &mut Metrics, exec: &ExecutorUse) {
    m.put("campaign.cells", exec.cells as f64, "count");
    m.put("campaign.worker_busy_max_s", exec.busy_max_s, "s");
    m.put("campaign.worker_busy_mean_s", exec.busy_mean_s(), "s");
    m.put(
        "campaign.balance",
        exec.busy_mean_s() / exec.busy_max_s,
        "ratio",
    );
    m.put("campaign.tail_s", exec.tail_s, "s");
}

/// Records the median per-job wire and merge cost.
pub fn put_wire(m: &mut Metrics, wires: &[WireCost]) {
    let mut put = |name: &str, unit: &'static str, field: fn(&WireCost) -> f64| {
        if let Some(v) = stats::median(&wires.iter().map(field).collect::<Vec<_>>()) {
            m.put(name, v, unit);
        }
    };
    put("wire.json_encode_s", "s", |w| w.json_encode_s);
    put("wire.json_decode_s", "s", |w| w.json_decode_s);
    put("wire.json_bytes", "bytes", |w| w.json_bytes as f64);
    put("wire.bin_encode_s", "s", |w| w.bin_encode_s);
    put("wire.bin_decode_s", "s", |w| w.bin_decode_s);
    put("wire.bin_bytes", "bytes", |w| w.bin_bytes as f64);
    put("campaign.merge_s", "s", |w| w.merge_s);
}

/// Records host time per simulated event by cell family, and the
/// slowest cell.
fn put_driver(m: &mut Metrics, cells: &[&Span]) {
    for (family, ns) in ns_per_event(cells) {
        m.put(format!("driver.ns_per_event.{family}"), ns, "ns");
    }
    let max = cells.iter().map(|s| s.seconds()).fold(0.0, f64::max);
    m.put("driver.cell_max_s", max, "s");
}
