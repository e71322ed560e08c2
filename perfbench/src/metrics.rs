//! The benchmark's workload and metric names, and the rules they follow.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! test keeps the two in step and checks them against the naming rules.

use std::collections::BTreeMap;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["claims-quick", "paper-full", "fleet-journal"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_events_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. Layer
/// metrics that exist on one workload only are printed by the traced
/// run but not declared (see the benchmark's README).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("oltp.gen_s", "s"),
    ("oltp.cache_hits", "count"),
    ("oltp.cache_misses", "count"),
    ("campaign.cells", "count"),
    ("campaign.worker_busy_max_s", "s"),
    ("campaign.worker_busy_mean_s", "s"),
    ("campaign.balance", "ratio"),
    ("campaign.tail_s", "s"),
    ("campaign.shard_balance.2", "ratio"),
    ("campaign.shard_balance.4", "ratio"),
    ("campaign.merge_s", "s"),
    ("driver.ns_per_event.baseline", "ns"),
    ("driver.ns_per_event.strex", "ns"),
    ("driver.ns_per_event.slicc", "ns"),
    ("driver.cell_max_s", "s"),
    ("sched.context_switches.strex", "count"),
    ("sched.migrations.slicc", "count"),
    ("sim.events", "count"),
    ("sim.instructions", "count"),
    ("sim.l1i_misses", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.coherence_misses", "count"),
    ("sim.l2_accesses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.writebacks", "count"),
    ("sim.i_stall_cycles", "cycles"),
    ("sim.d_stall_cycles", "cycles"),
    ("sim.makespan_cycles", "cycles"),
    ("sim.i_mpki.baseline", "mpki"),
    ("sim.i_mpki.strex", "mpki"),
    ("sim.i_mpki.slicc", "mpki"),
    ("wire.json_encode_s", "s"),
    ("wire.json_decode_s", "s"),
    ("wire.json_bytes", "bytes"),
    ("wire.bin_encode_s", "s"),
    ("wire.bin_decode_s", "s"),
    ("wire.bin_bytes", "bytes"),
    ("trace.events_per_ref_s_traced", "1/s"),
    ("trace.events_per_ref_s_untraced", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
];

/// Named values with units, in name order.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Every entry, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// The entries named by `declared`, in that order; `Err` names the
    /// first declared metric that is missing, not finite, or carries a
    /// different unit.
    pub fn select(&self, declared: &[(&str, &str)]) -> Result<Vec<(String, f64, String)>, String> {
        declared
            .iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some(&(v, u)) if u == unit && v.is_finite() => {
                    Ok((name.to_string(), v, unit.to_string()))
                }
                Some(&(v, u)) => Err(format!("metric {name} reads {v} {u}, declared in {unit}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex::jsonval::JsonValue;

    /// A workload or metric name: starts with a letter or digit, at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "every metric name is used once");

        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_unit("ms?"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_manifest_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let o = m.as_object().expect("object");
                    let name = o["name"].as_str().expect("name").to_string();
                    (
                        name,
                        o.get("unit")
                            .and_then(JsonValue::as_str)
                            .map(str::to_string),
                    )
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let declared = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(&END_TO_END));
        assert_eq!(names("per_layer"), declared(&PER_LAYER));
    }

    #[test]
    fn select_reports_missing_and_mismatched_metrics() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("b", 2.0, "ms");
        assert_eq!(m.select(&[("a", "s")]).unwrap()[0].1, 1.0);
        assert!(m.select(&[("b", "s")]).is_err());
        assert!(m.select(&[("c", "s")]).is_err());
        m.put("d", f64::NAN, "s");
        assert!(m.select(&[("d", "s")]).is_err());
    }
}
