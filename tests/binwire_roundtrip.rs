//! The binary shard wire format against its JSON twin: every shard and
//! result the campaign executor can produce must survive the binwire
//! round trip **byte-identical to the JSON path** (decode, then
//! re-serialize canonically — the same equality the dispatch
//! bit-identity checks gate on), binary encoding must be
//! deterministic, and truncated or corrupted binary documents must come
//! back as typed [`WireError`]s — never a panic.

use proptest::prelude::*;

use strex::campaign::{Campaign, CampaignResult, CampaignShard, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::report::Report;
use strex_oltp::workload::{Workload, WorkloadKind};

/// A small but real campaign over arbitrary parameters: the shards it
/// produces exercise every field the wire carries (hybrid choices,
/// latency distributions, per-core counter blocks, multi-cell shards).
fn tiny_campaign_shard(
    kind: WorkloadKind,
    seed: u64,
    cores: usize,
    spec: ShardSpec,
) -> CampaignShard {
    let w = Workload::preset_small(kind, 6, seed);
    Campaign::new(SimConfig::new(cores, SchedulerKind::Baseline))
        .over_schedulers(SchedulerKind::ALL)
        .over_workloads([&w])
        .run_shard(spec)
        .expect("valid campaign")
}

fn workload_kinds() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::TpccW1),
        Just(WorkloadKind::TpccW10),
        Just(WorkloadKind::Tpce),
        Just(WorkloadKind::MapReduce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole invariant: decode(encode(shard)) re-serializes to the
    /// exact bytes the JSON path produces, for arbitrary campaign
    /// geometries — so the two wire formats are interchangeable
    /// mid-flight and the merged result cannot depend on which one a
    /// child spoke.
    #[test]
    fn shards_survive_binwire_byte_identical_to_the_json_path(
        kind in workload_kinds(),
        seed in 0u64..1000,
        cores in 2usize..5,
        index in 0usize..3,
        count in 1usize..4,
    ) {
        let spec = ShardSpec::new(index.min(count - 1), count).expect("valid spec");
        let shard = tiny_campaign_shard(kind, seed, cores, spec);
        let bin = shard.to_bin();
        prop_assert_eq!(&bin, &shard.to_bin(), "binary encoding is deterministic");
        let decoded = CampaignShard::from_bin(&bin)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(decoded.to_json(), shard.to_json());
        prop_assert_eq!(decoded.to_bin(), bin, "re-encode is byte-identical too");
    }

    /// Every strict prefix of a valid binary document is a typed error.
    #[test]
    fn truncated_binary_documents_are_typed_errors(cut_seed in 0usize..10_000) {
        let shard = tiny_campaign_shard(
            WorkloadKind::TpccW1,
            7,
            2,
            ShardSpec::new(0, 2).expect("valid"),
        );
        let bin = shard.to_bin();
        let cut = cut_seed % bin.len();
        prop_assert!(CampaignShard::from_bin(&bin[..cut]).is_err());
    }

    /// Flipping any single byte of a valid document never panics; it
    /// either fails typed or — where the flipped byte is plain payload
    /// (a counter, a latency bucket) — decodes to a *different* document
    /// that still re-encodes cleanly. What it can never do is silently
    /// decode back to the original.
    #[test]
    fn corrupted_binary_documents_never_panic(pos_seed in 0usize..10_000, flip in 1u8..=255) {
        let shard = tiny_campaign_shard(
            WorkloadKind::MapReduce,
            3,
            2,
            ShardSpec::new(0, 1).expect("valid"),
        );
        let mut bin = shard.to_bin();
        let pos = pos_seed % bin.len();
        bin[pos] ^= flip;
        if let Ok(decoded) = CampaignShard::from_bin(&bin) {
            prop_assert_ne!(
                decoded.to_bin(),
                shard.to_bin(),
                "a flipped byte must not decode back to the original document"
            );
        }
    }

    /// Arbitrary bytes — with and without a valid header — are typed
    /// errors, never panics.
    #[test]
    fn garbage_binary_documents_are_typed_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        with_header in any::<bool>(),
    ) {
        let doc = if with_header {
            let mut doc = vec![0xB1, b'S'];
            doc.extend_from_slice(&bytes);
            doc
        } else {
            bytes
        };
        // Either outcome must be reached without panicking; decoding
        // random bytes into a *valid* shard is astronomically unlikely
        // but not an error in itself.
        let _ = CampaignShard::from_bin(&doc);
        let _ = CampaignResult::from_bin(&doc);
        let _ = Report::from_bin(&doc);
    }
}

#[test]
fn results_and_reports_round_trip_byte_identical_to_json() {
    let workloads = [
        Workload::preset_small(WorkloadKind::TpccW1, 8, 7),
        Workload::preset_small(WorkloadKind::Tpce, 8, 7),
    ];
    let result = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
        .over_workloads(workloads.iter())
        .run()
        .expect("valid campaign");
    let decoded = CampaignResult::from_bin(&result.to_bin()).expect("own bytes decode");
    assert_eq!(decoded.to_json(), result.to_json());
    for cell in result.cells() {
        let report = &cell.report;
        let decoded = Report::from_bin(&report.to_bin()).expect("own bytes decode");
        assert_eq!(decoded.to_json(), report.to_json(), "{}", cell.key);
    }
}

#[test]
fn binary_documents_reject_kind_confusion_and_trailing_bytes() {
    let shard = tiny_campaign_shard(
        WorkloadKind::TpccW1,
        1,
        2,
        ShardSpec::new(0, 1).expect("valid"),
    );
    let bin = shard.to_bin();
    // A shard document is not a result, a report, or JSON.
    assert!(CampaignResult::from_bin(&bin).is_err());
    assert!(Report::from_bin(&bin).is_err());
    assert!(strex::binwire::is_binary(bin[0]), "leading magic byte");
    // Trailing bytes after a complete document are corruption, not slack.
    let mut padded = bin.clone();
    padded.push(0);
    assert!(CampaignShard::from_bin(&padded).is_err());
}
