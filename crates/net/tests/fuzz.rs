//! Protocol robustness: hostile bytes decode to structured errors.
//!
//! Same harness style as the repo's snapshot resilience suite — take
//! real framed messages, then (a) truncate at **every** byte offset and
//! (b) flip bits on a stride across the frame, and require every
//! mutation to decode to a structured [`WireError`]: no panic, no
//! unbounded allocation, no wrong-type success.

use msoc_core::{CoreEdit, CostWeights, JobSpec, MixedSignalSoc, Priority, SharingConfig};
use msoc_net::wire::{
    frame_request, frame_response, read_request, read_response, Request, Response, WireEntry,
    WireError, WireJob, WireLatency, WireOutcome, WireResult, WireSocRef, WireStats, WIRE_VERSION,
};
use msoc_tam::{Effort, StableHasher};

/// One request of each kind. The `Submit` carries an inline SOC,
/// explicit configs, a deadline, a pre-cancelled job and every spec
/// shape; the `Revise` carries both edit kinds.
fn corpus_requests() -> Vec<Request> {
    let soc = MixedSignalSoc::d695m();
    let mut job =
        WireJob::new(WireSocRef::Inline(soc.clone()), JobSpec::Table { widths: vec![16, 24] });
    let config = SharingConfig::new(5, vec![vec![4, 0], vec![1], vec![3, 2]]);
    job.configs = Some(vec![config]);
    job.weights = CostWeights::time_heavy();
    job.effort = Effort::Thorough;
    job.priority = Priority::High;
    job.deadline_checks = Some(500);
    let mut cancelled = WireJob::new(WireSocRef::Registered(3), JobSpec::Single { width: 16 });
    cancelled.priority = Priority::Low;
    cancelled.cancelled = true;
    let best = WireJob::new(WireSocRef::Registered(3), JobSpec::BestWidth { widths: vec![40] });
    let module = soc.digital.modules[3].clone();
    vec![
        Request::Register { tenant: "acme".into(), soc: soc.clone() },
        Request::Submit { tenant: "acme".into(), jobs: vec![job, cancelled, best] },
        Request::Revise {
            tenant: "acme".into(),
            soc_id: 3,
            edits: vec![
                CoreEdit::ReplaceAnalog { index: 1, core: msoc_analog::paper_cores()[1].clone() },
                CoreEdit::ReplaceDigital { id: module.id, module },
            ],
        },
        Request::Stats { tenant: "acme".into() },
        Request::SnapshotNow,
        Request::Shutdown,
    ]
}

/// One response of each kind; the `Outcomes` carries every outcome and
/// result shape.
fn corpus_responses() -> Vec<Response> {
    vec![
        Response::Registered { soc_id: 9 },
        Response::Outcomes(vec![
            WireOutcome::Completed(WireResult::Plan {
                config: "{A,B,C}{D,E}".into(),
                tam_width: 24,
                makespan: 40_000,
                cost_bits: 0.37f64.to_bits(),
                schedule: vec![
                    WireEntry { job: 0, width: 16, start: 0, end: 100 },
                    WireEntry { job: 1, width: 8, start: 100, end: 420 },
                ],
            }),
            WireOutcome::Completed(WireResult::Table {
                config: "{A,B}".into(),
                winner_width: 32,
                winner_makespan: 9_000,
                cost_bits: 61.5f64.to_bits(),
                cells: 78,
                packed: 12,
            }),
            WireOutcome::Completed(WireResult::BestWidth {
                config: "no-sharing".into(),
                width: 40,
                makespan: 8_100,
            }),
            WireOutcome::DeadlineExceeded,
            WireOutcome::Cancelled,
            WireOutcome::Overloaded { cap: 2, batch: 7 },
            WireOutcome::Rejected { error: "unknown registered soc id 4".into() },
            WireOutcome::Failed { message: "panic: synthetic".into() },
        ]),
        Response::Revised { soc_id: 9, revision: 4 },
        Response::Stats(WireStats {
            shard: 1,
            jobs_submitted: 100,
            schedule_hits: 80,
            latency: vec![WireLatency {
                outcome: "completed".into(),
                count: 90,
                p50_us: 255,
                p99_us: 4095,
            }],
            ..WireStats::default()
        }),
        Response::SnapshotDone { persisted: 3 },
        Response::ShuttingDown,
        Response::Error { message: "unknown registered soc id 4".into() },
    ]
}

/// Every corpus message, framed.
fn corpus_frames() -> Vec<Vec<u8>> {
    let requests = corpus_requests().iter().map(frame_request).collect::<Vec<_>>();
    requests.into_iter().chain(corpus_responses().iter().map(frame_response)).collect()
}

#[test]
fn every_message_kind_keeps_its_pinned_frame_bytes() {
    // `(length, stable digest)` of each corpus frame: a change to any
    // record's layout moves a pin here, and `WIRE_VERSION` with it.
    assert_eq!(WIRE_VERSION, 2);
    let pins: Vec<(usize, u64)> = corpus_frames()
        .iter()
        .map(|frame| {
            let mut h = StableHasher::new();
            h.write_bytes(frame);
            (frame.len(), h.finish())
        })
        .collect();
    assert_eq!(
        pins,
        [
            (848, 0x992baa7484ac90c5), // Register
            (963, 0x2569893237a0df53), // Submit
            (226, 0x7f93ef28719926c3), // Revise
            (13, 0x213b8d97d5c3f87e),  // Stats
            (8, 0x7e3cfb567a751710),   // SnapshotNow
            (8, 0x7e3cfe567a751c29),   // Shutdown
            (9, 0x3ccca7e9b014138d),   // Registered
            (138, 0x143d19cb347fba16), // Outcomes
            (10, 0xe642f70def53849c),  // Revised
            (35, 0xc560a07c6ab8ba5f),  // Stats
            (9, 0x3cda35e9b01f8f33),   // SnapshotDone
            (8, 0x758cb35675875060),   // ShuttingDown
            (36, 0xdeb50bbed9a27c2a),  // Error
        ]
    );
}

/// Drives both decoders over one mutated frame. Either may fail — both
/// must fail *structurally*. Successful decodes are fine too (a bit
/// flip inside a string payload can still be a valid message); what
/// this test bans is a panic or an abort, which the harness would
/// surface as a test failure.
fn decode_both(bytes: &[u8]) {
    let _: Result<_, WireError> = read_request(&mut &bytes[..]);
    let _: Result<_, WireError> = read_response(&mut &bytes[..]);
}

#[test]
fn every_truncation_offset_decodes_to_a_structured_error() {
    let frames = corpus_frames();
    // Debug builds walk a stride to keep the suite quick; release (the
    // tier-1 configuration) visits every offset of every frame.
    let stride = if cfg!(debug_assertions) { 37 } else { 1 };
    for frame in &frames {
        for cut in (0..frame.len()).step_by(stride) {
            let truncated = &frame[..cut];
            assert!(
                read_request(&mut &truncated[..]).is_err(),
                "a cut frame cannot decode as a request (cut at {cut}/{})",
                frame.len(),
            );
            assert!(
                read_response(&mut &truncated[..]).is_err(),
                "a cut frame cannot decode as a response (cut at {cut}/{})",
                frame.len(),
            );
        }
    }
}

#[test]
fn strided_bit_flips_never_panic_the_decoders() {
    let frames = corpus_frames();
    let stride = if cfg!(debug_assertions) { 37 } else { 1 };
    for frame in &frames {
        for offset in (0..frame.len()).step_by(stride) {
            for bit in 0..8 {
                let mut mutated = frame.clone();
                mutated[offset] ^= 1 << bit;
                decode_both(&mutated);
                // Flips inside the header/length region also get the
                // double-length treatment: append garbage so a length
                // flipped *up* finds bytes to misparse rather than a
                // clean EOF.
                if offset < 16 {
                    mutated.extend_from_slice(frame);
                    decode_both(&mutated);
                }
            }
        }
    }
}

#[test]
fn hostile_lengths_cannot_force_allocation() {
    // A frame whose varint length claims the 4 MiB maximum, backed by 6
    // bytes of actual payload: the decoder must report truncation after
    // at most one read chunk, not reserve the claimed size.
    let mut frame = frame_request(&Request::SnapshotNow);
    frame.truncate(6); // keep magic + version + kind
    frame.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x01]); // varint ≈ 4 MiB - 1
    frame.extend_from_slice(b"abcdef");
    assert_eq!(read_request(&mut &frame[..]), Err(WireError::Truncated));

    // Over the cap: rejected before any payload read.
    let mut frame = frame_request(&Request::SnapshotNow);
    frame.truncate(6);
    frame.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x7F]); // huge varint
    let decoded = read_request(&mut &frame[..]);
    assert!(
        matches!(decoded, Err(WireError::FrameTooLarge(_))),
        "oversized length must be rejected structurally: {decoded:?}",
    );

    // An in-payload collection count larger than the remaining bytes is
    // caught by the per-element floor, not trusted into with_capacity.
    let submit = Request::Submit { tenant: "t".into(), jobs: vec![] };
    let mut frame = frame_request(&submit);
    let last = frame.len() - 1;
    frame[last] = 0xFF; // jobs count varint becomes multi-byte…
    frame.push(0x7F); // …claiming ~16k jobs with zero bytes behind them
                      // Fix up the frame length for the extra byte (old payload was ≤127
                      // bytes, still single-byte varint).
    frame[6] += 1;
    let decoded = read_request(&mut &frame[..]);
    assert!(decoded.is_err(), "a lying count must fail: {decoded:?}");
}

#[test]
fn non_canonical_payload_varints_are_wire_corruption() {
    // Payload `0x80 0x00`: the message tag zero spelled with a wasted
    // continuation byte. The strict reader rejects it, and the fault must
    // read as a wire fault, not as some other format's.
    let mut frame = frame_request(&Request::SnapshotNow);
    frame.truncate(6); // keep magic + version + kind
    frame.extend_from_slice(&[2, 0x80, 0x00]);
    match read_request(&mut &frame[..]) {
        Err(WireError::Corrupt(what)) => {
            assert!(what.contains("non-canonical"), "{what}");
            assert!(!what.contains("snapshot"), "wire faults must not mention snapshots: {what}");
        }
        other => panic!("a non-canonical varint must be corrupt, got {other:?}"),
    }
}
