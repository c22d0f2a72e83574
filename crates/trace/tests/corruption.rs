//! Robustness of the segment-file reader against corrupt, truncated, and
//! adversarial input (`docs/TRACE_FORMAT.md`).
//!
//! The contract under test: a reader handed arbitrary bytes either
//! produces exactly the recorded events or returns a typed
//! [`CodecError`] — it never panics, never silently drops or invents
//! events, and never sizes an allocation from an unvalidated length
//! field. The suite walks *every* truncation point and *every* single-bit
//! flip of a real file rather than sampling a few.

use rtms_trace::{
    CallbackId, CallbackKind, CodecError, Cpu, EventSink, Nanos, Pid, Priority, RosEvent,
    RosPayload, SchedEvent, SegmentReader, SegmentWriter, SourceTimestamp, ThreadState, Topic,
    TraceSegment, SEGMENT_FILE_VERSION,
};

/// A small two-segment file with a meta frame, a shared-topic dictionary,
/// and both event streams populated.
fn sample_file() -> Vec<u8> {
    let mut writer = SegmentWriter::new(Vec::new()).expect("header");
    writer.set_meta("{\"origin\":\"corruption-suite\"}").expect("meta");
    for (i, base) in [(0usize, 0u64), (1, 1_000_000)] {
        let mut s = TraceSegment::with_index(i);
        s.push_ros(RosEvent::new(
            Nanos::from_nanos(base),
            Pid::new(7),
            RosPayload::NodeInit { node_name: format!("node{i}") },
        ));
        s.push_ros(RosEvent::new(
            Nanos::from_nanos(base + 10),
            Pid::new(7),
            RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
        ));
        s.push_ros(RosEvent::new(
            Nanos::from_nanos(base + 20),
            Pid::new(7),
            RosPayload::TakeData {
                callback: CallbackId::new(41),
                topic: Topic::plain("/camera"),
                src_ts: SourceTimestamp::new(3 + i as u64),
            },
        ));
        s.push_ros(RosEvent::new(
            Nanos::from_nanos(base + 40),
            Pid::new(7),
            RosPayload::DdsWrite {
                topic: Topic::plain("/detections"),
                src_ts: SourceTimestamp::new(5 + i as u64),
            },
        ));
        s.push_ros(RosEvent::new(
            Nanos::from_nanos(base + 50),
            Pid::new(7),
            RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
        ));
        s.push_sched(SchedEvent::switch(
            Nanos::from_nanos(base + 15),
            Cpu::new(0),
            Pid::new(0),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(7),
            Priority::NORMAL,
        ));
        writer.write_segment(&s).expect("segment");
    }
    let (file, stats) = writer.finish().expect("finish");
    assert_eq!(stats.segments, 2);
    file
}

/// Drains a reader over `bytes`, returning the decoded segments or the
/// first typed error. A panic anywhere in here fails the suite.
fn try_replay(bytes: &[u8]) -> Result<Vec<TraceSegment>, CodecError> {
    let mut reader = SegmentReader::new(bytes)?;
    let mut segments = Vec::new();
    let mut scratch = TraceSegment::new();
    while reader.read_segment_into(&mut scratch)? {
        segments.push(scratch.clone());
    }
    Ok(segments)
}

/// The streaming-decode surface must be exactly as robust as the batch
/// one; drive it over the same bytes.
fn try_replay_streaming(bytes: &[u8]) -> Result<usize, CodecError> {
    let mut reader = SegmentReader::new(bytes)?;
    let mut events = 0usize;
    while let Some((_, len)) = reader.next_segment_events(|_| {})? {
        events += len;
    }
    Ok(events)
}

#[test]
fn intact_file_replays_fully() {
    let file = sample_file();
    let segments = try_replay(&file).expect("intact file");
    assert_eq!(segments.len(), 2);
    assert_eq!(segments[0].len(), 6);
    assert_eq!(try_replay_streaming(&file).expect("intact file"), 12);
}

/// Every prefix of a valid file — a crash mid-write, a torn download —
/// decodes to a typed error or a clean (possibly shorter) result, on
/// both decode surfaces. No prefix may panic.
#[test]
fn every_truncation_point_is_handled() {
    let file = sample_file();
    let pristine = try_replay(&file).expect("intact file");
    // The reader stops at the index frame and never consumes the 16-byte
    // trailer, so cuts inside the trailer still replay completely.
    let trailer_start = file.len() - 16;
    let mut rejected = 0usize;
    for cut in 0..file.len() {
        let prefix = &file[..cut];
        match try_replay(prefix) {
            Ok(segments) if cut >= trailer_start => assert_eq!(segments, pristine),
            // Any earlier cut must never pass for a complete file: the
            // index frame only exists past `trailer_start`.
            Ok(_) => panic!("prefix of {cut} bytes decoded as a complete file"),
            Err(
                CodecError::Truncated
                | CodecError::BadMagic
                | CodecError::BadVarint
                | CodecError::MissingIndex
                | CodecError::ChecksumMismatch
                | CodecError::BadCount { .. }
                | CodecError::BadLength { .. }
                | CodecError::Io(_),
            ) => rejected += 1,
            Err(other) => panic!("prefix of {cut} bytes: unexpected diagnosis {other}"),
        }
        assert_eq!(try_replay_streaming(prefix).is_ok(), cut >= trailer_start);
    }
    assert_eq!(rejected, trailer_start);
}

/// Every single-bit flip is either *detected* (typed error) or
/// *harmless* (the decoded events are identical — flips in the trailer,
/// which the reader does not consume, and in the reserved header
/// padding). A flip must never silently alter what is decoded, and the
/// streaming surface rejects exactly the flips the batch surface does.
#[test]
fn every_single_bit_flip_is_detected_or_harmless() {
    let file = sample_file();
    let pristine = try_replay(&file).expect("intact file");
    let mut detected = 0usize;
    let mut harmless = 0usize;
    for byte in 0..file.len() {
        for bit in 0..8 {
            let mut mutated = file.clone();
            mutated[byte] ^= 1 << bit;
            let batch = try_replay(&mutated);
            assert_eq!(
                try_replay_streaming(&mutated).is_err(),
                batch.is_err(),
                "bit {bit} of byte {byte}: the two decode surfaces disagree"
            );
            match batch {
                Err(_) => detected += 1,
                Ok(segments) => {
                    assert_eq!(
                        segments, pristine,
                        "bit {bit} of byte {byte} flipped silently changed the decode"
                    );
                    harmless += 1;
                }
            }
        }
    }
    assert_eq!(detected + harmless, file.len() * 8);
    // Everything between the 12-byte header and the 16-byte trailer is
    // frame data, where the checksum makes every flip loud.
    let framed_bits = (file.len() - 12 - 16) * 8;
    assert!(
        detected >= framed_bits,
        "only {detected} of {framed_bits} framed bit flips were detected"
    );
}

/// A payload-byte flip inside a frame is diagnosed as a checksum
/// mismatch specifically — the pinned corruption diagnosis.
#[test]
fn payload_corruption_is_a_checksum_mismatch() {
    let mut file = sample_file();
    // Byte 17 sits in the first frame's payload (12-byte header, then
    // kind + 4 length bytes).
    file[17] ^= 0x40;
    assert!(matches!(try_replay(&file), Err(CodecError::ChecksumMismatch)));
}

#[test]
fn wrong_magic_is_rejected() {
    let mut file = sample_file();
    file[0] ^= 0xff;
    assert!(matches!(try_replay(&file), Err(CodecError::BadMagic)));
    assert!(matches!(try_replay(b"JSONRIFF"), Err(CodecError::BadMagic)));
    assert!(matches!(try_replay(b""), Err(CodecError::BadMagic)));
}

#[test]
fn future_version_is_rejected_with_the_version() {
    let mut file = sample_file();
    let future = SEGMENT_FILE_VERSION + 1;
    file[8..10].copy_from_slice(&future.to_le_bytes());
    match try_replay(&file) {
        Err(CodecError::UnsupportedVersion(v)) => assert_eq!(v, future),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A frame that declares an absurd length is rejected from the length
/// field alone — before any allocation is sized from it, and before any
/// attempt to read the bytes.
#[test]
fn oversized_frame_length_is_rejected_without_allocating() {
    let file = sample_file();
    let mut mutated = file[..12 + 5].to_vec();
    mutated[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    match try_replay(&mutated) {
        Err(CodecError::BadLength { len, .. }) => assert_eq!(len, u64::from(u32::MAX)),
        other => panic!("expected BadLength, got {other:?}"),
    }
}

/// A declared record count far beyond what the payload could hold is
/// rejected by budget *before* any vector is reserved from it. The
/// crafted frame carries a fresh, correct checksum, so only the count
/// validation can catch it.
#[test]
fn absurd_record_count_is_rejected_by_budget() {
    // Segment payload: index=0, ros_count=2^40, sched_count=0, no bytes.
    let mut payload = Vec::new();
    rtms_util::varint::write_u64(&mut payload, 0);
    rtms_util::varint::write_u64(&mut payload, 1 << 40);
    rtms_util::varint::write_u64(&mut payload, 0);
    let err = rtms_trace::codec::decode_segment(&payload, &[]).expect_err("must reject");
    match err {
        CodecError::BadCount { count, budget } => {
            assert_eq!(count, 1 << 40);
            assert!(budget < 100, "budget must reflect the actual bytes present");
        }
        other => panic!("expected BadCount, got {other:?}"),
    }
}

/// Ten-plus-byte varints and non-canonical encodings are rejected rather
/// than wrapped or truncated.
#[test]
fn oversized_varints_are_rejected() {
    // Eleven 0x80 continuation bytes: longer than any valid u64 varint.
    let payload = vec![0x80u8; 11];
    assert!(matches!(
        rtms_trace::codec::decode_segment(&payload, &[]),
        Err(CodecError::BadVarint)
    ));
}

/// Dictionary strings are capped; a dict frame declaring a huge string
/// length is rejected before allocation.
#[test]
fn oversized_dict_string_is_rejected() {
    let mut payload = Vec::new();
    rtms_util::varint::write_u64(&mut payload, 1); // one entry
    rtms_util::varint::write_u64(&mut payload, u64::from(u32::MAX)); // of absurd length
    let mut dict = Vec::new();
    match rtms_trace::codec::decode_dict_entries(&payload, &mut dict) {
        Err(CodecError::BadLength { .. } | CodecError::BadCount { .. }) => {}
        other => panic!("expected BadLength/BadCount, got {other:?}"),
    }
    assert!(dict.is_empty());
}

/// A topic reference pointing past the dictionary is a typed error, not
/// an index panic.
#[test]
fn dangling_topic_reference_is_rejected() {
    let mut segment = TraceSegment::new();
    segment.push_ros(RosEvent::new(
        Nanos::from_nanos(5),
        Pid::new(3),
        RosPayload::DdsWrite { topic: Topic::plain("/t"), src_ts: SourceTimestamp::new(1) },
    ));
    let mut interner = rtms_trace::TopicInterner::new();
    let mut payload = Vec::new();
    rtms_trace::codec::encode_segment(&segment, &mut interner, &mut payload);
    // Decode against an *empty* dictionary: the reference dangles.
    assert!(matches!(
        rtms_trace::codec::decode_segment(&payload, &[]),
        Err(CodecError::BadTopicRef(_))
    ));
}

/// Segment frames cut mid-record — not just mid-file — stay typed errors
/// at the codec layer, whatever byte the cut lands on.
#[test]
fn segment_payload_truncation_never_panics() {
    let mut segment = TraceSegment::with_index(3);
    for i in 0..4u64 {
        segment.push_ros(RosEvent::new(
            Nanos::from_nanos(i * 100),
            Pid::new(9),
            RosPayload::TakeData {
                callback: CallbackId::new(i),
                topic: Topic::plain("/scan"),
                src_ts: SourceTimestamp::new(i),
            },
        ));
    }
    let mut interner = rtms_trace::TopicInterner::new();
    let mut payload = Vec::new();
    rtms_trace::codec::encode_segment(&segment, &mut interner, &mut payload);
    let dict = interner.entries().to_vec();
    assert!(rtms_trace::codec::decode_segment(&payload, &dict).is_ok());
    for cut in 0..payload.len() {
        assert!(
            rtms_trace::codec::decode_segment(&payload[..cut], &dict).is_err(),
            "a {cut}-byte prefix of a {}-byte segment payload must not decode",
            payload.len()
        );
    }
}
