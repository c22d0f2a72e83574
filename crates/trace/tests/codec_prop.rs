//! Property-based tests of the binary trace codec and the segment-file
//! container (`docs/TRACE_FORMAT.md`).
//!
//! The codec promises more than "decoding undoes encoding": re-encoding
//! a decoded segment reproduces the original bytes exactly, decoded
//! topics share the dictionary's `Arc` allocations instead of copying
//! strings, any re-segmentation of a run round-trips through a segment
//! file unchanged, and the on-disk record order of a time-sorted segment
//! *is* the merged walk order (so replaying a file needs no re-sort).

use proptest::prelude::*;
use rtms_trace::codec::{
    decode_dict_entries, decode_segment, decode_segment_events, encode_segment, DecodeSlots,
};
use rtms_trace::{
    split_by_events, CallbackId, CallbackKind, Cpu, EventSink, Nanos, Pid, Priority, RosEvent,
    RosPayload, SchedEvent, SegmentEvent, SegmentReader, SegmentWriter, SourceTimestamp,
    ThreadState, Topic, TopicInterner, Trace, TraceSegment,
};
use std::sync::Arc;

fn arb_nanos() -> impl Strategy<Value = Nanos> {
    (0u64..1_000_000_000_000).prop_map(Nanos::from_nanos)
}

fn arb_kind() -> impl Strategy<Value = CallbackKind> {
    prop_oneof![
        Just(CallbackKind::Timer),
        Just(CallbackKind::Subscriber),
        Just(CallbackKind::Service),
        Just(CallbackKind::Client),
    ]
}

/// A small topic pool (rather than fully random names) so segments
/// exercise dictionary hits as well as misses.
fn arb_topic() -> impl Strategy<Value = Topic> {
    prop_oneof![
        "[a-z/]{1,12}".prop_map(Topic::plain),
        "[a-z]{1,6}".prop_map(|s| Topic::service_request(format!("/{s}"))),
        "[a-z]{1,6}".prop_map(|s| Topic::service_response(format!("/{s}"))),
    ]
}

/// Every `RosPayload` variant, including the service-call trio the
/// data-model suite leaves out.
fn arb_payload() -> impl Strategy<Value = RosPayload> {
    prop_oneof![
        "[a-z_]{1,16}".prop_map(|node_name| RosPayload::NodeInit { node_name }),
        arb_kind().prop_map(|kind| RosPayload::CallbackStart { kind }),
        arb_kind().prop_map(|kind| RosPayload::CallbackEnd { kind }),
        any::<u64>().prop_map(|c| RosPayload::TimerCall { callback: CallbackId::new(c) }),
        (any::<u64>(), arb_topic(), any::<u64>()).prop_map(|(c, topic, ts)| RosPayload::TakeData {
            callback: CallbackId::new(c),
            topic,
            src_ts: SourceTimestamp::new(ts),
        }),
        (any::<u64>(), arb_topic(), any::<u64>()).prop_map(|(c, topic, ts)| {
            RosPayload::TakeRequest {
                callback: CallbackId::new(c),
                topic,
                src_ts: SourceTimestamp::new(ts),
            }
        }),
        (any::<u64>(), arb_topic(), any::<u64>()).prop_map(|(c, topic, ts)| RosPayload::TakeResponse {
            callback: CallbackId::new(c),
            topic,
            src_ts: SourceTimestamp::new(ts),
        }),
        Just(RosPayload::SyncSubscribe),
        any::<bool>().prop_map(|d| RosPayload::ClientDispatch { will_dispatch: d }),
        (arb_topic(), any::<u64>()).prop_map(|(topic, ts)| RosPayload::DdsWrite {
            topic,
            src_ts: SourceTimestamp::new(ts)
        }),
    ]
}

fn arb_ros_event() -> impl Strategy<Value = RosEvent> {
    (arb_nanos(), 1u32..64, arb_payload())
        .prop_map(|(time, pid, payload)| RosEvent::new(time, Pid::new(pid), payload))
}

fn arb_sched_event() -> impl Strategy<Value = SchedEvent> {
    (arb_nanos(), 0u16..8, 0u32..64, 0u32..64, any::<bool>()).prop_map(
        |(time, cpu, prev, next, runnable)| {
            SchedEvent::switch(
                time,
                Cpu::new(cpu),
                Pid::new(prev),
                Priority::NORMAL,
                if runnable { ThreadState::Runnable } else { ThreadState::Sleeping },
                Pid::new(next),
                Priority::NORMAL,
            )
        },
    )
}

/// A segment with both streams in arbitrary (not necessarily sorted)
/// insertion order — the codec must preserve exactly what it was given.
fn arb_segment() -> impl Strategy<Value = TraceSegment> {
    (
        0usize..1000,
        proptest::collection::vec(arb_ros_event(), 0..40),
        proptest::collection::vec(arb_sched_event(), 0..40),
    )
        .prop_map(|(index, ros, sched)| {
            let mut s = TraceSegment::with_index(index);
            for e in ros {
                s.push_ros(e);
            }
            for e in sched {
                s.push_sched(e);
            }
            s
        })
}

/// Encodes `segment` with a fresh interner and returns the segment
/// payload plus the dictionary entries it interned.
fn encode_fresh(segment: &TraceSegment) -> (Vec<u8>, Vec<Arc<str>>) {
    let mut interner = TopicInterner::new();
    let mut payload = Vec::new();
    encode_segment(segment, &mut interner, &mut payload);
    (payload, interner.entries().to_vec())
}

/// An owned copy of a lent record, so walks can be collected and compared.
#[derive(Debug, PartialEq)]
enum Owned {
    Ros(RosEvent),
    Sched(SchedEvent),
}

fn owned(e: SegmentEvent<'_>) -> Owned {
    match e {
        SegmentEvent::Ros(r) => Owned::Ros(r.clone()),
        SegmentEvent::Sched(s) => Owned::Sched(s.clone()),
    }
}

fn assert_segments_equal(a: &TraceSegment, b: &TraceSegment) {
    assert_eq!(a.index(), b.index());
    assert_eq!(a.ros_events(), b.ros_events());
    assert_eq!(a.sched_events(), b.sched_events());
}

proptest! {
    /// decode(encode(s)) == s, for any segment, sorted or not.
    #[test]
    fn segment_round_trips(segment in arb_segment()) {
        let (payload, dict) = encode_fresh(&segment);
        let decoded = decode_segment(&payload, &dict).expect("decodes");
        assert_segments_equal(&segment, &decoded);
    }

    /// Re-encoding a decoded segment reproduces the original bytes and
    /// the original dictionary, exactly — the property that lets a file
    /// be rewritten (e.g. filtered or re-segmented) without drift.
    #[test]
    fn re_encode_is_byte_identical(segment in arb_segment()) {
        let (payload, dict) = encode_fresh(&segment);
        let decoded = decode_segment(&payload, &dict).expect("decodes");
        let (payload2, dict2) = encode_fresh(&decoded);
        prop_assert_eq!(payload, payload2);
        prop_assert_eq!(dict, dict2);
    }

    /// Decoded topic names are shared with the dictionary — one `Arc`
    /// per distinct name per file, not a string copy per event.
    #[test]
    fn decoded_topics_share_dictionary_allocations(segment in arb_segment()) {
        let (payload, dict) = encode_fresh(&segment);
        let decoded = decode_segment(&payload, &dict).expect("decodes");
        for e in decoded.ros_events() {
            let topic = match &e.payload {
                RosPayload::TakeData { topic, .. }
                | RosPayload::TakeRequest { topic, .. }
                | RosPayload::TakeResponse { topic, .. }
                | RosPayload::DdsWrite { topic, .. } => topic,
                _ => continue,
            };
            prop_assert!(
                dict.iter().any(|entry| Arc::ptr_eq(entry, topic.name_arc())),
                "decoded topic {:?} does not alias a dictionary entry",
                topic.name()
            );
        }
    }

    /// The dictionary itself round-trips through its frame encoding.
    #[test]
    fn dictionary_round_trips(segment in arb_segment()) {
        let (_, dict) = encode_fresh(&segment);
        let mut frame = Vec::new();
        rtms_trace::codec::encode_dict_entries(&dict, &mut frame);
        let mut back = Vec::new();
        decode_dict_entries(&frame, &mut back).expect("dict decodes");
        prop_assert_eq!(dict.len(), back.len());
        for (a, b) in dict.iter().zip(&back) {
            prop_assert_eq!(a.as_ref(), b.as_ref());
        }
    }

    /// Any re-segmentation of a run — down to one event per segment —
    /// survives a full write/read cycle through the container unchanged:
    /// same per-stream events, same segment indices.
    #[test]
    fn file_round_trips_across_resegmentation(
        ros in proptest::collection::vec(arb_ros_event(), 0..60),
        sched in proptest::collection::vec(arb_sched_event(), 0..60),
        per_segment in 1usize..8,
    ) {
        let mut trace = Trace::new();
        for e in &ros { trace.push_ros(e.clone()); }
        for e in &sched { trace.push_sched(e.clone()); }
        let segments = split_by_events(&trace, per_segment);

        let mut writer = SegmentWriter::new(Vec::new()).expect("header");
        for s in &segments {
            writer.write_segment(s).expect("encode");
        }
        let (file, stats) = writer.finish().expect("finish");
        prop_assert_eq!(stats.segments, segments.len());

        let mut reader = SegmentReader::new(file.as_slice()).expect("header");
        let mut back = Vec::new();
        let mut scratch = TraceSegment::new();
        while reader.read_segment_into(&mut scratch).expect("decode") {
            back.push(scratch.clone());
        }
        prop_assert_eq!(back.len(), segments.len());
        for (a, b) in segments.iter().zip(&back) {
            assert_segments_equal(a, b);
        }
    }

    /// For a time-sorted segment the on-disk record order *is* the
    /// merged-cursor walk order — including the equal-timestamp rule
    /// (each stream stable, ROS2 before scheduler on cross-stream ties).
    /// Replaying a file therefore feeds synthesis in exactly the order a
    /// live walk would, with no re-sort.
    #[test]
    fn on_disk_order_is_the_merged_walk_order(
        ros in proptest::collection::vec(arb_ros_event(), 0..40),
        sched in proptest::collection::vec(arb_sched_event(), 0..40),
        // Few distinct timestamps => many equal-timestamp collisions.
        squash in 1u64..5,
    ) {
        let mut segment = TraceSegment::new();
        for mut e in ros {
            e.time = Nanos::from_nanos(e.time.as_nanos() % squash);
            segment.push_ros(e);
        }
        for mut e in sched {
            e.time = Nanos::from_nanos(e.time.as_nanos() % squash);
            segment.push_sched(e);
        }
        segment.sort_by_time();

        let walked: Vec<Owned> = segment.cursor().map(owned).collect();

        let (payload, dict) = encode_fresh(&segment);
        let mut on_disk = Vec::new();
        decode_segment_events(&payload, &dict, &mut DecodeSlots::new(), |e| on_disk.push(owned(e)))
            .expect("decodes");
        prop_assert_eq!(on_disk, walked);
    }

    /// The streaming decoder hands back both streams exactly as they went
    /// in, checked against the input segment itself rather than against
    /// another decoder. A second pass through the same slot table (whose
    /// slots the first pass filled) lends the same records again.
    #[test]
    fn streaming_decode_restores_both_streams(segment in arb_segment()) {
        let (payload, dict) = encode_fresh(&segment);
        let mut slots = DecodeSlots::new();
        for _ in 0..2 {
            let mut ros = Vec::new();
            let mut sched = Vec::new();
            let (index, total) = decode_segment_events(&payload, &dict, &mut slots, |e| match e {
                SegmentEvent::Ros(e) => ros.push(e.clone()),
                SegmentEvent::Sched(e) => sched.push(e.clone()),
            })
            .expect("decodes");
            prop_assert_eq!(index, segment.index());
            prop_assert_eq!(total, segment.len());
            prop_assert_eq!(ros.as_slice(), segment.ros_events());
            prop_assert_eq!(sched.as_slice(), segment.sched_events());
        }
    }
}
