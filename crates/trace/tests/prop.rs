//! Property-based tests of the trace data model.

use proptest::prelude::*;
use rtms_trace::{
    split_by_events, CallbackId, CallbackKind, Cpu, Nanos, Pid, Priority, RosEvent, RosPayload,
    SchedEvent, SegmentEvent, SourceTimestamp, ThreadState, Topic, Trace,
};

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

fn arb_topic() -> impl Strategy<Value = Topic> {
    prop_oneof![
        "[a-z/]{1,12}".prop_map(Topic::plain),
        "[a-z]{1,8}".prop_map(|s| Topic::service_request(format!("/{s}"))),
        "[a-z]{1,8}".prop_map(|s| Topic::service_response(format!("/{s}"))),
    ]
}

fn arb_payload() -> impl Strategy<Value = RosPayload> {
    prop_oneof![
        "[a-z_]{1,16}".prop_map(|node_name| RosPayload::NodeInit { node_name }),
        arb_kind().prop_map(|kind| RosPayload::CallbackStart { kind }),
        arb_kind().prop_map(|kind| RosPayload::CallbackEnd { kind }),
        any::<u64>().prop_map(|c| RosPayload::TimerCall { callback: CallbackId::new(c) }),
        (any::<u64>(), arb_topic(), any::<u64>()).prop_map(|(c, topic, ts)| {
            RosPayload::TakeData {
                callback: CallbackId::new(c),
                topic,
                src_ts: SourceTimestamp::new(ts),
            }
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

/// An owned copy of a by-ref cursor event, so walks over different
/// segmentations compare exactly.
#[derive(Debug, PartialEq)]
enum Owned {
    Ros(RosEvent),
    Sched(SchedEvent),
}

impl Owned {
    fn time(&self) -> Nanos {
        match self {
            Owned::Ros(e) => e.time,
            Owned::Sched(e) => e.time,
        }
    }
}

fn to_owned_event(e: SegmentEvent<'_>) -> Owned {
    match e {
        SegmentEvent::Ros(r) => Owned::Ros(r.clone()),
        SegmentEvent::Sched(s) => Owned::Sched(s.clone()),
    }
}

proptest! {
    #[test]
    fn nanos_add_sub_round_trip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (x, y) = (Nanos::from_nanos(a), Nanos::from_nanos(b));
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!(x.saturating_sub(y), Nanos::from_nanos(a.saturating_sub(b)));
    }

    #[test]
    fn nanos_min_max_consistent(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (Nanos::from_nanos(a), Nanos::from_nanos(b));
        prop_assert_eq!(x.min(y).as_nanos(), a.min(b));
        prop_assert_eq!(x.max(y).as_nanos(), a.max(b));
        prop_assert!(x.min(y) <= x.max(y));
    }

    #[test]
    fn ros_event_serde_round_trip(ev in arb_ros_event()) {
        let json = serde_json::to_string(&ev).expect("serialize");
        let back: RosEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(ev, back);
    }

    #[test]
    fn sched_event_serde_round_trip(ev in arb_sched_event()) {
        let json = serde_json::to_string(&ev).expect("serialize");
        let back: SchedEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(ev, back);
    }

    #[test]
    fn trace_merge_preserves_events_and_order(
        evs_a in proptest::collection::vec(arb_ros_event(), 0..40),
        evs_b in proptest::collection::vec(arb_ros_event(), 0..40),
        sched in proptest::collection::vec(arb_sched_event(), 0..40),
    ) {
        let mut a = Trace::new();
        for e in &evs_a { a.push_ros(e.clone()); }
        for s in &sched { a.push_sched(s.clone()); }
        let mut b = Trace::new();
        for e in &evs_b { b.push_ros(e.clone()); }
        let (na, nb) = (a.len(), b.len());
        a.merge(b);
        prop_assert_eq!(a.len(), na + nb);
        // Chronological after merge.
        for w in a.ros_events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        for w in a.sched_events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn trace_json_round_trip(
        evs in proptest::collection::vec(arb_ros_event(), 0..20),
        sched in proptest::collection::vec(arb_sched_event(), 0..20),
    ) {
        let mut t = Trace::new();
        for e in evs { t.push_ros(e); }
        for s in sched { t.push_sched(s); }
        let back = Trace::from_json(&t.to_json().expect("ser")).expect("de");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn ros_events_for_is_a_sorted_filter(
        evs in proptest::collection::vec(arb_ros_event(), 0..60),
        pid in 1u32..64,
    ) {
        let mut t = Trace::new();
        for e in &evs { t.push_ros(e.clone()); }
        let filtered = t.ros_events_for(Pid::new(pid));
        prop_assert_eq!(
            filtered.len(),
            evs.iter().filter(|e| e.pid == Pid::new(pid)).count()
        );
        for w in filtered.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn encoded_size_is_positive_and_bounded(ev in arb_ros_event()) {
        let size = ev.encoded_size();
        prop_assert!(size >= 16, "at least the header");
        prop_assert!(size <= 16 + 8 + 8 + 64, "at most the take record");
    }

    /// The merged walk's tie order is pinned: each stream stable in
    /// emission order, ROS2 before scheduler on cross-stream timestamp
    /// ties — and that order survives any re-segmentation, which is what
    /// lets an online consumer observe the same sequence however the run
    /// was cut into segments.
    #[test]
    fn cursor_tie_order_stable_across_resegmentation(
        evs in proptest::collection::vec(arb_ros_event(), 0..40),
        sched in proptest::collection::vec(arb_sched_event(), 0..40),
        // Few distinct timestamps => many equal-timestamp collisions.
        squash in 1u64..5,
        per_segment in 1usize..12,
    ) {
        let mut t = Trace::new();
        for mut e in evs {
            e.time = Nanos::from_nanos(e.time.as_nanos() % squash);
            t.push_ros(e);
        }
        for mut s in sched {
            s.time = Nanos::from_nanos(s.time.as_nanos() % squash);
            t.push_sched(s);
        }

        // Reference walk over the unsegmented trace.
        let reference: Vec<Owned> = t.cursor().map(to_owned_event).collect();

        // The walk is chronological; at a shared timestamp every ROS2
        // event precedes every scheduler event.
        for w in reference.windows(2) {
            prop_assert!(w[0].time() <= w[1].time());
            if w[0].time() == w[1].time() {
                prop_assert!(
                    matches!(w[0], Owned::Ros(_))
                        || !matches!(w[1], Owned::Ros(_)),
                    "a scheduler event must never precede a ROS2 event at the same timestamp"
                );
            }
        }

        // Re-segmentation at any granularity reproduces the identical
        // sequence.
        let segments = split_by_events(&t, per_segment);
        let walked: Vec<Owned> = segments
            .iter()
            .flat_map(|s| s.cursor().map(to_owned_event).collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(&walked, &reference);
    }

    #[test]
    fn topic_suffix_never_collides_with_base(topic in arb_topic(), suffix in "[a-z0-9:]{1,10}") {
        let decorated = topic.with_suffix(&suffix);
        prop_assert_ne!(decorated.name(), topic.name());
        prop_assert_eq!(decorated.kind(), topic.kind());
        prop_assert!(decorated.name().starts_with(topic.name()));
    }
}
