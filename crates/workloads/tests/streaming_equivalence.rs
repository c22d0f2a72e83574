//! Streaming/batch equivalence over generated applications.
//!
//! For any segmentation of the same event stream, a `SynthesisSession` fed
//! the segments must produce a model *byte-identical* (compared as
//! serialized JSON) to batch `synthesize` on the whole trace — including
//! one-event segments, which put every instance window, service
//! interaction, and execution-time measurement across a boundary. The
//! batch entry point itself is additionally pinned against the original
//! per-node extraction pipeline (`extract_callbacks`), which is kept as an
//! independent reference implementation.

use proptest::prelude::*;
use rtms_core::{extract_callbacks, node_name_map, synthesize, Dag, SynthesisSession};
use rtms_ros2::WorldBuilder;
use rtms_trace::{split_by_events, Nanos, Trace};
use rtms_workloads::{generate_app, GeneratorConfig};

fn json(dag: &Dag) -> String {
    serde_json::to_string(dag).expect("model serializes")
}

/// The original batch pipeline — per-node extraction over a private event
/// index — as the reference the session-backed path must reproduce.
fn reference_model(trace: &Trace) -> Dag {
    let lists: Vec<_> = trace
        .ros_pids()
        .into_iter()
        .map(|pid| (pid, extract_callbacks(pid, trace)))
        .filter(|(_, list)| !list.is_empty())
        .collect();
    Dag::from_cblists(&lists, &node_name_map(trace))
}

/// The zero-copy contract of the owned ingestion path: a plain topic's
/// name allocation — created once by the tracer side — is the *same*
/// `Arc<str>` after traveling segment → session → model. No event payload
/// is cloned on the way.
#[test]
fn topic_name_arcs_survive_segment_to_session_to_dag() {
    use rtms_trace::{CallbackId, CallbackKind, Pid, RosEvent, RosPayload, SourceTimestamp, Topic};
    use std::sync::Arc;

    let in_topic = Topic::plain("/camera/points");
    let out_topic = Topic::plain("/fused/points");
    let in_name = Arc::clone(in_topic.name_arc());
    let out_name = Arc::clone(out_topic.name_arc());

    // Producer side: events moved into a segment, as a perf-buffer drain
    // would.
    let mut segment = Trace::new();
    let pid = Pid::new(4);
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(0),
        pid,
        RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
    ));
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(0),
        pid,
        RosPayload::TakeData {
            callback: CallbackId::new(1),
            topic: in_topic,
            src_ts: SourceTimestamp::new(7),
        },
    ));
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(1),
        pid,
        RosPayload::DdsWrite { topic: out_topic, src_ts: SourceTimestamp::new(8) },
    ));
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(2),
        pid,
        RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
    ));
    // A downstream consumer of /fused/points on another node, reading the
    // sample the first callback published — the same `Topic` value, as a
    // real drain would deliver it.
    let downstream = Pid::new(5);
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(3),
        downstream,
        RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
    ));
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(3),
        downstream,
        RosPayload::TakeData {
            callback: CallbackId::new(2),
            topic: Topic::plain(Arc::clone(&out_name)),
            src_ts: SourceTimestamp::new(8),
        },
    ));
    segment.push_ros(RosEvent::new(
        Nanos::from_millis(4),
        downstream,
        RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
    ));
    let mut session = SynthesisSession::new();
    session.feed_segment(&segment);

    // Both names reach the callback record without a copy ...
    let lists = session.callback_lists();
    let (_, list) = lists.iter().find(|(p, _)| *p == pid).expect("producer node");
    let entry = &list.entries()[0];
    assert!(Arc::ptr_eq(entry.in_topic.as_ref().expect("in topic"), &in_name));
    assert!(Arc::ptr_eq(&entry.out_topics[0], &out_name));

    // ... and on into the model: undecorated topics share the allocation
    // end to end — vertices and the connecting edge alike.
    let dag = session.model();
    let producer = dag
        .vertices()
        .iter()
        .find(|v| v.in_topic.as_deref() == Some("/camera/points"))
        .expect("producer vertex");
    assert!(Arc::ptr_eq(producer.in_topic.as_ref().expect("in topic"), &in_name));
    assert!(Arc::ptr_eq(&producer.out_topics[0], &out_name));
    assert_eq!(dag.edges().len(), 1, "producer feeds the downstream subscriber");
    assert!(Arc::ptr_eq(&dag.edges()[0].topic, &out_name));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// 100 generated scenarios, each in the default and the multi-threaded
    /// preset: batch equals the reference pipeline, and the session equals
    /// batch for several segment sizes. After every segment the model the
    /// session builds from its own state equals the model built from its
    /// cloned callback lists, pending instances included.
    #[test]
    fn session_fed_segments_matches_batch(seed in 0u64..1_000_000) {
        for (preset, config) in
            [("default", GeneratorConfig::default()), ("multi_threaded", GeneratorConfig::multi_threaded())]
        {
            let app = generate_app(seed, &config);
            let mut world = WorldBuilder::new(8)
                .seed(seed ^ 0x57ee)
                .app(app)
                .build()
                .expect("generated app deploys");
            let trace = world.trace_run(Nanos::from_millis(600));
            prop_assert!(!trace.is_empty(), "{preset} seed {seed} produced an empty trace");

            let batch = json(&synthesize(&trace));
            prop_assert_eq!(
                &batch,
                &json(&reference_model(&trace)),
                "session-backed batch diverged from the reference pipeline ({} seed {})",
                preset,
                seed
            );

            for per_segment in [1usize, 13, 256] {
                let mut session = SynthesisSession::new();
                for (i, segment) in split_by_events(&trace, per_segment).iter().enumerate() {
                    session.feed_segment(segment);
                    let via_lists = Dag::from_cblists(&session.callback_lists(), session.names());
                    prop_assert!(
                        session.model() == via_lists,
                        "borrowed model build diverged from the list build after segment {} \
                         of size {} ({} seed {})",
                        i,
                        per_segment,
                        preset,
                        seed
                    );
                }
                prop_assert_eq!(
                    &batch,
                    &json(&session.model()),
                    "streamed model diverged at segment size {} ({} seed {})",
                    per_segment,
                    preset,
                    seed
                );
            }
        }
    }

    /// Every segment-flow path hands over the same segments in the same
    /// order: the recycled-slab SPSC pipeline and the adaptive default
    /// (whichever implementation it picks for this machine) are pinned
    /// byte-identical to the forced-sequential reference — segments and
    /// synthesized model alike — across the generated-app population, for
    /// both segment granularities.
    #[test]
    fn trace_segments_paths_byte_identical(seed in 0u64..1_000_000) {
        #[derive(Clone, Copy, Debug)]
        enum Path { Sequential, Pipelined, Default }
        let app = || generate_app(seed, &GeneratorConfig::default());
        for segment_ms in [40u64, 200] {
            let collect = |path: Path| {
                let mut world = WorldBuilder::new(8)
                    .seed(seed ^ 0x5e9)
                    .app(app())
                    .build()
                    .expect("generated app deploys");
                let mut segments: Vec<Trace> = Vec::new();
                let mut session = SynthesisSession::new();
                let total = Nanos::from_millis(600);
                let seg = Nanos::from_millis(segment_ms);
                let consume = |segments: &mut Vec<Trace>,
                               session: &mut SynthesisSession,
                               segment: &mut Trace| {
                    session.feed_segment(segment);
                    segments.push(std::mem::take(segment));
                };
                match path {
                    Path::Sequential => world.trace_segments_sequential(total, seg, |s| {
                        consume(&mut segments, &mut session, s);
                    }),
                    Path::Pipelined => world.trace_segments_pipelined(total, seg, |s| {
                        consume(&mut segments, &mut session, s);
                    }),
                    Path::Default => world.trace_segments(total, seg, |s| {
                        consume(&mut segments, &mut session, s);
                    }),
                }
                let model = json(&session.model());
                (segments, model)
            };
            let (seq_segments, seq_model) = collect(Path::Sequential);
            for path in [Path::Pipelined, Path::Default] {
                let (segments, model) = collect(path);
                prop_assert!(
                    seq_segments == segments,
                    "{:?} segments diverged from sequential at {} ms (seed {})",
                    path,
                    segment_ms,
                    seed
                );
                prop_assert_eq!(
                    &seq_model,
                    &model,
                    "{:?} model diverged from sequential at {} ms (seed {})",
                    path,
                    segment_ms,
                    seed
                );
            }
        }
    }
}
