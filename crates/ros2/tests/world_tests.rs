//! End-to-end tests of the middleware simulator: the event streams it
//! produces must exhibit exactly the structure Algorithms 1 and 2 rely on.

use rtms_ros2::{AppBuilder, WorkModel, WorldBuilder, WorldError};
use rtms_sched::Affinity;
use rtms_trace::{
    CallbackKind, Cpu, Nanos, Pid, Probe, RosPayload, Topic, Trace,
};

fn pipeline_world(seed: u64) -> rtms_ros2::Ros2World {
    let mut app = AppBuilder::new("pipe");
    let talker = app.node("talker");
    app.timer(talker, "tick", Nanos::from_millis(100), WorkModel::constant_millis(2.0))
        .publishes("/chatter");
    let listener = app.node("listener");
    app.subscriber(listener, "on_chatter", "/chatter", WorkModel::constant_millis(1.0))
        .publishes("/processed");
    WorldBuilder::new(2).seed(seed).app(app.build().expect("valid")).build().expect("world")
}

#[test]
fn timer_subscriber_pipeline_produces_all_probe_events() {
    let mut world = pipeline_world(1);
    let trace = world.trace_run(Nanos::from_secs(1));

    let count = |probe: Probe| trace.ros_events().iter().filter(|e| e.probe() == probe).count();
    // 1 s at 100 ms period: instances released at 0,100,...,1000 ms — the
    // horizon is inclusive, so the 11th instance starts at exactly 1 s but
    // never completes.
    assert_eq!(count(Probe::P1), 2, "two nodes announced");
    assert_eq!(count(Probe::P2), 11, "timer starts");
    assert_eq!(count(Probe::P3), 11, "timer IDs");
    assert_eq!(count(Probe::P4), 10, "timer ends");
    // Each tick publishes /chatter; each delivery triggers the subscriber,
    // which publishes /processed => 20 dds_write events.
    assert_eq!(count(Probe::P16), 20, "dds writes");
    assert_eq!(count(Probe::P5), 10, "subscriber starts");
    assert_eq!(count(Probe::P6), 10, "takes");
    assert_eq!(count(Probe::P8), 10, "subscriber ends");
    assert!(!trace.sched_events().is_empty(), "kernel trace recorded");
}

#[test]
fn executor_never_overlaps_callbacks() {
    // Per node (PID), CallbackStart and CallbackEnd events must strictly
    // alternate: the single-threaded executor runs one callback at a time.
    let mut world = pipeline_world(2);
    let trace = world.trace_run(Nanos::from_secs(2));
    for pid in trace.ros_pids() {
        let mut depth = 0i32;
        for ev in trace.ros_events_for(pid) {
            match ev.payload {
                RosPayload::CallbackStart { .. } => {
                    depth += 1;
                    assert_eq!(depth, 1, "nested callback start on {pid}");
                }
                RosPayload::CallbackEnd { .. } => {
                    depth -= 1;
                    assert_eq!(depth, 0, "unbalanced callback end on {pid}");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn take_event_matches_published_source_timestamp() {
    let mut world = pipeline_world(3);
    let trace = world.trace_run(Nanos::from_secs(1));
    let writes: Vec<_> = trace
        .ros_events()
        .iter()
        .filter_map(|e| match &e.payload {
            RosPayload::DdsWrite { topic, src_ts } if topic.name() == "/chatter" => {
                Some(*src_ts)
            }
            _ => None,
        })
        .collect();
    let takes: Vec<_> = trace
        .ros_events()
        .iter()
        .filter_map(|e| match &e.payload {
            RosPayload::TakeData { src_ts, .. } => Some(*src_ts),
            _ => None,
        })
        .collect();
    assert_eq!(writes, takes, "every take must carry the writer's srcTS");
}

#[test]
fn ground_truth_matches_event_windows() {
    let mut world = pipeline_world(4);
    let trace = world.trace_run(Nanos::from_secs(1));
    let gt = world.ground_truth();
    assert_eq!(gt.instances().len(), 20, "10 timer + 10 subscriber instances");
    // Ground-truth windows must match the start/end events in the trace.
    for rec in gt.instances() {
        let events = trace.ros_events_for(rec.pid);
        let has_start = events.iter().any(|e| {
            e.time == rec.start && matches!(e.payload, RosPayload::CallbackStart { .. })
        });
        let has_end = events
            .iter()
            .any(|e| e.time == rec.end && matches!(e.payload, RosPayload::CallbackEnd { .. }));
        assert!(has_start && has_end, "instance window not visible in the trace");
        assert!(rec.end - rec.start >= rec.issued, "elapsed >= issued CPU time");
    }
}

fn service_world(seed: u64) -> rtms_ros2::Ros2World {
    // Two caller nodes invoke the same service; the paper's P14 mechanism
    // must dispatch each response only in the requesting node.
    let mut app = AppBuilder::new("rpc");
    let a = app.node("caller_a");
    app.timer(a, "TA", Nanos::from_millis(100), WorkModel::constant_millis(1.0)).calls("CLA");
    app.client(a, "CLA", "/srv", WorkModel::constant_millis(1.0));
    let b = app.node("caller_b");
    app.timer(b, "TB", Nanos::from_millis(150), WorkModel::constant_millis(1.0)).calls("CLB");
    app.client(b, "CLB", "/srv", WorkModel::constant_millis(1.0));
    let s = app.node("server");
    app.service(s, "SV", "/srv", WorkModel::constant_millis(2.0));
    WorldBuilder::new(2).seed(seed).app(app.build().expect("valid")).build().expect("world")
}

#[test]
fn service_round_trip_with_two_clients() {
    let mut world = service_world(5);
    let trace = world.trace_run(Nanos::from_millis(600));
    // Callers A (period 100) and B (period 150) over 600 ms: 6 + 4 requests.
    let requests = trace
        .ros_events()
        .iter()
        .filter(|e| {
            matches!(&e.payload,
                RosPayload::DdsWrite { topic, .. } if topic.is_service_request())
        })
        .count();
    assert_eq!(requests, 10);
    let service_execs = trace.ros_events().iter().filter(|e| e.probe() == Probe::P9).count();
    assert_eq!(service_execs, 10, "server handles every request");

    // Every response fans out to BOTH clients: 10 responses * 2 readers
    // => 20 P13 take_response events ...
    let take_responses = trace.ros_events().iter().filter(|e| e.probe() == Probe::P13).count();
    assert_eq!(take_responses, 20);
    // ... but P14 dispatches exactly half of them.
    let dispatched = trace
        .ros_events()
        .iter()
        .filter(
            |e| matches!(e.payload, RosPayload::ClientDispatch { will_dispatch: true }),
        )
        .count();
    let skipped = trace
        .ros_events()
        .iter()
        .filter(
            |e| matches!(e.payload, RosPayload::ClientDispatch { will_dispatch: false }),
        )
        .count();
    assert_eq!(dispatched, 10);
    assert_eq!(skipped, 10);

    // Ground truth: 10 dispatched client instances total across both nodes.
    let gt = world.ground_truth();
    let client_instances = gt
        .instances()
        .iter()
        .filter(|r| {
            gt.info(r.callback).map(|i| i.kind == CallbackKind::Client).unwrap_or(false)
        })
        .count();
    assert_eq!(client_instances, 10);
}

#[test]
fn sync_group_fires_only_when_all_inputs_fresh() {
    // Fast source /a at 100 ms, slow source /b at 200 ms, synchronized:
    // output fires once per /b sample (the scarcer input).
    let mut app = AppBuilder::new("sync");
    let s1 = app.node("src_a");
    app.timer(s1, "TA", Nanos::from_millis(100), WorkModel::constant_millis(1.0))
        .publishes("/a");
    let s2 = app.node("src_b");
    app.timer(s2, "TB", Nanos::from_millis(200), WorkModel::constant_millis(1.0))
        .publishes("/b");
    let f = app.node("fusion");
    app.subscriber(f, "SA", "/a", WorkModel::constant_millis(0.5));
    app.subscriber(f, "SB", "/b", WorkModel::constant_millis(0.5));
    app.sync_group(f, "MS", ["SA", "SB"], ["/fused"]);
    let sink = app.node("sink");
    app.subscriber(sink, "SF", "/fused", WorkModel::constant_millis(0.2));

    let mut world =
        WorldBuilder::new(2).seed(6).app(app.build().expect("valid")).build().expect("world");
    let trace = world.trace_run(Nanos::from_secs(1));

    let fused_writes = trace
        .ros_events()
        .iter()
        .filter(|e| {
            matches!(&e.payload,
                RosPayload::DdsWrite { topic, .. } if topic.name() == "/fused")
        })
        .count();
    // /b published at 0,200,...,800 => 5 fusions over 1 s.
    assert_eq!(fused_writes, 5, "sync output rate follows the slow input");

    // Both member callbacks are marked as sync subscribers via P7.
    let sync_marks = trace.ros_events().iter().filter(|e| e.probe() == Probe::P7).count();
    let sa_execs = 10; // /a deliveries
    let sb_execs = 5;
    assert_eq!(sync_marks, sa_execs + sb_execs, "every sync-member take is P7-marked");

    // The fused output reaches the sink.
    let sink_takes = trace
        .ros_events()
        .iter()
        .filter(|e| {
            matches!(&e.payload,
                RosPayload::TakeData { topic, .. } if topic.name() == "/fused")
        })
        .count();
    assert_eq!(sink_takes, 5);
}

#[test]
fn pid_filter_keeps_kernel_trace_focused() {
    // With heavy non-ROS2 background load, the exported kernel trace must
    // be much smaller than the unfiltered scheduler stream.
    let mut app = AppBuilder::new("small");
    let n = app.node("solo");
    app.timer(n, "T", Nanos::from_millis(50), WorkModel::constant_millis(1.0));
    let mut world = WorldBuilder::new(2)
        .seed(7)
        .app(app.build().expect("valid"))
        .background_load(Nanos::from_millis(2), Nanos::from_micros(500), Nanos::from_millis(1))
        .background_load(Nanos::from_millis(3), Nanos::from_micros(500), Nanos::from_millis(1))
        .background_load(Nanos::from_millis(5), Nanos::from_micros(500), Nanos::from_millis(2))
        .build()
        .expect("world");
    let trace = world.trace_run(Nanos::from_secs(2));
    let (seen, exported) = world.kernel_filter_stats();
    assert!(seen > 0 && exported > 0);
    assert!(
        exported * 3 <= seen,
        "filtering must cut the kernel trace by 3x or more: seen={seen} exported={exported}"
    );
    assert_eq!(exported as usize, trace.sched_events().len());
}

#[test]
fn trace_is_chronologically_sorted_and_serializable() {
    let mut world = pipeline_world(8);
    let trace = world.trace_run(Nanos::from_millis(500));
    let mut prev = Nanos::ZERO;
    for e in trace.ros_events() {
        assert!(e.time >= prev);
        prev = e.time;
    }
    let json = trace.to_json().expect("serialize");
    let back = Trace::from_json(&json).expect("deserialize");
    assert_eq!(&back, &trace);
}

#[test]
fn segmented_collection_equals_single_run() {
    // Fig. 2: stopping and restarting the runtime tracers between segments
    // must lose nothing while they are on.
    let mut world = pipeline_world(9);
    world.announce_nodes();
    world.start_runtime_tracers();
    world.run_for(Nanos::from_millis(500));
    let seg1 = world.collect_segment();
    world.run_for(Nanos::from_millis(500));
    let seg2 = world.collect_segment();
    world.stop_runtime_tracers();

    let mut merged = Trace::new();
    merged.merge(seg1);
    merged.merge(seg2);

    let mut reference = pipeline_world(9);
    let single = reference.trace_run(Nanos::from_secs(1));
    assert_eq!(merged.ros_events().len(), single.ros_events().len());
    assert_eq!(merged.sched_events().len(), single.sched_events().len());
}

#[test]
fn overhead_report_is_small_fraction_of_app_load() {
    let mut world = pipeline_world(10);
    let _ = world.trace_run(Nanos::from_secs(2));
    let report = world.overhead_report();
    assert!(report.total_firings > 0);
    assert!(report.avg_cores < 0.01, "probe cost must be well under 1% of a core");
    assert!(report.frac_of_app_load < 0.05, "probe cost must be a small fraction of app load");
    assert!(world.trace_volume_bytes() > 0);
}

#[test]
fn node_pids_are_exposed() {
    let world = pipeline_world(11);
    let talker = world.node_pid("talker").expect("talker pid");
    let listener = world.node_pid("listener").expect("listener pid");
    assert_ne!(talker, listener);
    assert_eq!(world.node_pid("ghost"), None);
    assert_eq!(world.node_pids().len(), 2);
    assert_ne!(talker, Pid::IDLE);
}

#[test]
fn dds_latency_delays_delivery() {
    let mut app = AppBuilder::new("lat");
    let t = app.node("t");
    app.timer(t, "T", Nanos::from_millis(100), WorkModel::constant_millis(1.0)).publishes("/x");
    let s = app.node("s");
    app.subscriber(s, "S", "/x", WorkModel::constant_millis(1.0));
    let mut world = WorldBuilder::new(2)
        .seed(12)
        .dds_latency(Nanos::from_millis(5))
        .app(app.build().expect("valid"))
        .build()
        .expect("world");
    let trace = world.trace_run(Nanos::from_millis(300));
    // First publish at 1 ms (after 1 ms work); first take at >= 6 ms.
    let first_write = trace
        .ros_events()
        .iter()
        .find(|e| matches!(&e.payload, RosPayload::DdsWrite { topic, .. } if topic == &Topic::plain("/x")))
        .expect("write")
        .time;
    let first_take = trace
        .ros_events()
        .iter()
        .find(|e| matches!(&e.payload, RosPayload::TakeData { .. }))
        .expect("take")
        .time;
    assert!(first_take >= first_write + Nanos::from_millis(5));
}

#[test]
fn node_pinned_outside_the_machine_is_rejected() {
    // Pinned to a core the machine lacks, the timer node would never run
    // and silently drop out of the model, so the builder refuses it.
    let pinned = |cpu: u16| {
        let mut app = AppBuilder::new("pin");
        let talker = app.node("talker");
        app.timer(talker, "tick", Nanos::from_millis(100), WorkModel::constant_millis(1.0));
        app.set_affinity(talker, Affinity::only(Cpu::new(cpu)));
        WorldBuilder::new(2).app(app.build().expect("valid")).build()
    };
    let expected = WorldError::AffinityOutsideMachine { node: "talker".into(), cpus: 2 };
    assert_eq!(pinned(3).err(), Some(expected));
    let trace = pinned(1).expect("core 1 exists").trace_run(Nanos::from_secs(1));
    assert_eq!(trace.ros_events().iter().filter(|e| e.probe() == Probe::P2).count(), 11);
}
