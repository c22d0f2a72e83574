//! The traced run: replica pairs, and the per-layer metrics they yield.

use std::time::Instant;

use crate::replica::{Replica, PRODUCER, SHARD};
use crate::report::{describe, median, tail, Outcome};
use crate::spans::Layer;

/// The replicas of one traced run.
pub struct TracedRun {
    /// Replicas run with spans on.
    pub traced: Vec<Replica>,
    /// Wall seconds of the same replica with spans off, one per pair.
    pub plain_wall_s: Vec<f64>,
}

/// Runs replica pairs — spans off and spans on, alternating which goes
/// first — until `seconds` have passed, at least one pair.
/// `replica(spans_on)` runs and checks one replica.
pub fn replica_pairs(seconds: f64, mut replica: impl FnMut(bool) -> Replica) -> TracedRun {
    let mut run = TracedRun { traced: Vec::new(), plain_wall_s: Vec::new() };
    let started = Instant::now();
    while run.traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let on_first = run.traced.len() % 2 == 1;
        for spans_on in [on_first, !on_first] {
            let r = replica(spans_on);
            if spans_on {
                run.traced.push(r);
            } else {
                run.plain_wall_s.push(r.wall.as_secs_f64());
            }
        }
    }
    run
}

/// Records every per-layer metric. Times are medians over the traced
/// replicas; counts must repeat exactly across them.
/// `consumer_busy_share` is the busy time of the workload's consumer
/// over its run's wall time.
pub fn report(out: &mut Outcome, run: &TracedRun, consumer_busy_share: f64) {
    let reps = &run.traced;
    let counts = &reps[0].counts;
    if reps.iter().any(|r| &r.counts != counts) {
        out.wrong("replica counts differ between repetitions of the same inputs");
    }
    let events = counts.events() as f64;
    let tenants = reps[0].models.len() as f64;
    let over = |f: &dyn Fn(&Replica) -> f64, name: &'static str, unit: &'static str| {
        let samples: Vec<f64> = reps.iter().map(f).collect();
        describe(name, unit, &samples);
        (name, median(&samples), unit)
    };
    let per_event = |layer: Layer| move |r: &Replica| r.spans.ns(layer) as f64 / events;
    let per_call_us = |layer: Layer| move |r: &Replica| r.spans.ns_per_call(layer) / 1e3;

    let timed = [
        over(&per_event(Layer::RunBare), "sched.run_bare_ns_per_event", "ns/event"),
        over(&per_event(Layer::RunTraced), "ros2.run_traced_ns_per_event", "ns/event"),
        over(&per_event(Layer::Collect), "ros2.collect_ns_per_event", "ns/event"),
        over(&per_event(Layer::Sort), "trace.sort_ns_per_event", "ns/event"),
        over(&per_event(Layer::Encode), "trace.encode_ns_per_event", "ns/event"),
        over(&per_event(Layer::Feed), "core.feed_ns_per_event", "ns/event"),
        over(&per_event(Layer::Decode), "trace.decode_ns_per_event", "ns/event"),
        over(&per_event(Layer::FeedReader), "core.feed_reader_ns_per_event", "ns/event"),
        over(&|r| r.spans.ns(Layer::Model) as f64 / tenants / 1e6, "core.model_ms", "ms"),
        over(&per_call_us(Layer::WindowModel), "core.window_model_us_per_segment", "us/segment"),
        over(&per_call_us(Layer::Observe), "monitor.observe_us_per_segment", "us/segment"),
        over(&per_call_us(Layer::Install), "monitor.install_us_per_tenant", "us/tenant"),
        over(&per_call_us(Layer::Merge), "core.merge_us_per_tenant", "us/tenant"),
        over(&|r| r.spans.ns(Layer::Canonicalize) as f64 / 1e6, "core.canonicalize_ms", "ms"),
        over(&per_call_us(Layer::Build), "ros2.build_us_per_world", "us/world"),
        over(
            &|r| r.spans.ns(Layer::RunBare) as f64 / r.spans.ns(Layer::RunTraced) as f64,
            "sched.bare_share_of_run_traced",
            "ratio",
        ),
        over(
            &|r| r.spans.sum(&SHARD) as f64 / r.spans.sum(&PRODUCER) as f64,
            "fleet.shard_over_producer",
            "ratio",
        ),
        over(
            &|r| r.spans.total_ns() as f64 / r.wall.as_nanos() as f64,
            "trace.span_coverage_share",
            "ratio",
        ),
    ];
    for (name, value, unit) in timed {
        out.metric(name, value, unit);
    }

    let judge: Vec<f64> = reps.iter().flat_map(|r| r.judge_ns.iter().map(|ns| ns / 1e3)).collect();
    describe("monitor.judge_us (pooled)", "us", &judge);
    let (pct, tail_us) = tail(&judge);
    out.metric("monitor.judge_us_p50", median(&judge), "us");
    out.metric("monitor.judge_us_tail", tail_us, "us");
    out.metric("monitor.judge_tail_percentile", pct, "%");
    out.metric("monitor.judge_samples", judge.len() as f64, "count");

    let traced_wall: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    describe("replica wall, spans on", "s", &traced_wall);
    describe("replica wall, spans off", "s", &run.plain_wall_s);
    out.metric("tracing_overhead_share", median(&traced_wall) / median(&run.plain_wall_s), "ratio");
    out.metric("pipeline.consumer_busy_share", consumer_busy_share, "ratio");

    let c = counts;
    let passes = c.rebalance_runs + c.rebalance_skipped;
    let alerts = &reps[0].alerts;
    let mut rollup = rtms_monitor::RollupBuilder::new();
    for ta in alerts {
        rollup.add(ta.tenant, &ta.alert);
    }
    let exact = [
        ("trace.ros_events", c.ros_events as f64, "count"),
        ("trace.sched_events", c.sched_events as f64, "count"),
        ("sched.events", c.sim_events as f64, "count"),
        ("sched.stale_pop_ratio", c.stale_pops as f64 / c.sim_events as f64, "ratio"),
        ("sched.rebalance_skip_ratio", c.rebalance_skipped as f64 / passes as f64, "ratio"),
        ("ebpf.kernel_export_ratio", c.kernel_exported as f64 / c.kernel_seen as f64, "ratio"),
        ("ebpf.trace_bytes_per_event", c.trace_bytes as f64 / events, "B/event"),
        ("trace.encoded_bytes_per_event", c.encoded_bytes as f64 / events, "B/event"),
        ("core.peak_watermark", c.peak_watermark as f64, "count"),
        ("core.model_instances", c.model_instances as f64, "count"),
        ("ros2.truth_instances", c.truth_instances as f64, "count"),
        ("monitor.alerts", alerts.len() as f64, "count"),
        ("monitor.dedup_ratio", rollup.build().dedup_ratio(), "ratio"),
    ];
    for (name, value, unit) in exact {
        eprintln!("  {name:<34} {value} {unit}");
        out.metric(name, value, unit);
    }
}
