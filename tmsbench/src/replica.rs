//! The layered replica behind every traced run: a single-threaded
//! re-enactment of the live, record, monitor and replay paths built only
//! from public calls, each call timed into its layer (see `spans`).
//!
//! Per tenant world it runs, in order:
//!
//! 1. an untraced twin world for the same simulated time (`RunBare`);
//! 2. the Fig. 2 segment loop — run traced, drain, sort — feeding every
//!    segment to the segment writer and to a cumulative session, with the
//!    fleet shard's monitoring steps: baseline install at the baseline
//!    boundary, then a per-window snapshot model judged by a
//!    `BaselineStore` (the shard loop of `rtms_fleet`, step for step);
//! 3. the final model, merged into the running multi-tenant merge;
//! 4. a decode-only pass and a fused `feed_reader` replay of the file just
//!    written, whose model must equal the live one.
//!
//! After the last tenant the merged model is canonicalized.

use std::time::{Duration, Instant};

use crate::spans::{Layer, Spans};
use rtms_core::{merge_dag_refs, Dag, SynthesisSession};
use rtms_fleet::TenantAlert;
use rtms_monitor::{Baseline, BaselineStore, MonitorConfig};
use rtms_ros2::Ros2World;
use rtms_trace::{Nanos, SegmentReader, SegmentWriter, TraceSegment};

/// How each tenant's run divides into segments.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub segment: Nanos,
    pub total_segments: usize,
    /// Leading segments that only feed the baseline; the model at this
    /// boundary is installed, every later segment is judged.
    pub baseline_segments: usize,
}

impl Plan {
    pub fn total(&self) -> Nanos {
        Nanos::from_nanos(self.segment.as_nanos() * self.total_segments as u64)
    }
}

/// Exact counts gathered by a replica; identical on every run of the same
/// inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub ros_events: u64,
    pub sched_events: u64,
    pub sim_events: u64,
    pub stale_pops: u64,
    pub rebalance_runs: u64,
    pub rebalance_skipped: u64,
    pub kernel_seen: u64,
    pub kernel_exported: u64,
    pub trace_bytes: u64,
    pub encoded_bytes: u64,
    pub peak_watermark: usize,
    pub model_instances: u64,
    pub truth_instances: u64,
}

impl Counts {
    pub fn events(&self) -> u64 {
        self.ros_events + self.sched_events
    }
}

/// Everything one replica run produces.
pub struct Replica {
    pub spans: Spans,
    pub wall: Duration,
    pub counts: Counts,
    /// Each tenant's final live model, in tenant order.
    pub models: Vec<Dag>,
    /// All tenant models merged and canonicalized.
    pub merged: Dag,
    /// Alerts in tenant, then segment order.
    pub alerts: Vec<TenantAlert>,
    /// Tenants whose fused replay model differs from the live model.
    pub replay_mismatches: usize,
    /// Per judged segment: cumulative feed + window model + observe, in
    /// nanoseconds (empty when spans are off).
    pub judge_ns: Vec<f64>,
}

/// The producer-side layers of the fleet shape (simulate and drain).
pub const PRODUCER: [Layer; 4] = [Layer::Build, Layer::RunTraced, Layer::Collect, Layer::Sort];
/// The shard-side layers of the fleet shape (synthesize and judge).
pub const SHARD: [Layer; 6] =
    [Layer::Feed, Layer::Install, Layer::WindowModel, Layer::Observe, Layer::Model, Layer::Merge];

/// Runs the replica over tenants `0..tenants`, building tenant `t`'s world
/// with `build(t)` (called twice: the untraced twin, then the traced one).
pub fn run(
    tenants: usize,
    build: &dyn Fn(usize) -> Ros2World,
    plan: Plan,
    monitor: &MonitorConfig,
    spans_on: bool,
) -> Replica {
    let mut spans = Spans::new(spans_on);
    let mut counts = Counts::default();
    let mut models = Vec::with_capacity(tenants);
    let mut merged = Dag::default();
    let mut store = BaselineStore::new(monitor.clone());
    let mut alerts = Vec::new();
    let mut replay_mismatches = 0;
    let mut judge_ns = Vec::new();
    let judged = [Layer::Feed, Layer::WindowModel, Layer::Observe];
    let started = Instant::now();
    for t in 0..tenants {
        let mut bare = spans.time(Layer::BuildBare, || build(t));
        bare.announce_nodes();
        for _ in 0..plan.total_segments {
            spans.time(Layer::RunBare, || bare.run_for(plan.segment));
        }
        drop(bare);

        let mut world = spans.time(Layer::Build, || build(t));
        world.announce_nodes();
        let mut writer = SegmentWriter::new(Vec::new()).expect("in-memory header write");
        let mut session = SynthesisSession::new();
        let mut seg = TraceSegment::new();
        for k in 0..plan.total_segments {
            spans.time(Layer::RunTraced, || {
                world.start_runtime_tracers();
                world.run_for(plan.segment);
                world.stop_runtime_tracers();
            });
            seg.set_index(k);
            spans.time(Layer::Collect, || world.collect_segment_into(&mut seg));
            spans.time(Layer::Sort, || seg.sort_by_time());
            counts.ros_events += seg.ros_events().len() as u64;
            counts.sched_events += seg.sched_events().len() as u64;
            spans.time(Layer::Encode, || writer.write_segment(&seg)).expect("in-memory write");
            let before = spans.sum(&judged);
            spans.time(Layer::Feed, || session.feed_segment(&seg));
            if k + 1 == plan.baseline_segments {
                spans.time(Layer::Install, || {
                    store.install(t as u64, Baseline::from_dag(&session.model()))
                });
            } else if k >= plan.baseline_segments {
                let snapshot = spans.time(Layer::WindowModel, || {
                    let mut window = SynthesisSession::with_names(session.names().clone());
                    window.feed_segment(&seg);
                    window.model()
                });
                let raised =
                    spans.time(Layer::Observe, || store.observe(t as u64, &snapshot, plan.segment));
                alerts.extend(raised.into_iter().map(|alert| TenantAlert {
                    tenant: t as u64,
                    segment: k as u64,
                    alert,
                }));
                if spans_on {
                    judge_ns.push((spans.sum(&judged) - before) as f64);
                }
            }
            seg.clear_for_reuse(0);
        }
        let model = spans.time(Layer::Model, || session.model());
        merged = spans.time(Layer::Merge, || merge_dag_refs([&merged, &model]));
        let (file, stats) =
            spans.time(Layer::Encode, || writer.finish()).expect("in-memory finish");

        let sim = world.simulator().stats();
        let (seen, exported) = world.kernel_filter_stats();
        counts.sim_events += sim.events;
        counts.stale_pops += sim.stale_pops;
        counts.rebalance_runs += sim.rebalance_runs;
        counts.rebalance_skipped += sim.rebalance_skipped;
        counts.kernel_seen += seen;
        counts.kernel_exported += exported;
        counts.trace_bytes += world.trace_volume_bytes() as u64;
        counts.encoded_bytes += stats.bytes;
        counts.peak_watermark = counts.peak_watermark.max(session.peak_watermark());
        counts.model_instances += model_instances(&model);
        counts.truth_instances += world.ground_truth().instances().len() as u64;
        drop(world);

        spans.time(Layer::Decode, || {
            let mut reader = SegmentReader::new(file.as_slice()).expect("recorded header");
            let mut decoded = TraceSegment::new();
            while reader.read_segment_into(&mut decoded).expect("recorded segment") {}
        });
        let replayed = spans.time(Layer::FeedReader, || {
            let mut reader = SegmentReader::new(file.as_slice()).expect("recorded header");
            let mut replay = SynthesisSession::new();
            replay.feed_reader(&mut reader).expect("recorded file replays");
            replay
        });
        let replay_model = spans.time(Layer::ReplayModel, || replayed.model());
        if replay_model != model {
            replay_mismatches += 1;
        }
        models.push(model);
    }
    spans.time(Layer::Canonicalize, || merged.canonicalize());
    Replica {
        spans,
        wall: started.elapsed(),
        counts,
        models,
        merged,
        alerts,
        replay_mismatches,
        judge_ns,
    }
}

/// Callback instances a model accounts for: the execution-time samples of
/// every vertex.
pub fn model_instances(model: &Dag) -> u64 {
    model.vertices().iter().map(|v| v.stats.count()).sum()
}
