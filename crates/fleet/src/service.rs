//! The fleet ingestion service: producer threads stream tenant trace
//! segments through per-shard MPSC lanes into shard workers, and the
//! results are aggregated into one [`FleetOutcome`].

use std::mem;
use std::time::Instant;

use crate::config::FleetConfig;
use crate::report::{percentile_us, FleetOutcome, FleetReport, TenantAlert};
use crate::shard::{run_shard, Ingest, ShardOutcome};
use crate::tenant::TenantDirectory;
use rtms_core::merge_dag_refs;
use rtms_monitor::RollupBuilder;
use rtms_ros2::WorldBuilder;
use rtms_trace::Trace;
use rtms_util::mpsc::{lanes, LaneReceiver, LaneSender};

/// Simulated CPU count of every tenant world (the `monitoring`
/// experiment's machine shape).
const SIM_CPUS: usize = 4;
/// Per-producer-lane depth of a shard's ingress ring: deep enough to
/// absorb a slow synthesis window, shallow enough that in-flight segments
/// stay cache-warm (same reasoning as the PR 8 trace pipeline).
const DATA_LANE_SLOTS: usize = 4;
/// Per-shard-lane depth of a producer's slab-return ring: sized above the
/// data depth so a returned slab is only dropped when the producer is
/// genuinely far ahead.
const FREE_LANE_SLOTS: usize = 2 * DATA_LANE_SLOTS;

/// Runs the fleet ingestion service to completion and aggregates the
/// results.
///
/// Topology: `config.producers` producer threads each simulate their
/// tenants **sequentially** (tenant `t` belongs to producer
/// `t % producers`), streaming each tenant's trace segments — slabs
/// recycled through a per-producer return ring — into the ingress lanes
/// of the shard that owns the tenant (`fnv1a(t) % shards`). Each of the
/// `config.shards` shard workers owns the full synthesis + monitoring
/// state of its tenants (the crate-private `shard` module); no tenant
/// state is ever
/// shared between threads, and shard memory scales with *producers*
/// (tenants mid-stream), not with the tenant count.
///
/// The fleet model is aggregated hierarchically: each shard eagerly
/// merges its finished tenants' models (arrival order), the service
/// merges the shard models (shard order) with [`merge_dag_refs`], and a
/// final [`rtms_core::Dag::canonicalize`] makes the result — like the
/// sorted alert stream and the rollup built from it — **byte-identical
/// for any shard or producer count**, which the fleet determinism suite
/// pins.
///
/// # Errors
///
/// Returns a description of the first invalid configuration field or
/// tenant world that fails to build.
pub fn run(config: &FleetConfig) -> Result<FleetOutcome, String> {
    config.validate()?;
    let dir = TenantDirectory::new(config);
    let plan = config.plan();

    // data_tx[p][s]: producer p's sender into shard s's ingress.
    let mut data_tx: Vec<Vec<LaneSender<Ingest>>> =
        (0..config.producers).map(|_| Vec::with_capacity(config.shards)).collect();
    let mut data_rx: Vec<LaneReceiver<Ingest>> = Vec::with_capacity(config.shards);
    for _ in 0..config.shards {
        let (txs, rx) = lanes(config.producers, DATA_LANE_SLOTS);
        for (p, tx) in txs.into_iter().enumerate() {
            data_tx[p].push(tx);
        }
        data_rx.push(rx);
    }
    // free_tx[s][p]: shard s's slab-return sender toward producer p.
    let mut free_tx: Vec<Vec<LaneSender<Trace>>> =
        (0..config.shards).map(|_| Vec::with_capacity(config.producers)).collect();
    let mut free_rx: Vec<LaneReceiver<Trace>> = Vec::with_capacity(config.producers);
    for _ in 0..config.producers {
        let (txs, rx) = lanes(config.shards, FREE_LANE_SLOTS);
        for (s, tx) in txs.into_iter().enumerate() {
            free_tx[s].push(tx);
        }
        free_rx.push(rx);
    }

    let started = Instant::now();
    let monitor = &config.monitor;
    let dir_ref = &dir;
    let (outcomes, produced) = std::thread::scope(|scope| {
        let shard_handles: Vec<_> = data_rx
            .into_iter()
            .zip(free_tx)
            .map(|(rx, free)| scope.spawn(move || run_shard(dir_ref, plan, monitor, rx, free)))
            .collect();
        let producer_handles: Vec<_> = data_tx
            .into_iter()
            .zip(free_rx)
            .enumerate()
            .map(|(p, (txs, rx))| scope.spawn(move || run_producer(p, dir_ref, plan, txs, rx)))
            .collect();
        let produced: Vec<Result<(), String>> =
            producer_handles.into_iter().map(|h| h.join().expect("producer panicked")).collect();
        let outcomes: Vec<ShardOutcome> =
            shard_handles.into_iter().map(|h| h.join().expect("shard panicked")).collect();
        (outcomes, produced)
    });
    produced.into_iter().collect::<Result<(), String>>()?;
    let wall_secs = started.elapsed().as_secs_f64();

    // Hierarchical merge: shard-local models (already merged per shard)
    // merged in shard order, then canonicalized into the
    // order-independent fleet model.
    let mut model = merge_dag_refs(outcomes.iter().map(|o| &o.model));
    model.canonicalize();

    let mut alerts: Vec<TenantAlert> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut events = 0u64;
    let mut segments = 0u64;
    let mut peak_session_watermark = 0usize;
    let mut peak_baseline_bytes = 0usize;
    let mut peak_retained_episodes = 0usize;
    for o in outcomes {
        alerts.extend(o.alerts);
        latencies.extend(o.latencies_us);
        events += o.events;
        segments += o.segments;
        peak_session_watermark = peak_session_watermark.max(o.peak_session_watermark);
        peak_baseline_bytes = peak_baseline_bytes.max(o.peak_baseline_bytes);
        peak_retained_episodes = peak_retained_episodes.max(o.peak_retained_episodes);
    }
    alerts.sort();
    latencies.sort_unstable();

    let mut rollup = RollupBuilder::new();
    for ta in &alerts {
        rollup.add(ta.tenant, &ta.alert);
    }
    let rollup = rollup.build();

    let recall = fleet_recall(&dir, plan.segment, &alerts);
    let healthy_alerts =
        alerts.iter().filter(|ta| ta.tenant >= dir.faults() as u64).count() as u64;

    let report = FleetReport {
        tenants: config.tenants,
        shards: config.shards,
        producers: config.producers,
        faults: dir.faults(),
        events,
        segments,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 },
        p50_ingest_us: percentile_us(&latencies, 0.50),
        p99_ingest_us: percentile_us(&latencies, 0.99),
        alerts: alerts.len() as u64,
        alerts_per_sec: if wall_secs > 0.0 { alerts.len() as f64 / wall_secs } else { 0.0 },
        distinct_causes: rollup.distinct_causes,
        dedup_ratio: rollup.dedup_ratio(),
        recall,
        healthy_alerts,
        peak_session_watermark,
        peak_baseline_bytes,
        peak_retained_episodes,
        model_vertices: model.vertices().len(),
        model_edges: model.edges().len(),
    };
    Ok(FleetOutcome { report, model, rollup, alerts })
}

/// Producer `p`'s loop: simulate each owned tenant sequentially and
/// stream its segments to the owning shards, preferring recycled slabs
/// from the return ring over fresh allocations.
fn run_producer(
    p: usize,
    dir: &TenantDirectory,
    plan: crate::config::SegmentPlan,
    mut txs: Vec<LaneSender<Ingest>>,
    mut free: LaneReceiver<Trace>,
) -> Result<(), String> {
    for tenant in dir.tenants_of_producer(p) {
        let (app, preset) = dir.image_of(tenant);
        let mut builder =
            WorldBuilder::new(SIM_CPUS).seed(dir.world_seed(tenant)).app(app.clone());
        if dir.is_faulted(tenant) {
            let scenario = dir.faulty().expect("faulted tenant implies scenario");
            builder = builder.fault_plan(scenario.plan.clone());
        }
        let mut world = builder
            .build()
            .map_err(|e| format!("tenant {tenant} ({preset} image) failed to build: {e}"))?;
        let shard = dir.shard_of(tenant);
        world.trace_segments_sequential(plan.total(), plan.segment, |seg| {
            // Hand the filled slab to the shard and leave a recycled (or
            // fresh) one behind for the collector to refill.
            let replacement = free.try_recv().unwrap_or_default();
            let owned = mem::replace(seg, replacement);
            // A rejected send means the shard is gone, which only happens
            // if it panicked; the panic surfaces at the scope join.
            let _ = txs[shard].send(Ingest { tenant, sent: Instant::now(), seg: owned });
        });
    }
    Ok(())
}

/// Mean detection recall over faulted tenants: for each faulted tenant,
/// the fraction of its injected faults matched by one of that tenant's
/// alerts at or after the fault's activation segment (the `monitoring`
/// experiment's scoring rule, applied per tenant). `1.0` when no tenant
/// is faulted.
fn fleet_recall(dir: &TenantDirectory, segment: rtms_trace::Nanos, alerts: &[TenantAlert]) -> f64 {
    let Some(scenario) = dir.faulty() else { return 1.0 };
    if dir.faults() == 0 || scenario.truth.is_empty() {
        return 1.0;
    }
    let mut detected = 0usize;
    let mut total = 0usize;
    for tenant in 0..dir.faults() as u64 {
        for fault in &scenario.truth {
            total += 1;
            let fault_segment = fault.at.as_nanos() / segment.as_nanos();
            if alerts.iter().any(|ta| {
                ta.tenant == tenant
                    && ta.segment >= fault_segment
                    && fault.is_detected_by(&ta.alert)
            }) {
                detected += 1;
            }
        }
    }
    detected as f64 / total as f64
}

/// Per-tenant recall map for faulted tenants (tenant → fraction of its
/// injected faults detected); empty when the fleet is fault-free. The
/// experiment binary asserts every value is exactly `1.0`.
pub fn per_tenant_recall(
    dir: &TenantDirectory,
    segment: rtms_trace::Nanos,
    alerts: &[TenantAlert],
) -> Vec<(u64, f64)> {
    let Some(scenario) = dir.faulty() else { return Vec::new() };
    if scenario.truth.is_empty() {
        return (0..dir.faults() as u64).map(|t| (t, 1.0)).collect();
    }
    (0..dir.faults() as u64)
        .map(|tenant| {
            let detected = scenario
                .truth
                .iter()
                .filter(|fault| {
                    let fault_segment = fault.at.as_nanos() / segment.as_nanos();
                    alerts.iter().any(|ta| {
                        ta.tenant == tenant
                            && ta.segment >= fault_segment
                            && fault.is_detected_by(&ta.alert)
                    })
                })
                .count();
            (tenant, detected as f64 / scenario.truth.len() as f64)
        })
        .collect()
}
