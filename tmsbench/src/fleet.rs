//! `fleet_watch`: the sharded fleet service (`rtms_fleet::run`) watching
//! 64 tenants, 4 of them faulted, with one producer and one shard.

use std::time::Instant;

use crate::layers;
use crate::replica::{self, Plan, SHARD};
use crate::report::{self, Outcome};
use crate::{repeat, Args};
use rtms_fleet::{per_tenant_recall, FleetConfig, TenantAlert, TenantDirectory};
use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::Nanos;

/// Simulated CPUs per tenant world, as in the service.
const CPUS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(args: &Args) -> FleetConfig {
    let (tenants, faults, secs) = if args.smoke { (8, 2, 2) } else { (64, 4, 8) };
    let mut config = FleetConfig::new(tenants, 1);
    config.producers = 1;
    config.faults = faults;
    config.secs = secs;
    config.segment_ms = 500;
    config.seed = args.seed;
    config
}

/// Tenant `t`'s world, built exactly as the service's producer builds it.
fn tenant_world(dir: &TenantDirectory, t: usize) -> Ros2World {
    let (app, _) = dir.image_of(t);
    let mut builder = WorldBuilder::new(CPUS).seed(dir.world_seed(t)).app(app.clone());
    if let Some(scenario) = dir.faulty().filter(|_| dir.is_faulted(t)) {
        builder = builder.fault_plan(scenario.plan.clone());
    }
    builder.build().expect("fleet tenant world builds")
}

/// One operation per tenant: a healthy tenant fails if it raised any
/// alert, a faulted one if it missed any injected fault. Returns the
/// failed tenants.
fn score(
    out: &mut Outcome,
    dir: &TenantDirectory,
    segment: Nanos,
    alerts: &[TenantAlert],
) -> Vec<usize> {
    let recall = per_tenant_recall(dir, segment, alerts);
    let mut failed = Vec::new();
    for t in 0..dir.tenants() {
        let ok = if dir.is_faulted(t) {
            recall.iter().any(|&(tenant, r)| tenant == t as u64 && r >= 1.0)
        } else {
            !alerts.iter().any(|a| a.tenant == t as u64)
        };
        out.op(ok);
        if !ok {
            failed.push(t);
        }
    }
    failed
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config(args);
    let fleet_plan = config.plan();
    let plan = Plan {
        segment: fleet_plan.segment,
        total_segments: fleet_plan.total_segments,
        baseline_segments: fleet_plan.baseline_segments,
    };
    let mut out = Outcome::new();
    let mut setup = Vec::new();
    let mut dir = None;
    for _ in 0..SETUPS {
        // The directory, plus every tenant world built once as a
        // pre-flight check: the service would only find a world that
        // fails to build mid-run.
        let t = Instant::now();
        let built = TenantDirectory::new(&config);
        for tenant in 0..built.tenants() {
            drop(tenant_world(&built, tenant));
        }
        setup.push(t.elapsed().as_secs_f64());
        dir = Some(built);
    }
    let dir = dir.expect("at least one set-up");

    if args.trace {
        let started = Instant::now();
        let service = rtms_fleet::run(&config)?;
        let service_wall = started.elapsed().as_secs_f64();
        let mut failed = Vec::new();
        let run = layers::replica_pairs(args.seconds, |spans_on| {
            let mut r = replica::run(
                config.tenants,
                &|t| tenant_world(&dir, t),
                plan,
                &config.monitor,
                spans_on,
            );
            r.alerts.sort();
            if r.merged != service.model || r.alerts != service.alerts {
                out.wrong("replica model or alerts differ from the service's");
            }
            if r.replay_mismatches != 0 {
                out.wrong("a tenant's replayed model differs from its live model");
            }
            failed = score(&mut out, &dir, plan.segment, &r.alerts);
            r
        });
        // The shard thread's busy time is not observable from outside the
        // service; its replica counterpart stands in for it.
        let shard_s: Vec<f64> =
            run.traced.iter().map(|r| r.spans.sum(&SHARD) as f64 / 1e9).collect();
        layers::report(&mut out, &run, report::median(&shard_s) / service_wall);
        report_failed(&dir, &failed);
        return Ok(out);
    }

    let mut first: Option<rtms_fleet::FleetOutcome> = None;
    let mut failed = Vec::new();
    let (mut eps, mut model_ms) = (Vec::new(), Vec::new());
    repeat(args.seconds, 3, || {
        let started = Instant::now();
        let outcome = rtms_fleet::run(&config)?;
        let wall = started.elapsed().as_secs_f64();
        eps.push(outcome.report.events as f64 / wall);
        // Time outside the service's streaming window: directory and lane
        // set-up before it, cross-shard merge, canonicalize, rollup and
        // scoring after it.
        model_ms.push((wall - outcome.report.wall_secs) * 1e3);
        failed = score(&mut out, &dir, plan.segment, &outcome.alerts);
        match &first {
            Some(f) if f.model != outcome.model || f.alerts != outcome.alerts => {
                out.wrong("two runs of the same fleet gave different models or alerts")
            }
            Some(_) => {}
            None => first = Some(outcome),
        }
        Ok(())
    })?;
    report::end_to_end(&mut out, &eps, &model_ms, &setup);
    report_failed(&dir, &failed);
    Ok(out)
}

/// Names the tenants that failed in the last repetition (the service is
/// deterministic, so every repetition fails the same ones).
fn report_failed(dir: &TenantDirectory, failed: &[usize]) {
    if !failed.is_empty() {
        eprintln!(
            "  {} of {} tenants failed (faulted are 0..{}): {failed:?}",
            failed.len(),
            dir.tenants(),
            dir.faults()
        );
    }
}
