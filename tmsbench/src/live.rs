//! `live_city`: one city-scale app traced live, pipelined, into one
//! session — the paper's main path at AD-stack scale.

use std::time::{Duration, Instant};

use crate::layers;
use crate::replica::{self, Plan};
use crate::report::{self, Outcome};
use crate::{repeat, Args};
use rtms_core::{Dag, SynthesisSession};
use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::Nanos;
use rtms_workloads::{generate_app, GeneratorConfig};

const CPUS: usize = 4;
const SEGMENT_MS: u64 = 250;
/// The city app is generated once from this seed; `--seed` seeds the
/// world's simulation (execution-time sampling), so every seed runs the
/// same AD stack and only its timing varies.
const APP_SEED: u64 = 1000;

fn world(seed: u64) -> Ros2World {
    WorldBuilder::new(CPUS)
        .seed(seed)
        .app(generate_app(APP_SEED, &GeneratorConfig::city()))
        .build()
        .expect("generated city app builds")
}

fn plan(args: &Args) -> Plan {
    let sim_secs = if args.smoke { 2 } else { 40 };
    let total_segments = (sim_secs * 1000 / SEGMENT_MS) as usize;
    Plan {
        segment: Nanos::from_millis(SEGMENT_MS),
        total_segments,
        baseline_segments: total_segments / 3,
    }
}

/// One pipelined run: `Ros2World::trace_segments` (producer on this
/// thread, consumer thread feeding the session), then `model()`.
pub struct Pipelined {
    pub model: Dag,
    pub events: u64,
    pub wall: Duration,
    /// From the last consumer callback's return to `model()` returning.
    pub tail: Duration,
    /// Time spent inside the consumer callback.
    pub busy: Duration,
}

pub fn pipelined(world: &mut Ros2World, plan: Plan) -> Pipelined {
    let mut session = SynthesisSession::new();
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    let mut handed = started;
    world.trace_segments(plan.total(), plan.segment, |seg| {
        let t = Instant::now();
        session.feed_segment(seg);
        handed = Instant::now();
        busy += handed - t;
    });
    let model = session.model();
    let done = Instant::now();
    Pipelined {
        model,
        events: session.events_fed(),
        wall: done - started,
        tail: done - handed,
        busy,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args);
    let seed = args.seed;
    let mut out = Outcome::new();
    if args.trace {
        let mut w = world(seed);
        let live = pipelined(&mut w, plan);
        let monitor = rtms_fleet::fleet_monitor_config();
        let run = layers::replica_pairs(args.seconds, |spans_on| {
            let r = replica::run(1, &|_| world(seed), plan, &monitor, spans_on);
            out.op(r.models[0] == live.model && r.replay_mismatches == 0);
            r
        });
        layers::report(&mut out, &run, live.busy.as_secs_f64() / live.wall.as_secs_f64());
        return Ok(out);
    }

    // The traced sequential replica the pipelined model must equal.
    let reference = {
        let mut w = world(seed);
        let mut session = SynthesisSession::new();
        w.trace_segments_sequential(plan.total(), plan.segment, |seg| session.feed_segment(seg));
        let model = session.model();
        eprintln!(
            "  model instances {} vs ground truth {} (reported, not gated)",
            replica::model_instances(&model),
            w.ground_truth().instances().len()
        );
        model
    };
    let (mut setup, mut eps, mut model_ms) = (Vec::new(), Vec::new(), Vec::new());
    repeat(args.seconds, 3, || {
        let t = Instant::now();
        let mut w = world(seed);
        setup.push(t.elapsed().as_secs_f64());
        let rep = pipelined(&mut w, plan);
        out.op(rep.model == reference);
        eps.push(rep.events as f64 / rep.wall.as_secs_f64());
        model_ms.push(rep.tail.as_secs_f64() * 1e3);
        Ok(())
    })?;
    report::end_to_end(&mut out, &eps, &model_ms, &setup);
    Ok(out)
}
