//! `replay_mixed`: six generated apps recorded once into an in-memory
//! RTMS-SEG file, then replayed through the fused decode + walker path —
//! the record-once / analyze-many path, with no simulation in the timed
//! part.

use std::time::{Duration, Instant};

use crate::layers;
use crate::replica::{self, Plan};
use crate::report::{self, Outcome};
use crate::{repeat, Args};
use rtms_core::{Dag, SynthesisSession};
use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::{Nanos, SegmentReader, SegmentWriter};
use rtms_workloads::{generate_app, GeneratorConfig};

const CPUS: usize = 4;
const SEGMENT_MS: u64 = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The six apps are generated from seeds `APP_SEED..APP_SEED + 6`;
/// `--seed` seeds the world's simulation, so every seed records the same
/// app mix and only its timing varies.
const APP_SEED: u64 = 1000;

fn world(seed: u64) -> Ros2World {
    let presets = [
        GeneratorConfig::default(),
        GeneratorConfig::default(),
        GeneratorConfig::multi_threaded(),
        GeneratorConfig::multi_threaded(),
        GeneratorConfig::bursty(),
        GeneratorConfig::bursty(),
    ];
    let mut builder = WorldBuilder::new(CPUS).seed(seed);
    for (i, config) in presets.iter().enumerate() {
        builder = builder.app(generate_app(APP_SEED + i as u64, config));
    }
    builder.build().expect("generated apps build")
}

fn plan(args: &Args) -> Plan {
    let sim_secs = if args.smoke { 2 } else { 100 };
    let total_segments = (sim_secs * 1000 / SEGMENT_MS) as usize;
    Plan {
        segment: Nanos::from_millis(SEGMENT_MS),
        total_segments,
        baseline_segments: total_segments / 3,
    }
}

/// One set-up: the world built and recorded, with the live model
/// synthesized from the same segments as they are written.
struct Recording {
    file: Vec<u8>,
    live: Dag,
    truth_instances: usize,
    wall: Duration,
    /// Time spent inside the consumer callback (write + feed).
    busy: Duration,
}

fn record(seed: u64, plan: Plan) -> Result<Recording, String> {
    let started = Instant::now();
    let mut w = world(seed);
    let mut writer = SegmentWriter::new(Vec::new()).map_err(|e| e.to_string())?;
    let mut live = SynthesisSession::new();
    let mut written = Ok(());
    let mut busy = Duration::ZERO;
    w.trace_segments(plan.total(), plan.segment, |seg| {
        let t = Instant::now();
        if written.is_ok() {
            written = writer.write_segment(seg);
        }
        live.feed_segment(seg);
        busy += t.elapsed();
    });
    written.map_err(|e| e.to_string())?;
    let (file, _) = writer.finish().map_err(|e| e.to_string())?;
    let live = live.model();
    Ok(Recording {
        file,
        live,
        truth_instances: w.ground_truth().instances().len(),
        wall: started.elapsed(),
        busy,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args);
    let seed = args.seed;
    let mut out = Outcome::new();
    if args.trace {
        let rec = record(seed, plan)?;
        let monitor = rtms_fleet::fleet_monitor_config();
        let run = layers::replica_pairs(args.seconds, |spans_on| {
            let r = replica::run(1, &|_| world(seed), plan, &monitor, spans_on);
            out.op(r.models[0] == rec.live && r.replay_mismatches == 0);
            r
        });
        layers::report(&mut out, &run, rec.busy.as_secs_f64() / rec.wall.as_secs_f64());
        return Ok(out);
    }

    let mut setup = Vec::new();
    let mut first: Option<Recording> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let rec = record(seed, plan)?;
        setup.push(t.elapsed().as_secs_f64());
        match &first {
            Some(f) if f.file != rec.file || f.live != rec.live => {
                out.wrong("recording the same world twice gave different files or live models")
            }
            Some(_) => {}
            None => first = Some(rec),
        }
    }
    let rec = first.expect("at least one set-up");
    eprintln!(
        "  {} bytes recorded; model instances {} vs ground truth {} (reported, not gated)",
        rec.file.len(),
        replica::model_instances(&rec.live),
        rec.truth_instances
    );

    let (mut eps, mut model_ms) = (Vec::new(), Vec::new());
    repeat(args.seconds, 3, || {
        let started = Instant::now();
        let mut reader = SegmentReader::new(rec.file.as_slice()).map_err(|e| e.to_string())?;
        let mut session = SynthesisSession::new();
        session.feed_reader(&mut reader).map_err(|e| e.to_string())?;
        let eof = Instant::now();
        let model = session.model();
        let done = Instant::now();
        out.op(model == rec.live);
        eps.push(session.events_fed() as f64 / (done - started).as_secs_f64());
        model_ms.push((done - eof).as_secs_f64() * 1e3);
        Ok(())
    })?;
    report::end_to_end(&mut out, &eps, &model_ms, &setup);
    Ok(out)
}
