//! Streaming synthesis experiment: trace one long run as bounded segments,
//! synthesize incrementally, and assert the memory watermark.
//!
//! The run is `secs` of the SYN application collected as `segment_ms`
//! segments (the Fig. 2 stop/store/restart cycle). Each segment is fed to a
//! `SynthesisSession` and dropped, so peak retained memory is bounded by
//! the segment size — asserted via the session's watermark counter, not
//! wall-clock guesswork. With `compare=1` (the default) the run is *also*
//! accumulated into one monolithic trace, batch-synthesized, and checked
//! byte-identical against the streamed model, reporting the wall-clock of
//! both paths.
//!
//! Usage: `cargo run --release -p rtms-bench --bin streaming -- [secs=20]
//! [segment_ms=250] [seed=0] [compare=1] [format=text|json]`

use rtms_bench::{Defaults, ExperimentArgs};
use rtms_core::{synthesize, SynthesisSession};
use rtms_ros2::WorldBuilder;
use rtms_trace::{Nanos, Trace};
use rtms_workloads::syn_app;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    secs: u64,
    segment_ms: u64,
    seed: u64,
    segments: usize,
    events_total: u64,
    peak_segment_events: usize,
    peak_watermark: usize,
    watermark_bound: usize,
    watermark_ok: bool,
    retention_ratio: f64,
    model_vertices: usize,
    model_edges: usize,
    streaming_synth_ms: f64,
    /// Wall-clock of the whole pipelined collect→synthesize run, from
    /// first segment collection to the final model.
    e2e_ms: f64,
    /// Events through the end-to-end pipeline per wall-clock second.
    e2e_events_per_sec: f64,
    compared: bool,
    batch_synth_ms: f64,
    models_equal: bool,
}

fn main() {
    let args = ExperimentArgs::parse_or_exit(
        "streaming [secs=20] [segment_ms=250] [seed=0] [compare=1] [format=text|json]",
        Defaults::single_run(20, 0),
        &["segment_ms", "compare"],
    );
    let segment_ms = args.extra_u64("segment_ms", 250).max(1);
    let compare = args.extra_u64("compare", 1) != 0;

    eprintln!(
        "streaming: SYN app, {}s as {}ms segments (compare={}) ...",
        args.secs(),
        segment_ms,
        u64::from(compare)
    );

    let mut world = WorldBuilder::new(4)
        .seed(args.seed())
        .app(syn_app(1.0))
        .build()
        .expect("SYN app is valid");

    let mut session = SynthesisSession::new();
    // Comparison bookkeeping stays off the timed path: segments are kept
    // by move (no per-event clones inside the e2e window) and the
    // reference trace is assembled afterwards.
    let mut kept: Vec<Trace> = Vec::new();
    let mut streaming_synth = 0.0f64;
    let e2e_start = Instant::now();
    world.trace_segments(args.duration(), Nanos::from_millis(segment_ms), |segment| {
        let t = Instant::now();
        session.feed_segment(segment);
        streaming_synth += t.elapsed().as_secs_f64();
        if compare {
            kept.push(std::mem::take(segment));
        }
    });
    let t = Instant::now();
    let streamed = session.model();
    streaming_synth += t.elapsed().as_secs_f64();
    let e2e = e2e_start.elapsed().as_secs_f64();

    let (batch_synth_ms, models_equal) = match compare {
        true => {
            let (mut ros, mut sched) = (Vec::new(), Vec::new());
            for segment in kept {
                let (r, s) = segment.into_events();
                ros.extend(r);
                sched.extend(s);
            }
            let mut full = Trace::from_events(ros, sched);
            full.sort_by_time();
            let t = Instant::now();
            let batch = synthesize(&full);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let a = serde_json::to_string(&batch).expect("model serializes");
            let b = serde_json::to_string(&streamed).expect("model serializes");
            (ms, a == b)
        }
        false => (0.0, true),
    };

    // The retained-memory contract: the session's peak watermark (segment
    // events + carried derived entries) is bounded by the segment size —
    // the slack covers in-flight interactions straddling a boundary.
    let watermark_bound = 2 * session.peak_segment_events() + 64;
    let watermark_ok = session.peak_watermark() <= watermark_bound;
    let report = Report {
        secs: args.secs(),
        segment_ms,
        seed: args.seed(),
        segments: session.segments_fed(),
        events_total: session.events_fed(),
        peak_segment_events: session.peak_segment_events(),
        peak_watermark: session.peak_watermark(),
        watermark_bound,
        watermark_ok,
        retention_ratio: session.events_fed() as f64 / session.peak_watermark().max(1) as f64,
        model_vertices: streamed.vertices().len(),
        model_edges: streamed.edges().len(),
        streaming_synth_ms: streaming_synth * 1e3,
        e2e_ms: e2e * 1e3,
        e2e_events_per_sec: session.events_fed() as f64 / e2e.max(1e-12),
        compared: compare,
        batch_synth_ms,
        models_equal,
    };

    assert!(
        report.watermark_ok,
        "peak watermark {} exceeds the segment-size bound {}",
        report.peak_watermark, report.watermark_bound
    );
    assert!(report.models_equal, "streamed model diverged from batch synthesis");

    if args.json() {
        println!("{}", serde_json::to_string(&report).expect("report serializes"));
        return;
    }

    println!(
        "Streaming synthesis: {}s of SYN as {} segments of {} ms",
        report.secs, report.segments, report.segment_ms
    );
    println!();
    println!(
        "events:    {} total, largest segment {}",
        report.events_total, report.peak_segment_events
    );
    println!(
        "memory:    peak watermark {} event-equivalents (bound {}), {:.0}x smaller than the run",
        report.peak_watermark, report.watermark_bound, report.retention_ratio
    );
    println!(
        "model:     {} vertices, {} edges",
        report.model_vertices, report.model_edges
    );
    println!("synthesis: streaming {:.2} ms", report.streaming_synth_ms);
    println!(
        "e2e:       {:.2} ms collect+synthesize pipelined, {:.0} events/s",
        report.e2e_ms, report.e2e_events_per_sec
    );
    if report.compared {
        println!(
            "           batch     {:.2} ms on the materialized trace (models byte-identical: {})",
            report.batch_synth_ms, report.models_equal
        );
    }
}
