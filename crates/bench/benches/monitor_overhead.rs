//! What online monitoring costs on top of streaming synthesis.
//!
//! `window_synthesis` is the per-segment baseline work a streaming
//! deployment already does: synthesize one window's model from its
//! segment. `window_synthesis_monitored` adds the monitor: the same
//! synthesis plus `Monitor::observe` on the snapshot. The difference is
//! the per-snapshot monitoring overhead; `observe_only` isolates it.

use criterion::{criterion_group, criterion_main, Criterion};
use rtms_core::SynthesisSession;
use rtms_monitor::{Baseline, Monitor};
use rtms_ros2::WorldBuilder;
use rtms_trace::Nanos;
use rtms_workloads::syn_app;
use std::hint::black_box;

fn bench_monitor(c: &mut Criterion) {
    let mut world = WorldBuilder::new(4).seed(7).app(syn_app(1.0)).build().expect("SYN app");

    // Healthy baseline from the first second.
    let mut baseline_session = SynthesisSession::new();
    baseline_session.feed_segment(&world.trace_run(Nanos::from_secs(1)));
    let baseline = Baseline::from_dag(&baseline_session.model());

    // One observation window's segment, pre-collected.
    let segment = world.trace_run(Nanos::from_millis(500));
    let names = baseline_session.names().clone();
    let window = Nanos::from_millis(500);
    let snapshot = {
        let mut s = SynthesisSession::with_names(names.clone());
        s.feed_segment(&segment);
        s.model()
    };

    let mut group = c.benchmark_group("monitor_overhead");
    group.bench_function("window_synthesis", |b| {
        b.iter(|| {
            let mut s = SynthesisSession::with_names(names.clone());
            s.feed_segment(&segment);
            black_box(s.model())
        })
    });
    group.bench_function("window_synthesis_monitored", |b| {
        let mut monitor = Monitor::new(baseline.clone());
        b.iter(|| {
            let mut s = SynthesisSession::with_names(names.clone());
            s.feed_segment(&segment);
            let snap = s.model();
            black_box(monitor.observe(&snap, window))
        })
    });
    group.bench_function("observe_only", |b| {
        let mut monitor = Monitor::new(baseline.clone());
        b.iter(|| black_box(monitor.observe(&snapshot, window)))
    });
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
