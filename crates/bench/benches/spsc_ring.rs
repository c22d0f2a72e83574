//! Segment-handoff throughput: the hand-rolled SPSC ring
//! (`rtms_util::spsc`) vs `std::sync::mpsc::sync_channel` moving recycled
//! trace-segment slabs between two threads — the exact transport pattern
//! `trace_segments_pipelined` runs (forward data path + reverse free
//! path), at both granularities the pipeline sees in practice:
//!
//! - `seg250ms` — a handful of large segments, where per-handoff overhead
//!   is amortized over thousands of events;
//! - `seg1ev` — one-event segments, where the handoff itself dominates
//!   and the two transports separate most clearly.
//!
//! Each iteration is one full pass: every segment crosses to a consumer
//! thread and comes back through the reverse path, so steady state moves
//! only pointers, never buffers. The transport (and its consumer thread)
//! lives across iterations — thread startup is never on the timed path.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use rtms_ros2::WorldBuilder;
use rtms_trace::{split_by_events, Nanos, Trace};
use rtms_util::spsc;
use rtms_workloads::syn_app;
use std::hint::black_box;

/// Forward-ring capacity, matching `trace_segments_pipelined`.
const DATA_SLOTS: usize = 4;

/// One-event segments are capped here so a single pass stays in the
/// range the harness samples well.
const MAX_FINE_SEGMENTS: usize = 2048;

fn bench_ring_pass(b: &mut Bencher, segments: &[Trace]) {
    let total = segments.len();
    let (mut data_tx, mut data_rx) = spsc::ring::<Trace>(DATA_SLOTS);
    // Sized to hold every slab at once, so the consumer's hand-back can
    // never block on a full ring.
    let (mut free_tx, mut free_rx) = spsc::ring::<Trace>(total.max(2 * DATA_SLOTS));
    let consumer = std::thread::spawn(move || {
        while let Some(segment) = data_rx.pop_wait() {
            black_box(segment.len());
            if free_tx.push(segment).is_err() {
                break;
            }
        }
    });
    let mut stash = segments.to_vec();
    let mut returned: Vec<Trace> = Vec::with_capacity(total);
    b.iter(|| {
        for segment in stash.drain(..) {
            while let Some(back) = free_rx.try_pop() {
                returned.push(back);
            }
            assert!(data_tx.push(segment).is_ok(), "consumer died mid-pass");
        }
        while returned.len() < total {
            match free_rx.try_pop() {
                Some(back) => returned.push(back),
                None => std::thread::yield_now(),
            }
        }
        std::mem::swap(&mut stash, &mut returned);
    });
    drop(data_tx);
    consumer.join().expect("consumer thread");
}

/// The same round-trip over `std::sync::mpsc::sync_channel`, the standard
/// library's bounded channel, as the baseline the ring is judged against.
fn bench_channel_pass(b: &mut Bencher, segments: &[Trace]) {
    let total = segments.len();
    let (data_tx, data_rx) = std::sync::mpsc::sync_channel::<Trace>(DATA_SLOTS);
    let (free_tx, free_rx) = std::sync::mpsc::sync_channel::<Trace>(total.max(2 * DATA_SLOTS));
    let consumer = std::thread::spawn(move || {
        while let Ok(segment) = data_rx.recv() {
            black_box(segment.len());
            if free_tx.send(segment).is_err() {
                break;
            }
        }
    });
    let mut stash = segments.to_vec();
    let mut returned: Vec<Trace> = Vec::with_capacity(total);
    b.iter(|| {
        for segment in stash.drain(..) {
            while let Ok(back) = free_rx.try_recv() {
                returned.push(back);
            }
            assert!(data_tx.send(segment).is_ok(), "consumer died mid-pass");
        }
        while returned.len() < total {
            match free_rx.try_recv() {
                Ok(back) => returned.push(back),
                Err(_) => std::thread::yield_now(),
            }
        }
        std::mem::swap(&mut stash, &mut returned);
    });
    drop(data_tx);
    consumer.join().expect("consumer thread");
}

fn bench_spsc_ring(c: &mut Criterion) {
    // Pipeline-granularity segments: 2 s of SYN as 250 ms slabs.
    let mut world = WorldBuilder::new(4).seed(7).app(syn_app(1.0)).build().expect("SYN app");
    let mut coarse: Vec<Trace> = Vec::new();
    world.trace_segments_sequential(Nanos::from_secs(2), Nanos::from_millis(250), |s| {
        coarse.push(std::mem::take(s));
    });

    // Handoff-bound segments: the same workload split one event apiece.
    let mut world = WorldBuilder::new(4).seed(7).app(syn_app(1.0)).build().expect("SYN app");
    let trace = world.trace_run(Nanos::from_millis(500));
    let mut fine = split_by_events(&trace, 1);
    fine.truncate(MAX_FINE_SEGMENTS);

    let mut group = c.benchmark_group("spsc_ring");
    for (granularity, segments) in [("seg250ms", &coarse), ("seg1ev", &fine)] {
        let events: u64 = segments.iter().map(|s| s.len() as u64).sum();
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new("ring", granularity),
            segments.as_slice(),
            bench_ring_pass,
        );
        group.bench_with_input(
            BenchmarkId::new("sync_channel", granularity),
            segments.as_slice(),
            bench_channel_pass,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spsc_ring);
criterion_main!(benches);
