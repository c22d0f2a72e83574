//! Bare scheduler stepping cost: the discrete-event engine alone, with no
//! sinks (tracers) attached, at 4 / 16 / 64 threads.
//!
//! This isolates the hot loop the indexed runqueue work targets — heap
//! pops, dirty-driven rebalance passes, and slice-check arming — from all
//! trace plumbing. Thread scripts mix three priority buckets, partial
//! affinities, and periodic sleeps, so preemption, round-robin slicing,
//! and wake-driven rebalances all stay on the measured path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtms_sched::{Affinity, PeriodicLoad, Simulator, SimulatorBuilder};
use rtms_trace::{Cpu, Nanos, Priority};
use std::hint::black_box;

const CPUS: usize = 4;
const HORIZON: Nanos = Nanos::from_millis(200);

fn machine(threads: usize) -> Simulator {
    let mut b = SimulatorBuilder::new(CPUS);
    for t in 0..threads {
        let affinity = if t % 4 == 3 {
            Affinity::only(Cpu::new((t % CPUS) as u16))
        } else {
            Affinity::all()
        };
        b.spawn(
            format!("t{t}"),
            Priority::new((t % 3) as i32),
            affinity,
            Box::new(PeriodicLoad::new(
                Nanos::from_millis(2 + (t % 5) as u64),
                Nanos::from_micros(50),
                Nanos::from_micros(900),
                t as u64,
            )),
        );
    }
    b.build()
}

fn bench_sim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    group.sample_size(20);
    for threads in [4usize, 16, 64] {
        // Pin the throughput denominator to the event count this machine
        // actually produces, so Criterion reports events/second.
        let events = {
            let mut sim = machine(threads);
            sim.run_until(HORIZON);
            sim.stats().events
        };
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new("run_until", format!("{threads}thr")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut sim = machine(threads);
                    sim.run_until(HORIZON);
                    black_box(sim.stats().switches)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim_step);
criterion_main!(benches);
