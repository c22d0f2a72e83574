//! Indexed-vs-reference engine differential suite.
//!
//! The indexed engine (bucketed runqueue, dirty-driven rebalance, virtual
//! slice slots) must emit a `SchedEvent` stream *byte-identical* to the
//! pre-refactor engine, which is kept selectable via
//! [`SimulatorBuilder::reference_engine`] exactly for this comparison.
//! Randomized machines cover contended priorities, mixed affinities,
//! sleeping/waking scripts, and long-lived periodic load.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtms_sched::{Affinity, Op, PeriodicLoad, ScriptedLogic, Simulator, SimulatorBuilder};
use rtms_trace::{Cpu, Nanos, Priority, SchedEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// Spawns a seed-determined machine: a few scripted threads with random
/// priorities, affinities, and compute/sleep scripts, plus one periodic
/// load thread that outlives the horizon. Both engines get the same seed,
/// so they see identical op sequences.
fn spawn_machine(seed: u64, cpus: usize, b: &mut SimulatorBuilder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = rng.gen_range(2..=8usize);
    for t in 0..threads {
        // A narrow priority range keeps several threads in one bucket, so
        // round-robin slicing and FIFO order inside a bucket are exercised.
        let prio = Priority::new(rng.gen_range(0..3));
        let affinity = if rng.gen_bool(0.3) {
            Affinity::only(Cpu::new(rng.gen_range(0..cpus) as u16))
        } else {
            Affinity::all()
        };
        let ops = rng.gen_range(2..=6usize);
        let mut script = Vec::with_capacity(ops);
        let mut wake = Nanos::ZERO;
        for _ in 0..ops {
            if rng.gen_bool(0.6) {
                script.push(Op::Compute(Nanos::from_micros(rng.gen_range(100..=4_000))));
            } else {
                wake += Nanos::from_micros(rng.gen_range(500..=6_000));
                script.push(Op::sleep_until(wake));
            }
        }
        b.spawn(format!("t{t}"), prio, affinity, Box::new(ScriptedLogic::new(script)));
    }
    b.spawn(
        "load",
        Priority::new(0),
        Affinity::all(),
        Box::new(PeriodicLoad::new(
            Nanos::from_millis(3),
            Nanos::from_micros(200),
            Nanos::from_micros(1_500),
            seed ^ 0x10ad,
        )),
    );
}

/// A finished machine and the full event stream its sink collected.
type Run = (Simulator, Vec<SchedEvent>);

/// Builds the machine, attaches a collector sink, and runs it to `until`.
fn run_collected(b: SimulatorBuilder, until: Nanos) -> Run {
    let mut sim = b.build();
    let events = Rc::new(RefCell::new(Vec::new()));
    sim.add_sink(Box::new(Rc::clone(&events)));
    sim.run_until(until);
    let events = events.take();
    (sim, events)
}

fn run(seed: u64, cpus: usize, reference: bool) -> Run {
    let mut b = SimulatorBuilder::new(cpus);
    if reference {
        b = b.reference_engine();
    }
    spawn_machine(seed, cpus, &mut b);
    run_collected(b, Nanos::from_millis(40))
}

fn assert_identical(
    (indexed, indexed_events): &Run,
    (reference, reference_events): &Run,
    seed: u64,
) {
    assert_eq!(indexed_events, reference_events, "sched stream diverged (seed {seed})");
    assert_eq!(indexed.stats().switches, reference.stats().switches, "seed {seed}");
    for pid in indexed.pids() {
        assert_eq!(indexed.cpu_time(pid), reference.cpu_time(pid), "seed {seed}");
        assert_eq!(indexed.is_alive(pid), reference.is_alive(pid), "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random machines on 1/2/4 cores: the two engines are event-for-event
    /// identical, including switch counts and per-thread CPU accounting.
    #[test]
    fn engines_agree_on_random_machines(seed in 0u64..1_000_000) {
        for cpus in [1usize, 2, 4] {
            let indexed = run(seed, cpus, false);
            let reference = run(seed, cpus, true);
            assert_identical(&indexed, &reference, seed);
        }
    }
}

/// More cores than runnable threads: rebalance fills idle CPUs without any
/// preemption, and slice suppression kicks in for uncontended buckets.
#[test]
fn engines_agree_when_cores_outnumber_threads() {
    for seed in [3u64, 17, 92] {
        let indexed = run(seed, 8, false);
        let reference = run(seed, 8, true);
        assert_identical(&indexed, &reference, seed);
    }
}

/// A single-priority pile-up on one core: pure round-robin, the worst case
/// for slice-check traffic and FIFO-order preservation.
#[test]
fn engines_agree_on_single_bucket_round_robin() {
    let build = |reference: bool| {
        let mut b = SimulatorBuilder::new(1);
        if reference {
            b = b.reference_engine();
        }
        for t in 0..5u64 {
            b.spawn(
                format!("rr{t}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![
                    Op::Compute(Nanos::from_millis(2 + t % 2)),
                    Op::sleep_until(Nanos::from_millis(12)),
                    Op::Compute(Nanos::from_millis(1)),
                ])),
            );
        }
        run_collected(b, Nanos::from_millis(30))
    };
    assert_identical(&build(false), &build(true), 0);
}
