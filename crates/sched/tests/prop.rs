//! Property-based tests of the scheduler simulator: conservation laws and
//! event-stream invariants under randomized workloads.

use proptest::prelude::*;
use rtms_sched::{Affinity, Op, ScriptedLogic, Simulator, SimulatorBuilder};
use rtms_trace::{Nanos, Pid, Priority, SchedEvent, SchedEventKind};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone)]
struct ThreadPlan {
    prio: i32,
    ops: Vec<(u64, u64)>, // (compute us, subsequent sleep us)
}

fn arb_plan() -> impl Strategy<Value = ThreadPlan> {
    (
        0i32..3,
        proptest::collection::vec((1u64..5_000, 0u64..5_000), 1..6),
    )
        .prop_map(|(prio, ops)| ThreadPlan { prio, ops })
}

/// Attaches a collector sink and returns the stream it fills.
fn collector(sim: &mut Simulator) -> Rc<RefCell<Vec<SchedEvent>>> {
    let events = Rc::new(RefCell::new(Vec::new()));
    sim.add_sink(Box::new(Rc::clone(&events)));
    events
}

fn build(plans: &[ThreadPlan], cpus: usize) -> (Simulator, Vec<(Pid, Nanos)>) {
    let mut b = SimulatorBuilder::new(cpus);
    let mut expect = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let mut ops = Vec::new();
        let mut total = Nanos::ZERO;
        let mut wall = Nanos::ZERO;
        for &(c, s) in &plan.ops {
            let c = Nanos::from_micros(c);
            ops.push(Op::Compute(c));
            total += c;
            wall += c;
            if s > 0 {
                wall += Nanos::from_micros(s);
                ops.push(Op::sleep_until(wall));
            }
        }
        let pid = b.spawn(
            format!("t{i}"),
            Priority::new(plan.prio),
            Affinity::all(),
            Box::new(ScriptedLogic::new(ops)),
        );
        expect.push((pid, total));
    }
    (b.build(), expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every thread eventually receives exactly the CPU time it asked for,
    /// regardless of contention, priorities, or sleep patterns.
    #[test]
    fn cpu_time_conservation(plans in proptest::collection::vec(arb_plan(), 1..6), cpus in 1usize..4) {
        let (mut sim, expect) = build(&plans, cpus);
        // Generous horizon: total work + total sleep is far below 1s.
        sim.run_until(Nanos::from_secs(2));
        for (pid, total) in expect {
            prop_assert_eq!(sim.cpu_time(pid), total, "thread {} shortchanged", pid);
            prop_assert!(!sim.is_alive(pid), "thread {} should have exited", pid);
        }
    }

    /// Busy time per core equals the sum of thread runtimes (work is never
    /// double-counted or lost across cores).
    #[test]
    fn busy_time_conservation(plans in proptest::collection::vec(arb_plan(), 1..6), cpus in 1usize..4) {
        let (mut sim, expect) = build(&plans, cpus);
        sim.run_until(Nanos::from_secs(2));
        let total_thread: u64 = expect.iter().map(|(p, _)| sim.cpu_time(*p).as_nanos()).sum();
        let total_busy: u64 = (0..cpus)
            .map(|c| sim.busy_time(rtms_trace::Cpu::new(c as u16)).as_nanos())
            .sum();
        prop_assert_eq!(total_thread, total_busy);
    }

    /// The sched_switch stream is per-CPU continuous: the `prev` of each
    /// switch equals the `next` of the previous switch on the same CPU,
    /// and timestamps never go backwards.
    #[test]
    fn switch_stream_continuity(plans in proptest::collection::vec(arb_plan(), 1..6), cpus in 1usize..4) {
        let (mut sim, _) = build(&plans, cpus);
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_secs(2));
        let mut current = vec![Pid::IDLE; cpus];
        let mut prev_time = Nanos::ZERO;
        for ev in events.borrow().iter() {
            prop_assert!(ev.time >= prev_time);
            prev_time = ev.time;
            if let SchedEventKind::Switch { prev_pid, next_pid, .. } = &ev.kind {
                prop_assert_eq!(*prev_pid, current[ev.cpu.index()]);
                prop_assert_ne!(prev_pid, next_pid);
                current[ev.cpu.index()] = *next_pid;
            }
        }
    }

    /// A strictly higher-priority thread is never left waiting while a
    /// lower-priority thread occupies a core it may use: at every switch
    /// instant, the next thread's priority is at least that of any thread
    /// woken earlier and still waiting. (Weak form: the highest-priority
    /// thread in the system finishes no later than it would alone.)
    #[test]
    fn high_priority_unimpeded_on_own_core(work_us in 100u64..5_000) {
        let mut b = SimulatorBuilder::new(1);
        let low = b.spawn(
            "low",
            Priority::new(0),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::Compute(Nanos::from_millis(50))])),
        );
        let high = b.spawn(
            "high",
            Priority::new(5),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::Compute(Nanos::from_micros(work_us))])),
        );
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(100));
        // High preempts immediately at t=0 and runs to completion.
        let done = events
            .borrow()
            .iter()
            .find(|e| matches!(&e.kind,
                SchedEventKind::Switch { prev_pid, .. } if *prev_pid == high))
            .expect("high thread switched out")
            .time;
        prop_assert_eq!(done, Nanos::from_micros(work_us));
        prop_assert_eq!(sim.cpu_time(low), Nanos::from_millis(50));
    }
}
