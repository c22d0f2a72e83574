//! Full-world differential suite: the indexed scheduler/executor engine
//! against the pre-refactor reference engine, across the generated-app
//! population.
//!
//! One hundred generated applications (a dozen under debug assertions)
//! rotate through all four generator presets — standard, multi-threaded,
//! bursty, and city — and periodically add a fault plan or a lossy
//! best-effort QoS spec on top. For every case the *entire trace* (sched
//! and ROS event streams alike) must be identical, field for field and
//! event for event, between the two engines: every corpus digest and trained model in the repo
//! rests on this stream, so "close enough" is not a property we can test
//! for.

use rtms_ros2::{QosSpec, WorldBuilder};
use rtms_trace::{Nanos, Trace};
use rtms_workloads::{
    generate_app, generate_fault_scenario, FaultScenarioConfig, GeneratorConfig,
};

/// One differential case: the app source, world shape, and horizon.
struct Case {
    seed: u64,
    preset: &'static str,
    cpus: usize,
    horizon: Nanos,
    lossy: bool,
    faulted: bool,
    wakeups: bool,
}

fn build_trace(case: &Case, reference: bool) -> Trace {
    let (app, plan) = if case.faulted {
        let scenario = generate_fault_scenario(
            case.seed,
            &FaultScenarioConfig::new(3, (Nanos::from_millis(30), Nanos::from_millis(120))),
        );
        (scenario.app, Some(scenario.plan))
    } else {
        let config = match case.preset {
            "standard" => GeneratorConfig::default(),
            "multi-threaded" => GeneratorConfig::multi_threaded(),
            "bursty" => GeneratorConfig::bursty(),
            "city" => GeneratorConfig::city(),
            other => panic!("unknown preset {other}"),
        };
        (generate_app(case.seed, &config), None)
    };
    let mut b = WorldBuilder::new(case.cpus).seed(case.seed ^ 0xd1ff).app(app);
    if reference {
        b = b.reference_engine();
    }
    if case.lossy {
        b = b.qos(QosSpec {
            drop_prob: 0.05,
            reorder_bound: 2,
            jitter: Nanos::from_micros(20),
        });
    }
    if case.wakeups {
        b = b.record_wakeups();
    }
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut world = b.build().expect("generated app deploys");
    let trace = world.trace_run(case.horizon);
    assert!(!trace.is_empty(), "seed {} produced an empty trace", case.seed);
    trace
}

#[test]
fn indexed_engine_matches_reference_across_presets() {
    let cases = if cfg!(debug_assertions) { 12 } else { 100 };
    let presets = ["standard", "multi-threaded", "bursty", "city"];
    for i in 0..cases {
        let preset = presets[i % presets.len()];
        let case = Case {
            seed: 1_000 + i as u64 * 37,
            preset,
            // Rotate the machine size so both engines see idle cores,
            // saturated cores, and heavy preemption.
            cpus: [1usize, 2, 4, 8][i % 4],
            // The city preset is two orders of magnitude bigger; a shorter
            // horizon keeps the suite brisk while still crossing thousands
            // of scheduling decisions.
            horizon: if preset == "city" {
                Nanos::from_millis(120)
            } else {
                Nanos::from_millis(300)
            },
            lossy: i % 3 == 0,
            faulted: i % 5 == 0,
            wakeups: i % 2 == 0,
        };
        let indexed = build_trace(&case, false);
        let reference = build_trace(&case, true);
        assert!(
            indexed == reference,
            "engines diverged: case {i} (preset {preset}, seed {}, cpus {}, lossy {}, faulted {})",
            case.seed, case.cpus, case.lossy, case.faulted
        );
    }
}
