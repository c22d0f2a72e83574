//! Exact steady-state invariants of the live path, on two fixed worlds:
//! the classic two-app bench world and the ~110-node city world, both
//! on 4 CPUs. The pipelined segment transport allocates nothing once
//! warm, stale entries do not flood the scheduler's event heap, and a
//! model build copies each measured sample once.
//! CI also runs this suite in release, the build the transport ships in.

use rtms_core::SynthesisSession;
use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::Nanos;
use rtms_workloads::{generate_app, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`] wrapper that counts allocations and allocated bytes per
/// thread, so a test can attribute them to the pipeline's consumer
/// thread alone (the producer's simulation state legitimately grows with
/// the run), or to one call on the current thread.
struct CountingAlloc;

thread_local! {
    /// Allocations (alloc + realloc) on this thread. `const`
    /// initialization keeps the TLS access itself allocation-free.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes handed out on this thread: the size of every allocation and
    /// the new size of every reallocation.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System`; the only addition is bumping
// thread-local counters, which cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Two default generated apps (seeds `seed + 1000`, `seed + 1001`).
fn default_world(seed: u64) -> Ros2World {
    let mut builder = WorldBuilder::new(4).seed(seed);
    for i in 0..2 {
        builder = builder.app(generate_app(seed + 1000 + i, &GeneratorConfig::default()));
    }
    builder.build().expect("generated apps deploy")
}

/// The city preset (app seed 1000).
fn city_world(seed: u64) -> Ros2World {
    let app = generate_app(1000, &GeneratorConfig::city());
    WorldBuilder::new(4).seed(seed).app(app).build().expect("city app deploys")
}

#[test]
fn pipelined_transport_allocates_nothing_in_steady_state() {
    for (name, mut world) in [("default", default_world(0)), ("city", city_world(0))] {
        // The consumer only inspects each segment, so every allocation
        // between the first and the last callback is the transport's own:
        // sort, hand-back or slab recycle.
        let (mut segments, mut at_first, mut at_last) = (0u64, 0u64, 0u64);
        world.trace_segments_pipelined(Nanos::from_secs(2), Nanos::from_millis(250), |segment| {
            std::hint::black_box(segment.len());
            let allocs = THREAD_ALLOCS.with(Cell::get);
            if segments == 0 {
                at_first = allocs;
            }
            at_last = allocs;
            segments += 1;
        });
        assert_eq!(segments, 8, "{name}: segment count");
        assert_eq!(
            at_last - at_first,
            0,
            "{name}: the segment transport allocated after warmup; \
             steady state must run on recycled slabs alone"
        );
    }
}

/// `model()` copies each folded sample once, into its vertex's
/// `exec_times` (8 B). The bytes a build allocates are measured on the
/// city world after T and after 2T simulated seconds; differencing
/// cancels the per-vertex part, which does not grow with the run, and
/// leaves the cost of the extra instances alone.
#[test]
fn model_build_allocates_at_most_ten_bytes_per_folded_instance() {
    let mut world = city_world(0);
    let mut session = SynthesisSession::new();
    // (instances folded, bytes `model()` allocated) after T and 2T.
    let mut builds: Vec<(u64, u64)> = Vec::new();
    let mut segments = 0;
    world.trace_segments_sequential(Nanos::from_secs(2), Nanos::from_millis(250), |segment| {
        session.feed_segment(segment);
        segments += 1;
        if segments % 4 == 0 {
            let before = THREAD_BYTES.with(Cell::get);
            let model = session.model();
            let bytes = THREAD_BYTES.with(Cell::get) - before;
            let instances = model.vertices().iter().map(|v| v.exec_times.len() as u64).sum();
            builds.push((instances, bytes));
        }
    });
    let [(at_t, bytes_t), (at_2t, bytes_2t)] = builds[..] else {
        panic!("expected builds after T and 2T, got {builds:?}")
    };
    assert!(at_2t > at_t + 1_000, "too few extra instances to measure: {at_t} -> {at_2t}");
    let per_instance = bytes_2t.saturating_sub(bytes_t) as f64 / (at_2t - at_t) as f64;
    assert!(
        per_instance <= 10.0,
        "model() allocated {per_instance:.1} B per extra folded instance \
         ({bytes_t} B for {at_t}, {bytes_2t} B for {at_2t}); \
         a build must copy each sample once"
    );
}

#[test]
fn stale_heap_pops_stay_under_five_percent_of_events() {
    for seed in [0, 1] {
        for (name, mut world) in [("default", default_world(seed)), ("city", city_world(seed))] {
            world.announce_nodes();
            world.run_for(Nanos::from_secs(2));
            let stats = world.simulator().stats();
            assert!(stats.events > 0, "{name} seed {seed}: no simulator events");
            assert!(
                stats.stale_pops * 20 <= stats.events,
                "{name} seed {seed}: {} of {} simulator events were stale heap pops \
                 (> 5%); invalidated entries are flooding the event heap",
                stats.stale_pops,
                stats.events
            );
        }
    }
}
