//! Exact steady-state invariants of the live path, on two fixed worlds:
//! the classic two-app bench world and the ~110-node city world, both
//! on 4 CPUs. The pipelined segment transport allocates nothing once
//! warm, and stale entries do not flood the scheduler's event heap.
//! CI also runs this suite in release, the build the transport ships in.

use rtms_ros2::{Ros2World, WorldBuilder};
use rtms_trace::Nanos;
use rtms_workloads::{generate_app, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`System`] wrapper that counts allocations per thread, so a test
/// can attribute them to the pipeline's consumer thread alone: the
/// producer's simulation state legitimately grows with the run.
struct CountingAlloc;

thread_local! {
    /// Allocations (alloc + realloc) on this thread. `const`
    /// initialization keeps the TLS access itself allocation-free.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System`; the only addition is bumping a
// thread-local counter, which cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
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
