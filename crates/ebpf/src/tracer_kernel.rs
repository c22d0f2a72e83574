//! The kernel tracer (TR_KN): the `sched_switch` tracepoint with in-kernel
//! PID filtering (Sec. III-B).
//!
//! Recording *all* `sched_switch` events produces hundreds of megabytes per
//! second; the paper reduces the footprint by a factor of three or more by
//! filtering on the PIDs of ROS2 nodes, which the ROS2-INIT tracer shares
//! through a BPF map. [`KernelTracer`] reproduces that: its handler runs on
//! *every* scheduler event (and is charged overhead for each), but only
//! events involving a traced PID are exported to the perf buffer.

use crate::map::PidFilterMap;
use crate::overhead::OverheadModel;
use crate::perf::PerfBuffer;
use crate::program::{Helper, ProgramSpec};
use crate::verifier::{Verifier, VerifyError};
use rtms_trace::{Probe, SchedEvent, SchedEventKind};

use crate::call::AttachPoint;

/// Default perf-buffer capacity for scheduler events (16 MiB).
const KN_BUFFER_BYTES: usize = 16 << 20;

/// The scheduler-event tracer.
///
/// # Example
///
/// ```
/// use rtms_ebpf::{map, KernelTracer};
/// use rtms_trace::{Cpu, Nanos, Pid, Priority, SchedEvent, ThreadState};
///
/// let filter = map::pid_filter_map();
/// filter.update(Pid::new(10), ()).expect("filter map has room");
/// let mut tracer = KernelTracer::new(Some(filter)).expect("program verifies");
/// tracer.start();
///
/// // Involves pid 10: exported.
/// tracer.on_sched_event(&SchedEvent::switch(
///     Nanos::ZERO, Cpu::new(0),
///     Pid::new(10), Priority::NORMAL, ThreadState::Runnable,
///     Pid::new(99), Priority::NORMAL,
/// ));
/// // Unrelated threads: filtered out in "kernel space".
/// tracer.on_sched_event(&SchedEvent::switch(
///     Nanos::ZERO, Cpu::new(0),
///     Pid::new(98), Priority::NORMAL, ThreadState::Runnable,
///     Pid::new(99), Priority::NORMAL,
/// ));
/// assert_eq!(tracer.drain_segment().len(), 1);
/// ```
#[derive(Debug)]
pub struct KernelTracer {
    enabled: bool,
    filter: Option<PidFilterMap>,
    /// Lock-free snapshot of the filter map as a PID bitmap. The handler
    /// fires for *every* scheduler event, so paying the map's read lock
    /// (twice, for a switch) per event dominates the handler; the bitmap
    /// answers with one shift and is revalidated against the map's
    /// generation counter with a single atomic load.
    filter_cache: FilterCache,
    record_wakeups: bool,
    perf: PerfBuffer<SchedEvent>,
    overhead: OverheadModel,
    seen: u64,
    exported: u64,
}

/// See [`KernelTracer::filter_cache`].
#[derive(Debug, Default)]
struct FilterCache {
    /// Map generation the bitmap was built at; `None` until the first
    /// query builds it.
    generation: Option<u64>,
    bits: Vec<u64>,
}

impl FilterCache {
    /// Brings the bitmap up to date with `map` (cheap no-op when the
    /// generation is unchanged) and tests `pid`.
    fn contains(&mut self, map: &PidFilterMap, pid: rtms_trace::Pid) -> bool {
        let generation = map.generation();
        if self.generation != Some(generation) {
            self.generation = Some(generation);
            self.bits.clear();
            for key in map.keys() {
                let (word, bit) = (key.get() as usize / 64, key.get() % 64);
                if self.bits.len() <= word {
                    self.bits.resize(word + 1, 0);
                }
                self.bits[word] |= 1u64 << bit;
            }
        }
        let (word, bit) = (pid.get() as usize / 64, pid.get() % 64);
        self.bits.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }
}

impl KernelTracer {
    /// Creates the tracer. With `Some(filter)`, only events involving a PID
    /// in the map are exported (the paper's configuration); with `None`,
    /// everything is exported (the baseline of the footprint experiment).
    ///
    /// # Errors
    ///
    /// Returns the verifier's findings if the tracepoint program is
    /// rejected.
    pub fn new(filter: Option<PidFilterMap>) -> Result<Self, Vec<VerifyError>> {
        // Two constant program variants (filtering on/off), two constant
        // verdicts: verify each once per process.
        static VERIFIED: [std::sync::OnceLock<Result<(), Vec<VerifyError>>>; 2] =
            [std::sync::OnceLock::new(), std::sync::OnceLock::new()];
        let filtered = filter.is_some();
        VERIFIED[usize::from(filtered)]
            .get_or_init(|| {
                let mut program = ProgramSpec::new(Probe::SchedSwitch, AttachPoint::Entry, 260)
                    .with_helpers([
                        Helper::KtimeGetNs,
                        Helper::ProbeReadKernel,
                        Helper::PerfEventOutput,
                    ]);
                if filtered {
                    program = program
                        .with_helpers([
                            Helper::KtimeGetNs,
                            Helper::ProbeReadKernel,
                            Helper::MapLookup,
                            Helper::PerfEventOutput,
                        ])
                        .with_maps(["ros2_pids"]);
                }
                Verifier::default().verify_all(std::slice::from_ref(&program))
            })
            .clone()?;
        Ok(KernelTracer {
            enabled: false,
            filter,
            filter_cache: FilterCache::default(),
            record_wakeups: false,
            perf: PerfBuffer::new(KN_BUFFER_BYTES),
            overhead: OverheadModel::new(),
            seen: 0,
            exported: 0,
        })
    }

    /// Also exports `sched_wakeup` events (the Sec. VII extension for
    /// waiting-time measurement). Off by default, as in the paper.
    pub fn with_wakeups(mut self) -> Self {
        self.record_wakeups = true;
        self
    }

    /// Starts exporting events.
    pub fn start(&mut self) {
        self.enabled = true;
    }

    /// Stops exporting events.
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Observes one scheduler event (the tracepoint handler). Runs the
    /// filter in "kernel space": the handler is charged for every event, but
    /// only matching events reach the perf buffer.
    pub fn on_sched_event(&mut self, event: &SchedEvent) {
        if !self.enabled {
            return;
        }
        self.seen += 1;
        let cache = &mut self.filter_cache;
        let (is_wakeup, matches) = match &event.kind {
            SchedEventKind::Switch { prev_pid, next_pid, .. } => {
                let m = match &self.filter {
                    Some(f) => cache.contains(f, *prev_pid) || cache.contains(f, *next_pid),
                    None => true,
                };
                (false, m)
            }
            SchedEventKind::Wakeup { pid, .. } => {
                let m = match &self.filter {
                    Some(f) => cache.contains(f, *pid),
                    None => true,
                };
                (true, m)
            }
        };
        // Handler cost: clock read + kernel struct reads (+ up to two map
        // lookups when filtering).
        let helpers = if self.filter.is_some() { 5 } else { 3 };
        self.overhead.charge(Probe::SchedSwitch, helpers);
        if is_wakeup && !self.record_wakeups {
            return;
        }
        if matches {
            self.exported += 1;
            self.perf.push(event.clone());
        }
    }

    /// Drains the buffered events (one trace segment).
    pub fn drain_segment(&mut self) -> Vec<SchedEvent> {
        self.perf.drain()
    }

    /// Drains the buffered events directly onto the end of a trace
    /// segment, in one bulk move.
    pub fn drain_segment_into(&mut self, segment: &mut rtms_trace::Trace) {
        self.perf.drain_into(segment);
    }

    /// Scheduler events observed by the handler (filtered or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events that passed the filter and were exported.
    pub fn exported(&self) -> u64 {
        self.exported
    }

    /// Perf-buffer statistics.
    pub fn perf(&self) -> &PerfBuffer<SchedEvent> {
        &self.perf
    }

    /// Overhead accounting of the tracepoint handler.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::pid_filter_map;
    use rtms_trace::{Cpu, Nanos, Pid, Priority, ThreadState};

    fn sw(prev: u32, next: u32) -> SchedEvent {
        SchedEvent::switch(
            Nanos::ZERO,
            Cpu::new(0),
            Pid::new(prev),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(next),
            Priority::NORMAL,
        )
    }

    #[test]
    fn filtering_reduces_export() {
        let filter = pid_filter_map();
        filter.update(Pid::new(1), ()).expect("insert");
        let mut tr = KernelTracer::new(Some(filter)).expect("verified");
        tr.start();
        tr.on_sched_event(&sw(1, 2)); // involves traced pid
        tr.on_sched_event(&sw(3, 4)); // noise
        tr.on_sched_event(&sw(5, 1)); // involves traced pid
        assert_eq!(tr.seen(), 3);
        assert_eq!(tr.exported(), 2);
        assert_eq!(tr.drain_segment().len(), 2);
    }

    #[test]
    fn unfiltered_exports_everything() {
        let mut tr = KernelTracer::new(None).expect("verified");
        tr.start();
        for i in 0..10 {
            tr.on_sched_event(&sw(i, i + 1));
        }
        assert_eq!(tr.exported(), 10);
    }

    #[test]
    fn wakeups_dropped_unless_enabled() {
        let filter = pid_filter_map();
        filter.update(Pid::new(1), ()).expect("insert");
        let mut tr = KernelTracer::new(Some(filter.clone())).expect("verified");
        tr.start();
        tr.on_sched_event(&SchedEvent::wakeup(Nanos::ZERO, Cpu::new(0), Pid::new(1), Priority::NORMAL));
        assert_eq!(tr.drain_segment().len(), 0);

        let mut tr = KernelTracer::new(Some(filter)).expect("verified").with_wakeups();
        tr.start();
        tr.on_sched_event(&SchedEvent::wakeup(Nanos::ZERO, Cpu::new(0), Pid::new(1), Priority::NORMAL));
        assert_eq!(tr.drain_segment().len(), 1);
    }

    #[test]
    fn handler_charged_even_for_filtered_events() {
        let filter = pid_filter_map();
        let mut tr = KernelTracer::new(Some(filter)).expect("verified");
        tr.start();
        tr.on_sched_event(&sw(3, 4)); // filtered out
        assert_eq!(tr.exported(), 0);
        assert_eq!(tr.overhead().total_firings(), 1, "filter cost is paid in kernel");
    }

    #[test]
    fn disabled_tracer_sees_nothing() {
        let mut tr = KernelTracer::new(None).expect("verified");
        tr.on_sched_event(&sw(1, 2));
        assert_eq!(tr.seen(), 0);
    }

    #[test]
    fn late_pid_registration_takes_effect() {
        // The INIT tracer fills the map while the kernel tracer is already
        // attached: subsequent events must match.
        let filter = pid_filter_map();
        let mut tr = KernelTracer::new(Some(filter.clone())).expect("verified");
        tr.start();
        tr.on_sched_event(&sw(7, 8));
        assert_eq!(tr.exported(), 0);
        filter.update(Pid::new(7), ()).expect("insert");
        tr.on_sched_event(&sw(7, 8));
        assert_eq!(tr.exported(), 1);
    }
}
