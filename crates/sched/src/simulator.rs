//! The discrete-event scheduler engine.

use crate::logic::{Op, SimCtx, ThreadLogic};
use rtms_trace::{Cpu, Nanos, Pid, Priority, SchedEvent, ThreadState};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A CPU affinity mask over up to 64 cores.
///
/// # Example
///
/// ```
/// use rtms_sched::Affinity;
/// use rtms_trace::Cpu;
///
/// let a = Affinity::only(Cpu::new(2));
/// assert!(a.allows(Cpu::new(2)));
/// assert!(!a.allows(Cpu::new(0)));
/// assert!(Affinity::all().allows(Cpu::new(63)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affinity(u64);

impl Affinity {
    /// Allows every core.
    pub const fn all() -> Affinity {
        Affinity(u64::MAX)
    }

    /// Pins to a single core.
    pub fn only(cpu: Cpu) -> Affinity {
        assert!(cpu.index() < 64, "affinity supports up to 64 cores");
        Affinity(1 << cpu.index())
    }

    /// Whether this mask allows `cpu`.
    pub fn allows(self, cpu: Cpu) -> bool {
        cpu.index() < 64 && self.0 & (1 << cpu.index()) != 0
    }
}

impl Default for Affinity {
    fn default() -> Self {
        Affinity::all()
    }
}

impl fmt::Display for Affinity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "affinity:{:#x}", self.0)
    }
}

/// Receiver of scheduler tracepoint events, the integration point for the
/// kernel tracer of `rtms-ebpf`.
pub trait SchedSink {
    /// Called for every `sched_switch`/`sched_wakeup` the simulated kernel
    /// generates, in chronological order.
    fn on_sched_event(&mut self, event: &SchedEvent);
}

impl<T: SchedSink> SchedSink for Rc<RefCell<T>> {
    fn on_sched_event(&mut self, event: &SchedEvent) {
        self.borrow_mut().on_sched_event(event);
    }
}

/// Collects the raw stream. Attach it as a shared
/// `Rc<RefCell<Vec<SchedEvent>>>` and read the events back after the run.
impl SchedSink for Vec<SchedEvent> {
    fn on_sched_event(&mut self, event: &SchedEvent) {
        self.push(event.clone());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Runnable,
    Running(Cpu),
    Blocked,
    Dead,
}

struct Thread {
    pid: Pid,
    name: String,
    prio: Priority,
    affinity: Affinity,
    state: RunState,
    /// CPU work left in the current `Compute` op; `None` means the logic
    /// must be asked for a new op at next dispatch.
    remaining: Option<Nanos>,
    /// When the thread was last put on a CPU (valid while Running).
    dispatched_at: Nanos,
    /// Bumped at every deschedule to invalidate in-flight timer events.
    gen: u64,
    /// Latched wakeup (signal arrived while not blocked).
    pending_wake: bool,
    /// FIFO tiebreak among equal priorities (reference engine only; the
    /// indexed runqueue encodes this order positionally).
    ready_seq: u64,
    /// Runqueue bucket for this thread's priority (0 = highest), assigned
    /// at build time from the distinct spawned priorities.
    bucket: u32,
    /// Whether any *other* spawned thread has priority >= this one's. When
    /// false, the slice-check contender test can never succeed, so arming
    /// the check is elided entirely (see `arm_slice`).
    contended: bool,
    /// Last CPU the thread ran on (for wakeup event attribution).
    last_cpu: Cpu,
    cpu_time: Nanos,
    logic: Option<Box<dyn ThreadLogic>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    /// The running thread's current `Compute` finishes.
    OpComplete { pid: Pid, gen: u64 },
    /// Round-robin timeslice check.
    SliceCheck { cpu: Cpu, pid: Pid, gen: u64 },
    /// A scheduled (timed) wakeup fires.
    WakeAt { pid: Pid },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    time: Nanos,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Which scheduling core drives the event loop.
///
/// Both engines emit byte-identical `SchedEvent` streams; the reference
/// engine exists as a living oracle for the differential suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Priority-bucketed runqueue, dirty-gated rebalance, per-CPU virtual
    /// slice slots. The default.
    Indexed,
    /// The pre-indexing algorithm: linear ready-list scans, an
    /// unconditional clone+sort rebalance after every event, and slice
    /// checks armed through the event heap.
    Reference,
}

/// A pending round-robin slice check, held out of the event heap in a
/// per-CPU slot. `seq` comes from the same counter as heap events, so
/// comparing `(time, seq)` against the heap top reproduces the exact pop
/// order the heap-armed reference engine sees.
#[derive(Debug, Clone, Copy)]
struct SliceSlot {
    time: Nanos,
    seq: u64,
    pid: Pid,
    gen: u64,
}

/// Priority-indexed FIFO runqueue: one `VecDeque` of thread indices per
/// distinct priority (bucket 0 is the highest priority), plus a bitmask of
/// non-empty buckets so scans skip empty levels in O(words).
///
/// Within a bucket, push order is ready order — threads are pushed exactly
/// where the reference engine assigns a fresh monotonic `ready_seq`, so
/// FIFO-within-bucket reproduces `(prio desc, ready_seq asc)` selection
/// without any per-thread sequence numbers.
struct RunQueue {
    buckets: Vec<VecDeque<u32>>,
    mask: Vec<u64>,
    len: usize,
}

impl RunQueue {
    fn new(num_buckets: usize) -> Self {
        RunQueue {
            buckets: vec![VecDeque::new(); num_buckets],
            mask: vec![0u64; num_buckets.div_ceil(64).max(1)],
            len: 0,
        }
    }

    fn push(&mut self, bucket: usize, thread: u32) {
        self.buckets[bucket].push_back(thread);
        self.mask[bucket / 64] |= 1 << (bucket % 64);
        self.len += 1;
    }

    fn remove_at(&mut self, bucket: usize, pos: usize) -> u32 {
        let t = self.buckets[bucket].remove(pos).expect("runqueue position valid");
        if self.buckets[bucket].is_empty() {
            self.mask[bucket / 64] &= !(1 << (bucket % 64));
        }
        self.len -= 1;
        t
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first non-empty bucket at or after `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.mask.len() {
            return None;
        }
        let mut word = self.mask[w] & !((1u64 << (from % 64)) - 1);
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.mask.len() {
                return None;
            }
            word = self.mask[w];
        }
    }
}

/// Counters describing the work the discrete-event engine performed.
///
/// Snapshot them with [`Simulator::stats`]; all counters are cumulative
/// since the simulator was built. `rebalance_skipped / events` measures how
/// often the dirty gate saved a scheduling pass, and `stale_pops / events`
/// tracks heap churn from invalidated timer events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the main loop (heap pops plus virtual slice
    /// slots fired).
    pub events: u64,
    /// Events pushed onto the binary heap.
    pub heap_pushes: u64,
    /// Popped events that were stale (the thread was descheduled after the
    /// event was armed) and did nothing.
    pub stale_pops: u64,
    /// Round-robin slice checks armed (slot writes, or heap pushes on the
    /// reference engine).
    pub slice_arms: u64,
    /// Slice-check arms elided because no other thread can ever contend at
    /// the running thread's priority or above.
    pub slice_suppressed: u64,
    /// Scheduling passes that actually ran.
    pub rebalance_runs: u64,
    /// Scheduling passes skipped because the ready/running sets were
    /// unchanged since the last pass.
    pub rebalance_skipped: u64,
    /// Context switches emitted.
    pub switches: u64,
}

/// Builds a [`Simulator`]: configure core count and timeslice, then spawn
/// threads.
pub struct SimulatorBuilder {
    cpus: usize,
    timeslice: Nanos,
    first_pid: u32,
    threads: Vec<Thread>,
    reference: bool,
}

impl SimulatorBuilder {
    /// Creates a builder for a machine with `cpus` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or greater than 64.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0 && cpus <= 64, "cpus must be in 1..=64");
        SimulatorBuilder {
            cpus,
            timeslice: Nanos::from_millis(1),
            first_pid: 1000,
            threads: Vec::new(),
            reference: false,
        }
    }

    /// Selects the pre-indexing reference engine: linear ready-list scans,
    /// an unconditional rebalance after every event, and slice checks armed
    /// through the event heap.
    ///
    /// The emitted `SchedEvent` stream is byte-identical to the default
    /// indexed engine — the differential suites use this path as the
    /// oracle the optimized engine is pinned against.
    pub fn reference_engine(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Sets the round-robin timeslice among equal-priority threads
    /// (default 1 ms).
    pub fn timeslice(mut self, slice: Nanos) -> Self {
        assert!(slice > Nanos::ZERO, "timeslice must be positive");
        self.timeslice = slice;
        self
    }

    /// The PID the next [`SimulatorBuilder::spawn`] call will assign.
    /// PIDs are handed out sequentially, so callers that need to know a
    /// thread's identity before constructing its logic (e.g. to register
    /// message readers) can rely on this.
    pub fn next_pid(&self) -> Pid {
        Pid::new(self.first_pid + self.threads.len() as u32)
    }

    /// Spawns a thread and returns its PID. Threads start runnable at time
    /// zero.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        prio: Priority,
        affinity: Affinity,
        logic: Box<dyn ThreadLogic>,
    ) -> Pid {
        let pid = Pid::new(self.first_pid + self.threads.len() as u32);
        self.threads.push(Thread {
            pid,
            name: name.into(),
            prio,
            affinity,
            state: RunState::Runnable,
            remaining: None,
            dispatched_at: Nanos::ZERO,
            gen: 0,
            pending_wake: false,
            ready_seq: 0,
            bucket: 0,
            contended: true,
            last_cpu: Cpu::new(0),
            cpu_time: Nanos::ZERO,
            logic: Some(logic),
        });
        pid
    }

    /// Finalizes the machine.
    pub fn build(self) -> Simulator {
        let cpus = self.cpus;
        let mut threads = self.threads;
        // The distinct spawned priorities, highest first, define the
        // runqueue buckets. Priorities are fixed for a thread's lifetime,
        // so this mapping never changes after build.
        let mut bucket_prios: Vec<Priority> = threads.iter().map(|t| t.prio).collect();
        bucket_prios.sort_by_key(|&p| Reverse(p));
        bucket_prios.dedup();
        let mut bucket_counts = vec![0u32; bucket_prios.len()];
        for t in &mut threads {
            let b = bucket_prios.iter().position(|&p| p == t.prio).expect("prio has a bucket");
            t.bucket = b as u32;
            bucket_counts[b] += 1;
        }
        // A thread is uncontended when no other thread has priority >= its
        // own: nothing can ever preempt it at a slice boundary, so slice
        // checks need not be armed for it. Affinity is ignored here — that
        // only makes the flag conservative.
        for t in &mut threads {
            t.contended = t.bucket > 0 || bucket_counts[t.bucket as usize] > 1;
        }
        let engine = if self.reference { Engine::Reference } else { Engine::Indexed };
        let mut ready_ctr = 0u64;
        let mut ready = Vec::new();
        let mut runqueue = RunQueue::new(bucket_prios.len());
        for (i, t) in threads.iter_mut().enumerate() {
            match engine {
                Engine::Indexed => runqueue.push(t.bucket as usize, i as u32),
                Engine::Reference => {
                    t.ready_seq = ready_ctr;
                    ready_ctr += 1;
                    ready.push(t.pid);
                }
            }
        }
        Simulator {
            now: Nanos::ZERO,
            first_pid: self.first_pid,
            threads,
            running: vec![None; cpus],
            last_running: vec![Pid::IDLE; cpus],
            ready,
            runqueue,
            bucket_prios,
            slice_slots: vec![None; cpus],
            dirty: true,
            engine,
            queue: BinaryHeap::new(),
            seq: 0,
            ready_ctr,
            timeslice: self.timeslice,
            sinks: Vec::new(),
            busy: vec![Nanos::ZERO; cpus],
            stats: SimStats::default(),
        }
    }
}

/// The simulated multi-core machine.
///
/// Drive it with [`Simulator::run_until`]. Scheduler events leave the
/// machine only through the [`SchedSink`]s attached with
/// [`Simulator::add_sink`] (the kernel tracer); the simulator keeps no
/// copy. Tests that need the raw stream attach an
/// `Rc<RefCell<Vec<SchedEvent>>>`.
pub struct Simulator {
    now: Nanos,
    first_pid: u32,
    threads: Vec<Thread>,
    running: Vec<Option<Pid>>,
    /// Per-CPU thread observed at the last event flush, for diff-based
    /// `sched_switch` emission.
    last_running: Vec<Pid>,
    /// Ready list of the reference engine (unused by the indexed engine).
    ready: Vec<Pid>,
    /// Priority-bucketed ready queue of the indexed engine.
    runqueue: RunQueue,
    /// Priority of each runqueue bucket (descending), for the preemption
    /// early-out.
    bucket_prios: Vec<Priority>,
    /// Per-CPU pending slice check (indexed engine; never in the heap).
    slice_slots: Vec<Option<SliceSlot>>,
    /// Set whenever the ready or running sets change; a scheduling pass is
    /// only needed while this holds (indexed engine).
    dirty: bool,
    engine: Engine,
    queue: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    ready_ctr: u64,
    timeslice: Nanos,
    sinks: Vec<Box<dyn SchedSink>>,
    busy: Vec<Nanos>,
    stats: SimStats,
}

impl Simulator {
    /// The current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Attaches a scheduler-event sink (e.g. the eBPF kernel tracer).
    pub fn add_sink(&mut self, sink: Box<dyn SchedSink>) {
        self.sinks.push(sink);
    }

    /// Total CPU time consumed by `pid` so far.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned on this simulator.
    pub fn cpu_time(&self, pid: Pid) -> Nanos {
        self.threads[self.index(pid)].cpu_time
    }

    /// Total busy time of `cpu` so far.
    pub fn busy_time(&self, cpu: Cpu) -> Nanos {
        self.busy[cpu.index()]
    }

    /// The display name the thread was spawned with.
    pub fn thread_name(&self, pid: Pid) -> &str {
        &self.threads[self.index(pid)].name
    }

    /// PIDs of all spawned threads.
    pub fn pids(&self) -> Vec<Pid> {
        self.threads.iter().map(|t| t.pid).collect()
    }

    /// Whether the thread has not exited.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.threads[self.index(pid)].state != RunState::Dead
    }

    /// A snapshot of the engine's work counters (cumulative since build).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Runs the simulation up to (and including) time `until`.
    ///
    /// May be called repeatedly with increasing deadlines; time never moves
    /// backwards.
    pub fn run_until(&mut self, until: Nanos) {
        match self.engine {
            Engine::Indexed => self.run_until_indexed(until),
            Engine::Reference => self.run_until_reference(until),
        }
        // Account partial runtimes up to the horizon.
        self.now = until.max(self.now);
        for cpu in 0..self.running.len() {
            if let Some(pid) = self.running[cpu] {
                self.account_runtime(pid);
            }
        }
    }

    fn run_until_indexed(&mut self, until: Nanos) {
        // Initial placement of the ready threads spawned at build time
        // (dirty holds after build; on a resume of a stable machine the
        // pass is skipped).
        self.rebalance_if_dirty();

        loop {
            // The next event is the min of `(time, seq)` over the heap top
            // and the per-CPU virtual slice slots. Slot seqs come from the
            // same counter as heap seqs, so this is exactly the pop order
            // of the reference engine's single heap.
            let heap_key = self.queue.peek().map(|&Reverse(ev)| (ev.time, ev.seq));
            let mut slot_best: Option<(Nanos, u64, usize)> = None;
            for (c, slot) in self.slice_slots.iter().enumerate() {
                if let Some(s) = slot {
                    if slot_best.is_none_or(|(t, q, _)| (s.time, s.seq) < (t, q)) {
                        slot_best = Some((s.time, s.seq, c));
                    }
                }
            }
            let use_slot = match (heap_key, slot_best) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some((ht, hs)), Some((st, ss, _))) => (st, ss) < (ht, hs),
            };
            if use_slot {
                let (time, _, c) = slot_best.expect("slot chosen");
                if time > until {
                    break;
                }
                debug_assert!(time >= self.now, "slice slots must be monotonic");
                self.now = time;
                let slot = self.slice_slots[c].take().expect("slot present");
                self.stats.events += 1;
                self.on_slice_check_indexed(Cpu::new(c as u16), slot.pid, slot.gen);
            } else {
                let (time, _) = heap_key.expect("heap top chosen");
                if time > until {
                    break;
                }
                let Reverse(ev) = self.queue.pop().expect("heap top present");
                debug_assert!(ev.time >= self.now, "event queue must be monotonic");
                self.now = ev.time;
                self.stats.events += 1;
                match ev.kind {
                    EvKind::OpComplete { pid, gen } => self.on_op_complete(pid, gen),
                    EvKind::WakeAt { pid } => self.wake_request(pid),
                    EvKind::SliceCheck { cpu, pid, gen } => {
                        self.on_slice_check_indexed(cpu, pid, gen)
                    }
                }
            }
            self.rebalance_if_dirty();
        }
    }

    fn run_until_reference(&mut self, until: Nanos) {
        // Initial placement of the ready threads spawned at build time.
        self.stats.rebalance_runs += 1;
        self.rebalance_reference();
        self.flush_switches();

        while let Some(&Reverse(ev)) = self.queue.peek() {
            if ev.time > until {
                break;
            }
            self.queue.pop();
            debug_assert!(ev.time >= self.now, "event queue must be monotonic");
            self.now = ev.time;
            self.stats.events += 1;
            match ev.kind {
                EvKind::OpComplete { pid, gen } => self.on_op_complete(pid, gen),
                EvKind::WakeAt { pid } => self.wake_request(pid),
                EvKind::SliceCheck { cpu, pid, gen } => self.on_slice_check_reference(cpu, pid, gen),
            }
            self.stats.rebalance_runs += 1;
            self.rebalance_reference();
            self.flush_switches();
        }
    }

    // ---- internals -----------------------------------------------------

    fn index(&self, pid: Pid) -> usize {
        let idx = (pid.get() - self.first_pid) as usize;
        assert!(idx < self.threads.len(), "unknown pid {pid}");
        idx
    }

    fn push_event(&mut self, time: Nanos, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.stats.heap_pushes += 1;
        self.queue.push(Reverse(Ev { time, seq, kind }));
    }

    /// Puts a runnable thread on the ready structure of the active engine.
    /// Every caller is a ready-set mutation, so the dirty flag is raised
    /// here.
    fn make_ready(&mut self, idx: usize) {
        self.dirty = true;
        match self.engine {
            Engine::Indexed => {
                let bucket = self.threads[idx].bucket as usize;
                self.runqueue.push(bucket, idx as u32);
            }
            Engine::Reference => {
                self.threads[idx].ready_seq = self.ready_ctr;
                self.ready_ctr += 1;
                self.ready.push(self.threads[idx].pid);
            }
        }
    }

    fn emit(&mut self, event: SchedEvent) {
        for sink in &mut self.sinks {
            sink.on_sched_event(&event);
        }
    }

    fn account_runtime(&mut self, pid: Pid) {
        let idx = self.index(pid);
        let (ran, cpu) = match self.threads[idx].state {
            RunState::Running(cpu) => (self.now - self.threads[idx].dispatched_at, cpu),
            _ => return,
        };
        self.threads[idx].cpu_time += ran;
        self.threads[idx].dispatched_at = self.now;
        self.busy[cpu.index()] += ran;
    }

    pub(crate) fn wake_request(&mut self, pid: Pid) {
        let idx = self.index(pid);
        match self.threads[idx].state {
            RunState::Blocked => {
                self.threads[idx].state = RunState::Runnable;
                self.make_ready(idx);
                let ev = SchedEvent::wakeup(
                    self.now,
                    self.threads[idx].last_cpu,
                    pid,
                    self.threads[idx].prio,
                );
                self.emit(ev);
            }
            RunState::Running(_) | RunState::Runnable => {
                self.threads[idx].pending_wake = true;
            }
            RunState::Dead => {}
        }
    }

    pub(crate) fn schedule_wake(&mut self, pid: Pid, at: Nanos) {
        let at = at.max(self.now);
        self.push_event(at, EvKind::WakeAt { pid });
    }

    fn on_op_complete(&mut self, pid: Pid, gen: u64) {
        let idx = self.index(pid);
        if self.threads[idx].gen != gen || !matches!(self.threads[idx].state, RunState::Running(_))
        {
            self.stats.stale_pops += 1;
            return; // stale: the thread was descheduled in the meantime
        }
        self.account_runtime(pid);
        self.threads[idx].remaining = None;
        self.run_logic(pid);
    }

    fn on_slice_check_reference(&mut self, cpu: Cpu, pid: Pid, gen: u64) {
        let idx = self.index(pid);
        if self.running[cpu.index()] != Some(pid) || self.threads[idx].gen != gen {
            self.stats.stale_pops += 1;
            return; // stale
        }
        let my_prio = self.threads[idx].prio;
        let contender = self
            .ready
            .iter()
            .any(|&r| {
                let ri = self.index(r);
                self.threads[ri].prio >= my_prio && self.threads[ri].affinity.allows(cpu)
            });
        if contender {
            self.preempt(pid);
        } else {
            let slice = self.timeslice;
            self.stats.slice_arms += 1;
            self.push_event(self.now + slice, EvKind::SliceCheck { cpu, pid, gen });
        }
    }

    fn on_slice_check_indexed(&mut self, cpu: Cpu, pid: Pid, gen: u64) {
        let idx = self.index(pid);
        if self.running[cpu.index()] != Some(pid) || self.threads[idx].gen != gen {
            self.stats.stale_pops += 1;
            return; // stale
        }
        let bucket = self.threads[idx].bucket as usize;
        if self.has_contender_for(bucket, cpu) {
            self.preempt(pid);
        } else {
            self.arm_slice(cpu, pid, gen);
        }
    }

    /// Whether any ready thread in buckets `0..=max_bucket` (i.e. with
    /// priority >= the bucket's priority) may run on `cpu`.
    fn has_contender_for(&self, max_bucket: usize, cpu: Cpu) -> bool {
        let mut b = self.runqueue.first_from(0);
        while let Some(bi) = b {
            if bi > max_bucket {
                return false;
            }
            if self.runqueue.buckets[bi]
                .iter()
                .any(|&t| self.threads[t as usize].affinity.allows(cpu))
            {
                return true;
            }
            b = self.runqueue.first_from(bi + 1);
        }
        false
    }

    /// Arms the round-robin slice check for `pid` on `cpu` in the per-CPU
    /// slot (indexed engine).
    ///
    /// The seq bump happens at exactly the position where the reference
    /// engine pushes its `SliceCheck` heap event, so every event keeps a
    /// literally identical `(time, seq)` key. For an uncontended thread the
    /// reference engine would re-arm forever without ever preempting, so
    /// both the check and its seq bump are elided — dropping entries from
    /// the push sequence shifts later seqs uniformly and preserves the
    /// relative order of everything that remains.
    fn arm_slice(&mut self, cpu: Cpu, pid: Pid, gen: u64) {
        let idx = self.index(pid);
        if !self.threads[idx].contended {
            self.stats.slice_suppressed += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.stats.slice_arms += 1;
        self.slice_slots[cpu.index()] =
            Some(SliceSlot { time: self.now + self.timeslice, seq, pid, gen });
    }

    /// Removes `pid` from its CPU. `target` must be `Runnable` (preemption /
    /// slice rotation), `Blocked`, or `Dead`.
    fn deschedule(&mut self, pid: Pid, target: RunState) {
        let idx = self.index(pid);
        let cpu = match self.threads[idx].state {
            RunState::Running(cpu) => cpu,
            _ => panic!("deschedule of a non-running thread"),
        };
        self.account_runtime(pid);
        self.threads[idx].state = target;
        self.threads[idx].gen += 1;
        self.threads[idx].last_cpu = cpu;
        self.running[cpu.index()] = None;
        // Any armed slice check for this CPU is stale now (the gen bump
        // above guarantees it would no-op); drop it so the pop loop never
        // sees it.
        self.slice_slots[cpu.index()] = None;
        self.dirty = true;
        if target == RunState::Runnable {
            self.make_ready(idx);
        }
    }

    /// Picks the highest-priority ready thread allowed on `cpu` (FIFO among
    /// equals) and removes it from the ready list (reference engine).
    fn pop_ready_for_reference(&mut self, cpu: Cpu) -> Option<Pid> {
        let mut best: Option<(Priority, u64, usize)> = None;
        for (i, &pid) in self.ready.iter().enumerate() {
            let t = &self.threads[self.index(pid)];
            if !t.affinity.allows(cpu) {
                continue;
            }
            let key = (t.prio, t.ready_seq);
            match best {
                None => best = Some((key.0, key.1, i)),
                Some((bp, bs, _)) if key.0 > bp || (key.0 == bp && key.1 < bs) => {
                    best = Some((key.0, key.1, i))
                }
                _ => {}
            }
        }
        best.map(|(_, _, i)| self.ready.swap_remove(i))
    }

    /// Picks the highest-priority ready thread allowed on `cpu` (FIFO among
    /// equals) and removes it from the runqueue (indexed engine): scan
    /// non-empty buckets highest-priority-first, front-to-back within a
    /// bucket, and take the first thread whose affinity allows `cpu`.
    fn pop_ready_for_indexed(&mut self, cpu: Cpu) -> Option<Pid> {
        let mut b = self.runqueue.first_from(0);
        while let Some(bi) = b {
            let hit = self.runqueue.buckets[bi]
                .iter()
                .position(|&t| self.threads[t as usize].affinity.allows(cpu));
            if let Some(pos) = hit {
                let t = self.runqueue.remove_at(bi, pos);
                return Some(self.threads[t as usize].pid);
            }
            b = self.runqueue.first_from(bi + 1);
        }
        None
    }

    fn dispatch(&mut self, pid: Pid, cpu: Cpu) {
        let idx = self.index(pid);
        debug_assert_eq!(self.threads[idx].state, RunState::Runnable);
        self.threads[idx].state = RunState::Running(cpu);
        self.threads[idx].dispatched_at = self.now;
        self.threads[idx].gen += 1;
        self.threads[idx].last_cpu = cpu;
        let gen = self.threads[idx].gen;
        self.running[cpu.index()] = Some(pid);
        match self.threads[idx].remaining {
            Some(rem) => {
                self.push_event(self.now + rem, EvKind::OpComplete { pid, gen });
                self.arm_slice_for_engine(cpu, pid, gen);
            }
            None => {
                self.run_logic(pid);
                // `run_logic` may have blocked/exited the thread; only arm
                // the slice timer if it is still on the CPU.
                if self.running[cpu.index()] == Some(pid) {
                    let gen = self.threads[self.index(pid)].gen;
                    self.arm_slice_for_engine(cpu, pid, gen);
                }
            }
        }
    }

    fn arm_slice_for_engine(&mut self, cpu: Cpu, pid: Pid, gen: u64) {
        match self.engine {
            Engine::Indexed => self.arm_slice(cpu, pid, gen),
            Engine::Reference => {
                let slice = self.timeslice;
                self.stats.slice_arms += 1;
                self.push_event(self.now + slice, EvKind::SliceCheck { cpu, pid, gen });
            }
        }
    }

    /// Asks the thread's logic for operations until one takes time.
    /// The thread must currently be running.
    fn run_logic(&mut self, pid: Pid) {
        let idx = self.index(pid);
        let mut logic = self.threads[idx].logic.take().expect("logic present");
        loop {
            let op = logic.next_op(&mut SimCtx { sim: self, pid });
            let idx = self.index(pid);
            match op {
                Op::Compute(d) => {
                    let gen = self.threads[idx].gen;
                    self.threads[idx].remaining = Some(d);
                    self.push_event(self.now + d, EvKind::OpComplete { pid, gen });
                    break;
                }
                Op::Block { until } => {
                    if self.threads[idx].pending_wake {
                        self.threads[idx].pending_wake = false;
                        continue; // signal already arrived: re-poll
                    }
                    self.threads[idx].remaining = None;
                    self.deschedule(pid, RunState::Blocked);
                    if let Some(deadline) = until {
                        self.push_event(deadline.max(self.now), EvKind::WakeAt { pid });
                    }
                    break;
                }
                Op::Exit => {
                    self.threads[idx].remaining = None;
                    self.deschedule(pid, RunState::Dead);
                    break;
                }
            }
        }
        let idx = self.index(pid);
        self.threads[idx].logic = Some(logic);
    }

    /// Runs a scheduling pass only when the ready or running sets changed
    /// since the last one, then emits the switch diff (indexed engine).
    ///
    /// The invariant making the skip exact: whenever `dirty` is false the
    /// assignment is stable — every mutation of the ready set
    /// (`make_ready`) or the running set (`deschedule`) raises the flag,
    /// and a rebalance of a stable state is a no-op (so is its switch
    /// flush, since `running` only changes under the flag).
    fn rebalance_if_dirty(&mut self) {
        if !self.dirty {
            self.stats.rebalance_skipped += 1;
            return;
        }
        self.stats.rebalance_runs += 1;
        self.rebalance_indexed();
        self.flush_switches();
        // Cleared *after* the pass: dispatches and preemptions inside it
        // re-raise the flag, but the loop only exits once the assignment
        // is stable again.
        self.dirty = false;
    }

    /// One scheduling pass over the indexed runqueue: fill idle CPUs, then
    /// resolve preemptions, until the assignment is stable. Candidate order
    /// (priority desc, FIFO among equals) matches the reference engine's
    /// sorted-snapshot scan exactly.
    fn rebalance_indexed(&mut self) {
        loop {
            let mut changed = false;
            // Fill idle CPUs.
            if !self.runqueue.is_empty() {
                for c in 0..self.running.len() {
                    if self.running[c].is_none() {
                        if let Some(pid) = self.pop_ready_for_indexed(Cpu::new(c as u16)) {
                            self.dispatch(pid, Cpu::new(c as u16));
                            changed = true;
                        }
                    }
                }
            }
            // Preemption early-out: a victim must be a *running* thread
            // with priority strictly below some ready thread's, so if the
            // best ready priority does not exceed the lowest running
            // priority there is nothing to scan.
            let best_ready = self.runqueue.first_from(0);
            let preemptable = match best_ready {
                None => false,
                Some(b) => {
                    let best_prio = self.bucket_prios[b];
                    self.running.iter().flatten().any(|&run| {
                        self.threads[self.index(run)].prio < best_prio
                    })
                }
            };
            if preemptable {
                // Scan candidates in (prio desc, FIFO) order: non-empty
                // buckets ascending, front-to-back within each.
                let mut found: Option<(usize, usize, Pid, Cpu)> = None;
                let mut b = best_ready;
                'outer: while let Some(bi) = b {
                    for (pos, &t) in self.runqueue.buckets[bi].iter().enumerate() {
                        let prio = self.threads[t as usize].prio;
                        let affinity = self.threads[t as usize].affinity;
                        let mut victim: Option<(Priority, Cpu)> = None;
                        for c in 0..self.running.len() {
                            let cpu = Cpu::new(c as u16);
                            if !affinity.allows(cpu) {
                                continue;
                            }
                            if let Some(run) = self.running[c] {
                                let rp = self.threads[self.index(run)].prio;
                                if rp < prio && victim.is_none_or(|(vp, _)| rp < vp) {
                                    victim = Some((rp, cpu));
                                }
                            }
                        }
                        if let Some((_, cpu)) = victim {
                            found = Some((bi, pos, self.threads[t as usize].pid, cpu));
                            break 'outer;
                        }
                    }
                    b = self.runqueue.first_from(bi + 1);
                }
                if let Some((bi, pos, pid, cpu)) = found {
                    let run = self.running[cpu.index()].expect("victim running");
                    // `preempt` pushes the victim to the *back* of its
                    // bucket, so the candidate's position is still valid.
                    self.preempt(run);
                    self.runqueue.remove_at(bi, pos);
                    self.dispatch(pid, cpu);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// One scheduling pass: fill idle CPUs, then resolve preemptions, until
    /// the assignment is stable (reference engine).
    fn rebalance_reference(&mut self) {
        loop {
            let mut changed = false;
            // Fill idle CPUs.
            for c in 0..self.running.len() {
                if self.running[c].is_none() {
                    if let Some(pid) = self.pop_ready_for_reference(Cpu::new(c as u16)) {
                        self.dispatch(pid, Cpu::new(c as u16));
                        changed = true;
                    }
                }
            }
            // Preemption: find a ready thread strictly higher-priority than
            // the lowest-priority running thread on an allowed CPU.
            let mut ready_sorted: Vec<Pid> = self.ready.clone();
            ready_sorted.sort_by_key(|&p| {
                let t = &self.threads[self.index(p)];
                (Reverse(t.prio), t.ready_seq)
            });
            'outer: for pid in ready_sorted {
                let (prio, affinity) = {
                    let t = &self.threads[self.index(pid)];
                    (t.prio, t.affinity)
                };
                let mut victim: Option<(Priority, Cpu)> = None;
                for c in 0..self.running.len() {
                    let cpu = Cpu::new(c as u16);
                    if !affinity.allows(cpu) {
                        continue;
                    }
                    if let Some(run) = self.running[c] {
                        let rp = self.threads[self.index(run)].prio;
                        if rp < prio && victim.is_none_or(|(vp, _)| rp < vp) {
                            victim = Some((rp, cpu));
                        }
                    }
                }
                if let Some((_, cpu)) = victim {
                    let run = self.running[cpu.index()].expect("victim running");
                    self.preempt(run);
                    // Remove `pid` from the ready list and dispatch it.
                    let pos = self
                        .ready
                        .iter()
                        .position(|&p| p == pid)
                        .expect("ready thread in list");
                    self.ready.swap_remove(pos);
                    self.dispatch(pid, cpu);
                    changed = true;
                    break 'outer;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Preempts a running thread, preserving its remaining work.
    fn preempt(&mut self, pid: Pid) {
        let idx = self.index(pid);
        if let (RunState::Running(_), Some(rem)) =
            (self.threads[idx].state, self.threads[idx].remaining)
        {
            let ran = self.now - self.threads[idx].dispatched_at;
            self.threads[idx].remaining = Some(rem.saturating_sub(ran));
        }
        self.deschedule(pid, RunState::Runnable);
    }

    /// Emits diff-based `sched_switch` events after a scheduling pass.
    fn flush_switches(&mut self) {
        for c in 0..self.running.len() {
            let current = self.running[c].unwrap_or(Pid::IDLE);
            let prev = self.last_running[c];
            if current == prev {
                continue;
            }
            let (prev_prio, prev_state) = if prev.is_idle() {
                (Priority::NORMAL, ThreadState::Runnable)
            } else {
                let t = &self.threads[self.index(prev)];
                let st = match t.state {
                    RunState::Runnable | RunState::Running(_) => ThreadState::Runnable,
                    RunState::Blocked => ThreadState::Sleeping,
                    RunState::Dead => ThreadState::Dead,
                };
                (t.prio, st)
            };
            let next_prio = if current.is_idle() {
                Priority::NORMAL
            } else {
                self.threads[self.index(current)].prio
            };
            let ev = SchedEvent::switch(
                self.now,
                Cpu::new(c as u16),
                prev,
                prev_prio,
                prev_state,
                current,
                next_prio,
            );
            self.emit(ev);
            self.stats.switches += 1;
            self.last_running[c] = current;
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("cpus", &self.running.len())
            .field("threads", &self.threads.len())
            .field("switches", &self.stats.switches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::ScriptedLogic;
    use rtms_trace::SchedEventKind;

    fn compute(ms: u64) -> Op {
        Op::Compute(Nanos::from_millis(ms))
    }

    /// Attaches a collector sink and returns the stream it fills.
    fn collector(sim: &mut Simulator) -> Rc<RefCell<Vec<SchedEvent>>> {
        let events = Rc::new(RefCell::new(Vec::new()));
        sim.add_sink(Box::new(Rc::clone(&events)));
        events
    }

    #[test]
    fn single_thread_runs_and_exits() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(10));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(5));
        assert!(!sim.is_alive(pid));
        // switch to thread, switch to idle
        assert!(sim.stats().switches >= 2);
    }

    #[test]
    fn two_threads_share_one_core() {
        let mut b = SimulatorBuilder::new(1);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(4)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(4)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(a), Nanos::from_millis(4));
        assert_eq!(sim.cpu_time(c), Nanos::from_millis(4));
        // Total work 8ms on one core: busy time is exactly 8ms.
        assert_eq!(sim.busy_time(Cpu::new(0)), Nanos::from_millis(8));
    }

    #[test]
    fn round_robin_interleaves_equal_priorities() {
        // Two 10ms jobs, 1ms timeslice on one core: both should finish
        // around t=20ms, interleaved (not FIFO: first would finish at 10ms,
        // second at 20ms; under RR the first finishes at ~19ms).
        let mut b = SimulatorBuilder::new(1);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(15));
        // At 15ms, both have run roughly half the time each.
        let ta = sim.cpu_time(a).as_millis_f64();
        let tb = sim.cpu_time(c).as_millis_f64();
        assert!((ta - 7.5).abs() <= 1.0, "a ran {ta}ms, want ~7.5");
        assert!((tb - 7.5).abs() <= 1.0, "b ran {tb}ms, want ~7.5");
        assert!(sim.stats().switches > 10, "RR must context-switch repeatedly");
    }

    #[test]
    fn higher_priority_preempts() {
        let mut b = SimulatorBuilder::new(1);
        let low = b.spawn(
            "low",
            Priority::new(1),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let high = b.spawn(
            "high",
            Priority::new(5),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![
                Op::sleep_until(Nanos::from_millis(2)),
                compute(3),
            ])),
        );
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(high), Nanos::from_millis(3));
        assert_eq!(sim.cpu_time(low), Nanos::from_millis(10));
        // High thread ran [2,5); low thread must have been preempted, so it
        // finishes at 13ms, not 10ms. Check via the final switch to idle.
        let last_low_switch = events
            .borrow()
            .iter()
            .filter_map(|e| match &e.kind {
                SchedEventKind::Switch { prev_pid, prev_state, .. }
                    if *prev_pid == low && *prev_state == ThreadState::Dead =>
                {
                    Some(e.time)
                }
                _ => None,
            })
            .next_back()
            .expect("low thread exits");
        assert_eq!(last_low_switch, Nanos::from_millis(13));
    }

    #[test]
    fn affinity_is_respected() {
        let mut b = SimulatorBuilder::new(2);
        let pinned = b.spawn(
            "pinned",
            Priority::NORMAL,
            Affinity::only(Cpu::new(1)),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(10));
        assert_eq!(sim.cpu_time(pinned), Nanos::from_millis(5));
        assert_eq!(sim.busy_time(Cpu::new(0)), Nanos::ZERO);
        assert_eq!(sim.busy_time(Cpu::new(1)), Nanos::from_millis(5));
        // Every switch event involving the pinned thread names cpu1.
        for e in events.borrow().iter() {
            if e.prev_pid() == Some(pinned) || e.next_pid() == Some(pinned) {
                assert_eq!(e.cpu, Cpu::new(1));
            }
        }
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut b = SimulatorBuilder::new(2);
        let a = b.spawn(
            "a",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let c = b.spawn(
            "b",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(5));
        // Both finish by t=5ms: they ran concurrently.
        assert_eq!(sim.cpu_time(a), Nanos::from_millis(5));
        assert_eq!(sim.cpu_time(c), Nanos::from_millis(5));
    }

    #[test]
    fn block_and_timed_wake() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![
                compute(1),
                Op::sleep_until(Nanos::from_millis(8)),
                compute(1),
            ])),
        );
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(2));
        // A wakeup event fires at t=8ms.
        let wake = events
            .borrow()
            .iter()
            .find(|e| matches!(e.kind, SchedEventKind::Wakeup { pid: p, .. } if p == pid))
            .expect("wakeup recorded")
            .time;
        assert_eq!(wake, Nanos::from_millis(8));
    }

    /// A thread that wakes a sleeping partner mid-run.
    struct Waker {
        target: Pid,
        step: u8,
    }
    impl ThreadLogic for Waker {
        fn next_op(&mut self, ctx: &mut SimCtx<'_>) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::Compute(Nanos::from_millis(3)),
                2 => {
                    ctx.wake(self.target);
                    Op::Compute(Nanos::from_millis(1))
                }
                _ => Op::Exit,
            }
        }
    }

    #[test]
    fn cross_thread_wake() {
        let mut b = SimulatorBuilder::new(2);
        let sleeper = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::block(), compute(2)])),
        );
        let waker =
            b.spawn("waker", Priority::NORMAL, Affinity::all(), Box::new(Waker { target: sleeper, step: 0 }));
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(sleeper), Nanos::from_millis(2));
        assert_eq!(sim.cpu_time(waker), Nanos::from_millis(4));
        let wake = events
            .borrow()
            .iter()
            .find(|e| matches!(e.kind, SchedEventKind::Wakeup { pid: p, .. } if p == sleeper))
            .expect("wakeup recorded")
            .time;
        assert_eq!(wake, Nanos::from_millis(3));
    }

    #[test]
    fn pending_wake_prevents_lost_signal() {
        // Waker signals the sleeper before the sleeper blocks: the block
        // must return immediately rather than hang forever.
        let mut b = SimulatorBuilder::new(1);
        // Waker runs first (spawned first, same priority, FIFO) and wakes
        // the sleeper while the sleeper has not yet blocked.
        struct EarlyWaker {
            target: Pid,
            done: bool,
        }
        impl ThreadLogic for EarlyWaker {
            fn next_op(&mut self, ctx: &mut SimCtx<'_>) -> Op {
                if self.done {
                    Op::Exit
                } else {
                    self.done = true;
                    ctx.wake(self.target);
                    Op::Compute(Nanos::from_millis(2))
                }
            }
        }
        // Spawn the sleeper second so the waker must signal before the
        // sleeper has ever run. PIDs are sequential (`next_pid`), so the
        // sleeper — the second spawn — gets next_pid() + 1.
        let sleeper_pid = Pid::new(b.next_pid().get() + 1);
        let waker = b.spawn(
            "waker",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(EarlyWaker { target: sleeper_pid, done: false }),
        );
        let sleeper = b.spawn(
            "sleeper",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![Op::block(), compute(1)])),
        );
        assert_eq!(sleeper, sleeper_pid);
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        assert_eq!(sim.cpu_time(waker), Nanos::from_millis(2));
        assert_eq!(sim.cpu_time(sleeper), Nanos::from_millis(1), "signal must not be lost");
    }

    #[test]
    fn switch_stream_is_consistent() {
        // Per CPU, the prev of each switch equals the next of the previous
        // switch on that CPU (diff-based emission guarantees continuity).
        let mut b = SimulatorBuilder::new(2);
        for i in 0..4 {
            b.spawn(
                format!("t{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![
                    compute(3),
                    Op::sleep_until(Nanos::from_millis(10 + i)),
                    compute(2),
                ])),
            );
        }
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(40));
        let mut current: Vec<Pid> = vec![Pid::IDLE; 2];
        let mut prev_time = Nanos::ZERO;
        for e in events.borrow().iter() {
            assert!(e.time >= prev_time, "events must be chronological");
            prev_time = e.time;
            if let SchedEventKind::Switch { prev_pid, next_pid, .. } = &e.kind {
                assert_eq!(
                    *prev_pid,
                    current[e.cpu.index()],
                    "switch continuity broken at {}",
                    e.time
                );
                assert_ne!(prev_pid, next_pid, "degenerate switch");
                current[e.cpu.index()] = *next_pid;
            }
        }
    }

    #[test]
    fn run_until_is_resumable() {
        let mut b = SimulatorBuilder::new(1);
        let pid = b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(10)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(4));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(4));
        sim.run_until(Nanos::from_millis(12));
        assert_eq!(sim.cpu_time(pid), Nanos::from_millis(10));
    }

    #[test]
    fn affinity_helpers() {
        let a = Affinity(0b1001);
        assert!(a.allows(Cpu::new(0)));
        assert!(!a.allows(Cpu::new(1)));
        assert!(a.allows(Cpu::new(3)));
        assert_eq!(Affinity::default(), Affinity::all());
    }

    #[test]
    #[should_panic]
    fn zero_cpus_rejected() {
        let _ = SimulatorBuilder::new(0);
    }

    /// Builds the same 3-priority, mixed-affinity machine twice — indexed
    /// and reference — and pins the full event streams against each other.
    fn mixed_machine(b: &mut SimulatorBuilder) {
        for i in 0..6u64 {
            let prio = Priority::new((i % 3) as i32);
            let affinity = if i % 2 == 0 {
                Affinity::all()
            } else {
                Affinity::only(Cpu::new((i % 2) as u16))
            };
            b.spawn(
                format!("t{i}"),
                prio,
                affinity,
                Box::new(ScriptedLogic::new(vec![
                    compute(2 + i % 3),
                    Op::sleep_until(Nanos::from_millis(8 + i)),
                    compute(3),
                    Op::sleep_until(Nanos::from_millis(20 + 2 * i)),
                    compute(1),
                ])),
            );
        }
    }

    #[test]
    fn indexed_engine_matches_reference_stream() {
        let mut bi = SimulatorBuilder::new(2);
        mixed_machine(&mut bi);
        let mut indexed = bi.build();
        let indexed_events = collector(&mut indexed);
        indexed.run_until(Nanos::from_millis(60));

        let mut br = SimulatorBuilder::new(2).reference_engine();
        mixed_machine(&mut br);
        let mut reference = br.build();
        let reference_events = collector(&mut reference);
        reference.run_until(Nanos::from_millis(60));

        assert_eq!(*indexed_events.borrow(), *reference_events.borrow());
        assert_eq!(indexed.stats().switches, reference.stats().switches);
        for pid in indexed.pids() {
            assert_eq!(indexed.cpu_time(pid), reference.cpu_time(pid));
        }
    }

    #[test]
    fn stats_track_engine_work() {
        let mut b = SimulatorBuilder::new(1);
        for i in 0..2 {
            b.spawn(
                format!("t{i}"),
                Priority::NORMAL,
                Affinity::all(),
                Box::new(ScriptedLogic::new(vec![compute(10)])),
            );
        }
        let mut sim = b.build();
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(30));
        let stats = sim.stats();
        assert!(stats.events > 0, "events must be counted");
        assert!(stats.heap_pushes > 0, "op completions go through the heap");
        assert!(stats.slice_arms > 0, "equal priorities arm slice checks");
        assert!(
            stats.rebalance_skipped > 0,
            "slice re-arms must not trigger scheduling passes"
        );
        let switches = events
            .borrow()
            .iter()
            .filter(|e| matches!(e.kind, SchedEventKind::Switch { .. }))
            .count();
        assert_eq!(stats.switches, switches as u64, "one count per emitted switch");
        // Two equal-priority threads: nothing is suppressed.
        assert_eq!(stats.slice_suppressed, 0);
    }

    #[test]
    fn lone_top_priority_thread_suppresses_slice_checks() {
        // One thread strictly above everything else: its slice checks can
        // never find a contender, so none are armed for it.
        let mut b = SimulatorBuilder::new(1);
        b.spawn(
            "top",
            Priority::new(9),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        b.spawn(
            "low",
            Priority::new(1),
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(5)])),
        );
        let mut sim = b.build();
        sim.run_until(Nanos::from_millis(20));
        let stats = sim.stats();
        assert!(stats.slice_suppressed > 0, "top thread's arms are elided");
        assert!(stats.slice_arms > 0, "low thread still arms (top outranks it)");
    }

    #[test]
    fn sink_receives_events() {
        #[derive(Default)]
        struct Counter(usize);
        impl SchedSink for Counter {
            fn on_sched_event(&mut self, _event: &SchedEvent) {
                self.0 += 1;
            }
        }
        let counter = Rc::new(RefCell::new(Counter::default()));
        let mut b = SimulatorBuilder::new(1);
        b.spawn(
            "t",
            Priority::NORMAL,
            Affinity::all(),
            Box::new(ScriptedLogic::new(vec![compute(1)])),
        );
        let mut sim = b.build();
        sim.add_sink(Box::new(Rc::clone(&counter)));
        let events = collector(&mut sim);
        sim.run_until(Nanos::from_millis(5));
        assert_eq!(counter.borrow().0, events.borrow().len(), "every sink sees every event");
        assert!(counter.borrow().0 > 0);
    }
}
