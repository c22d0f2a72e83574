//! The trace container.

use crate::event::RosEvent;
use crate::ids::Pid;
use crate::sched_event::SchedEvent;
use crate::time::Nanos;

/// A trace: the ROS2 events and scheduler events collected over one tracing
/// window, plus that window's position (`index`) in its run.
///
/// One type serves every scale of the Fig. 2 flow. A bounded segment — one
/// stop/store/restart cycle of a longer run — is a trace with its run
/// index set; a whole run, or the merge of several, is a trace at index 0.
/// This is the input to the synthesis algorithms: Algorithm 1 consumes
/// `ros_events` filtered by PID, Algorithm 2 consumes `sched_events`, and
/// [`Trace::cursor`] walks both streams merged chronologically for an
/// incremental consumer.
///
/// # Example
///
/// ```
/// use rtms_trace::{Nanos, Pid, RosEvent, RosPayload, Trace};
///
/// let mut t = Trace::new();
/// t.push_ros(RosEvent::new(
///     Nanos::from_nanos(20), Pid::new(1),
///     RosPayload::NodeInit { node_name: "b".into() },
/// ));
/// t.push_ros(RosEvent::new(
///     Nanos::from_nanos(10), Pid::new(1),
///     RosPayload::NodeInit { node_name: "a".into() },
/// ));
/// t.sort_by_time();
/// assert!(t.ros_events()[0].time < t.ros_events()[1].time);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    index: usize,
    ros_events: Vec<RosEvent>,
    sched_events: Vec<SchedEvent>,
}

impl Trace {
    /// Creates an empty trace at index 0.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace at the given position in its run.
    pub fn with_index(index: usize) -> Self {
        Trace { index, ..Trace::default() }
    }

    /// Creates a trace at index 0 from already-collected event vectors.
    pub fn from_events(ros_events: Vec<RosEvent>, sched_events: Vec<SchedEvent>) -> Self {
        Trace { index: 0, ros_events, sched_events }
    }

    /// Zero-based position of this trace (segment) within its run.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Overwrites the trace's position in its run (used when a reused
    /// buffer takes on the identity of the next segment).
    pub fn set_index(&mut self, index: usize) {
        self.index = index;
    }

    /// Decomposes the trace into its `(ros_events, sched_events)` vectors.
    pub fn into_events(self) -> (Vec<RosEvent>, Vec<SchedEvent>) {
        (self.ros_events, self.sched_events)
    }

    /// A chronological cursor over both event streams merged by timestamp
    /// (see [`crate::cursor::SegmentCursor`] for the ordering contract).
    pub fn cursor(&self) -> crate::cursor::SegmentCursor<'_> {
        crate::cursor::SegmentCursor::over(&self.ros_events, &self.sched_events)
    }

    /// Appends a ROS2 event.
    pub fn push_ros(&mut self, event: RosEvent) {
        self.ros_events.push(event);
    }

    /// Removes all events, keeping the allocated capacity — lets a decode
    /// or drain loop reuse one trace as a scratch buffer.
    pub fn clear(&mut self) {
        self.ros_events.clear();
        self.sched_events.clear();
    }

    /// Resets the trace to an empty state under a new run position,
    /// keeping every allocation the previous fill grew: the event vectors'
    /// capacity stays, and event payloads (topic-name `Arc<str>`s,
    /// node-name strings) were *moved out* by whoever consumed the events,
    /// so nothing is freed here. This is the recycle step of the slab
    /// pipeline — a steady-state segment window reuses this buffer without
    /// touching the allocator.
    pub fn clear_for_reuse(&mut self, index: usize) {
        self.clear();
        self.index = index;
    }

    /// Reserves capacity for at least the given number of additional
    /// events per stream (used by the binary decoder, which knows both
    /// stream lengths up front).
    pub fn reserve(&mut self, ros: usize, sched: usize) {
        self.ros_events.reserve(ros);
        self.sched_events.reserve(sched);
    }

    /// Appends a scheduler event.
    pub fn push_sched(&mut self, event: SchedEvent) {
        self.sched_events.push(event);
    }

    /// The ROS2 events, in insertion order (call [`Trace::sort_by_time`]
    /// first if chronological order is required).
    pub fn ros_events(&self) -> &[RosEvent] {
        &self.ros_events
    }

    /// The scheduler events.
    pub fn sched_events(&self) -> &[SchedEvent] {
        &self.sched_events
    }

    /// Number of events of both kinds.
    pub fn len(&self) -> usize {
        self.ros_events.len() + self.sched_events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.ros_events.is_empty() && self.sched_events.is_empty()
    }

    /// Sorts both event streams chronologically (stable, so simultaneous
    /// events keep their emission order — important because a callback-start
    /// probe and the `take` probe it encloses may share a timestamp).
    ///
    /// Already-sorted streams are detected with one linear scan and left
    /// untouched. Tracers emit in time order, so on the hot collection path
    /// this is the common case and the scan replaces the sort entirely.
    pub fn sort_by_time(&mut self) {
        if !self.ros_events.is_sorted_by_key(|e| e.time) {
            self.ros_events.sort_by_key(|e| e.time);
        }
        if !self.sched_events.is_sorted_by_key(|e| e.time) {
            self.sched_events.sort_by_key(|e| e.time);
        }
    }

    /// Whether both event streams are already in chronological order — the
    /// precondition for the zero-allocation two-pointer merge consumers use
    /// instead of building a [`crate::cursor::SegmentCursor`] index table.
    pub fn is_sorted_by_time(&self) -> bool {
        self.ros_events.is_sorted_by_key(|e| e.time)
            && self.sched_events.is_sorted_by_key(|e| e.time)
    }

    /// Moves all events out of `events` onto the end of the ROS2 stream.
    ///
    /// When this trace's stream is empty the two vectors are *swapped*, so
    /// the bulk transfer is pointer-sized and — crucially for the recycled
    /// slab pipeline — the donor vector inherits this trace's allocated
    /// capacity for its next fill. Otherwise the events are appended with
    /// one `memcpy` and `events` keeps its own (now empty) storage.
    pub fn append_ros(&mut self, events: &mut Vec<RosEvent>) {
        if self.ros_events.is_empty() {
            std::mem::swap(&mut self.ros_events, events);
        } else {
            self.ros_events.append(events);
        }
    }

    /// Moves all events out of `events` onto the end of the scheduler
    /// stream (same swap-when-empty contract as [`Trace::append_ros`]).
    pub fn append_sched(&mut self, events: &mut Vec<SchedEvent>) {
        if self.sched_events.is_empty() {
            std::mem::swap(&mut self.sched_events, events);
        } else {
            self.sched_events.append(events);
        }
    }

    /// The ROS2 events of one node (`SortByTime` + `filter by process` of
    /// Algorithm 1's precondition), chronologically sorted.
    pub fn ros_events_for(&self, pid: Pid) -> Vec<RosEvent> {
        let mut events: Vec<RosEvent> =
            self.ros_events.iter().filter(|e| e.pid == pid).cloned().collect();
        events.sort_by_key(|e| e.time);
        events
    }

    /// All distinct PIDs appearing in ROS2 events, sorted.
    pub fn ros_pids(&self) -> Vec<Pid> {
        let mut pids: Vec<Pid> = self.ros_events.iter().map(|e| e.pid).collect();
        pids.sort();
        pids.dedup();
        pids
    }

    /// Merges another trace into this one (Fig. 2, "merge traces" path).
    /// Events are re-sorted chronologically afterwards; this trace keeps
    /// its index.
    pub fn merge(&mut self, other: Trace) {
        self.ros_events.extend(other.ros_events);
        self.sched_events.extend(other.sched_events);
        self.sort_by_time();
    }

    /// Timestamp of the last event in the trace, or `None` if empty.
    pub fn end_time(&self) -> Option<Nanos> {
        let ros = self.ros_events.iter().map(|e| e.time).max();
        let sched = self.sched_events.iter().map(|e| e.time).max();
        match (ros, sched) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Total encoded size in bytes of all events, modeling the on-disk
    /// footprint of the exported trace (Sec. VI trace-volume experiment).
    pub fn encoded_size(&self) -> usize {
        self.ros_events.iter().map(RosEvent::encoded_size).sum::<usize>()
            + self.sched_events.iter().map(SchedEvent::encoded_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallbackKind, RosPayload};
    use crate::ids::{Cpu, Priority};
    use crate::sched_event::ThreadState;

    fn ros(t: u64, pid: u32) -> RosEvent {
        RosEvent::new(
            Nanos::from_nanos(t),
            Pid::new(pid),
            RosPayload::CallbackStart { kind: CallbackKind::Timer },
        )
    }

    fn sched(t: u64) -> SchedEvent {
        SchedEvent::switch(
            Nanos::from_nanos(t),
            Cpu::new(0),
            Pid::new(1),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(2),
            Priority::NORMAL,
        )
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.end_time(), None);
    }

    #[test]
    fn sort_and_filter_by_pid() {
        let mut t = Trace::new();
        t.push_ros(ros(30, 2));
        t.push_ros(ros(10, 1));
        t.push_ros(ros(20, 1));
        let for_one = t.ros_events_for(Pid::new(1));
        assert_eq!(for_one.len(), 2);
        assert!(for_one[0].time <= for_one[1].time);
        assert_eq!(t.ros_pids(), vec![Pid::new(1), Pid::new(2)]);
    }

    #[test]
    fn merge_concatenates_and_sorts() {
        let mut a = Trace::new();
        a.push_ros(ros(30, 1));
        a.push_sched(sched(25));
        let mut b = Trace::new();
        b.push_ros(ros(10, 1));
        b.push_sched(sched(5));
        a.merge(b);
        assert_eq!(a.ros_events().len(), 2);
        assert_eq!(a.ros_events()[0].time, Nanos::from_nanos(10));
        assert_eq!(a.sched_events()[0].time, Nanos::from_nanos(5));
        assert_eq!(a.end_time(), Some(Nanos::from_nanos(30)));
    }

    #[test]
    fn encoded_size_sums_both_streams() {
        let mut t = Trace::new();
        t.push_ros(ros(1, 1));
        t.push_sched(sched(2));
        assert_eq!(
            t.encoded_size(),
            t.ros_events()[0].encoded_size() + t.sched_events()[0].encoded_size()
        );
    }

    #[test]
    fn segment_collects_both_streams() {
        let mut seg = Trace::with_index(2);
        seg.push_ros(ros(5, 1));
        seg.push_sched(sched(3));
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.index(), 2);
        assert_eq!(seg.end_time(), Some(Nanos::from_nanos(5)));
    }

    #[test]
    fn clear_for_reuse_keeps_capacity_and_renumbers() {
        let mut seg = Trace::with_index(1);
        seg.reserve(64, 64);
        for t in 0..64 {
            seg.push_ros(ros(t, 1));
            seg.push_sched(sched(t));
        }
        seg.clear_for_reuse(7);
        assert!(seg.is_empty());
        assert_eq!(seg.index(), 7);
        // Refilling to the same size must not reallocate: prove it by
        // growing back without reserve and checking nothing was lost.
        for t in 0..64 {
            seg.push_ros(ros(t, 1));
        }
        assert_eq!(seg.ros_events().len(), 64);
    }

    #[test]
    fn append_swaps_into_empty_trace_and_extends_otherwise() {
        let mut seg = Trace::new();
        let mut batch: Vec<RosEvent> = (0..16).map(|t| ros(t, 1)).collect();
        seg.append_ros(&mut batch);
        assert_eq!(seg.ros_events().len(), 16);
        assert!(batch.is_empty());
        // Swap path: the donor walked away with the trace's (empty)
        // vector; the next append has somewhere to extend into.
        let mut more: Vec<RosEvent> = (16..20).map(|t| ros(t, 1)).collect();
        seg.append_ros(&mut more);
        assert_eq!(seg.ros_events().len(), 20);
        assert!(more.is_empty());
        let times: Vec<u64> = seg.ros_events().iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, (0..20).collect::<Vec<_>>(), "append preserves order");
    }

    #[test]
    fn stable_sort_preserves_equal_timestamp_order() {
        let mut t = Trace::new();
        t.push_ros(RosEvent::new(
            Nanos::from_nanos(5),
            Pid::new(1),
            RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
        ));
        t.push_ros(RosEvent::new(
            Nanos::from_nanos(5),
            Pid::new(1),
            RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
        ));
        t.sort_by_time();
        assert!(matches!(t.ros_events()[0].payload, RosPayload::CallbackStart { .. }));
    }
}
