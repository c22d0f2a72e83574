//! Streaming event sinks, trace segments, and segment cursors.
//!
//! The paper's pipeline is naturally streaming: the eBPF perf buffers are
//! drained continuously and long runs are collected as bounded *segments*
//! (Fig. 2 stop/store/restart cycle), not as one monolithic trace. This
//! module provides the vocabulary for that flow:
//!
//! - [`EventSink`] — anything events can be drained into: a [`Trace`], a
//!   [`TraceSegment`], or an incremental consumer like the synthesis
//!   session in `rtms-core`.
//! - [`TraceSegment`] — the events of one bounded collection window, with
//!   its position in the run.
//! - [`SegmentCursor`] / [`SegmentEvent`] — a chronological walk over the
//!   ROS2 and scheduler streams *merged by timestamp*, which is the order
//!   an online consumer must observe events in.
//! - [`split_by_events`] — re-segments an existing trace, the tool the
//!   streaming/batch equivalence suites are built on.

use crate::event::RosEvent;
use crate::sched_event::SchedEvent;
use crate::time::Nanos;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// A consumer of trace events.
///
/// Both event streams of the pipeline (ROS2 middleware events and kernel
/// scheduler events) are pushed through this one interface, so producers —
/// the perf buffers and tracers of `rtms-ebpf`, a running
/// `rtms_ros2::Ros2World` — need not know whether they are filling a
/// [`Trace`], a bounded [`TraceSegment`], or feeding an online consumer.
pub trait EventSink {
    /// Accepts one ROS2 middleware event.
    fn push_ros(&mut self, event: RosEvent);
    /// Accepts one kernel scheduler event.
    fn push_sched(&mut self, event: SchedEvent);

    /// Accepts a whole batch of ROS2 events, draining `events` (which
    /// keeps its allocation). The default forwards event by event; trace
    /// containers override it with a bulk move so a perf-buffer drain is
    /// one `memcpy` (or a pointer swap) instead of n virtual pushes.
    fn append_ros(&mut self, events: &mut Vec<RosEvent>) {
        for event in events.drain(..) {
            self.push_ros(event);
        }
    }

    /// Accepts a whole batch of scheduler events, draining `events` (same
    /// contract as [`EventSink::append_ros`]).
    fn append_sched(&mut self, events: &mut Vec<SchedEvent>) {
        for event in events.drain(..) {
            self.push_sched(event);
        }
    }
}

impl EventSink for Trace {
    fn push_ros(&mut self, event: RosEvent) {
        Trace::push_ros(self, event);
    }
    fn push_sched(&mut self, event: SchedEvent) {
        Trace::push_sched(self, event);
    }
    fn append_ros(&mut self, events: &mut Vec<RosEvent>) {
        Trace::append_ros(self, events);
    }
    fn append_sched(&mut self, events: &mut Vec<SchedEvent>) {
        Trace::append_sched(self, events);
    }
}

/// The events collected during one bounded window of a longer run — one
/// stop/store/restart cycle of the Fig. 2 deployment flow.
///
/// A segment is a [`Trace`] in miniature plus its position (`index`) in the
/// run; [`TraceSegment::cursor`] walks its two streams merged
/// chronologically, which is what an incremental consumer needs.
///
/// # Example
///
/// ```
/// use rtms_trace::{EventSink, Nanos, Pid, RosEvent, RosPayload, CallbackKind, TraceSegment};
///
/// let mut seg = TraceSegment::with_index(3);
/// seg.push_ros(RosEvent::new(
///     Nanos::from_millis(1),
///     Pid::new(1),
///     RosPayload::CallbackStart { kind: CallbackKind::Timer },
/// ));
/// assert_eq!(seg.index(), 3);
/// assert_eq!(seg.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    index: usize,
    trace: Trace,
}

impl TraceSegment {
    /// Creates an empty segment with index 0.
    pub fn new() -> Self {
        TraceSegment::default()
    }

    /// Creates an empty segment at the given position in the run.
    pub fn with_index(index: usize) -> Self {
        TraceSegment { index, ..TraceSegment::default() }
    }

    /// Zero-based position of this segment within its run.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Overwrites the segment's position in the run (used when a reused
    /// decode buffer takes on the identity of the next stored segment).
    pub fn set_index(&mut self, index: usize) {
        self.index = index;
    }

    /// Removes all events, keeping both streams' capacity (see
    /// [`Trace::clear`]).
    pub fn clear(&mut self) {
        self.trace.clear();
    }

    /// Resets the segment to an empty state under a new run position,
    /// keeping every allocation the previous fill grew: the event vectors'
    /// capacity stays, and event payloads (topic-name `Arc<str>`s,
    /// node-name strings) were *moved out* by whoever consumed the events,
    /// so nothing is freed here. This is the recycle step of the slab
    /// pipeline — a steady-state segment window reuses this buffer without
    /// touching the allocator.
    pub fn clear_for_reuse(&mut self, index: usize) {
        self.trace.clear();
        self.index = index;
    }

    /// Whether both streams are already chronologically sorted (see
    /// [`Trace::is_sorted_by_time`]).
    pub fn is_sorted_by_time(&self) -> bool {
        self.trace.is_sorted_by_time()
    }

    /// Reserves capacity for the given number of additional events per
    /// stream (see [`Trace::reserve`]).
    pub fn reserve(&mut self, ros: usize, sched: usize) {
        self.trace.reserve(ros, sched);
    }

    /// The ROS2 events, in insertion order.
    pub fn ros_events(&self) -> &[RosEvent] {
        self.trace.ros_events()
    }

    /// The scheduler events, in insertion order.
    pub fn sched_events(&self) -> &[SchedEvent] {
        self.trace.sched_events()
    }

    /// Number of events of both kinds.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Sorts both streams chronologically (stable, like
    /// [`Trace::sort_by_time`]).
    pub fn sort_by_time(&mut self) {
        self.trace.sort_by_time();
    }

    /// Timestamp of the last event, or `None` if empty.
    pub fn end_time(&self) -> Option<Nanos> {
        self.trace.end_time()
    }

    /// A chronological cursor over both streams merged by timestamp.
    pub fn cursor(&self) -> SegmentCursor<'_> {
        self.trace.cursor()
    }

    /// Converts the segment into a plain [`Trace`] (events keep their
    /// order; call [`Trace::sort_by_time`] if needed).
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl EventSink for TraceSegment {
    fn push_ros(&mut self, event: RosEvent) {
        self.trace.push_ros(event);
    }
    fn push_sched(&mut self, event: SchedEvent) {
        self.trace.push_sched(event);
    }
    fn append_ros(&mut self, events: &mut Vec<RosEvent>) {
        self.trace.append_ros(events);
    }
    fn append_sched(&mut self, events: &mut Vec<SchedEvent>) {
        self.trace.append_sched(events);
    }
}

impl From<Trace> for TraceSegment {
    fn from(trace: Trace) -> TraceSegment {
        TraceSegment { index: 0, trace }
    }
}

impl From<TraceSegment> for Trace {
    fn from(segment: TraceSegment) -> Trace {
        segment.into_trace()
    }
}

/// One event yielded by a [`SegmentCursor`]: either stream, by reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentEvent<'a> {
    /// A ROS2 middleware event.
    Ros(&'a RosEvent),
    /// A kernel scheduler event.
    Sched(&'a SchedEvent),
}

impl SegmentEvent<'_> {
    /// The event's timestamp.
    pub fn time(&self) -> Nanos {
        match self {
            SegmentEvent::Ros(e) => e.time,
            SegmentEvent::Sched(e) => e.time,
        }
    }
}

/// Chronological iterator over the ROS2 and scheduler streams of a segment
/// (or whole trace), merged by timestamp.
///
/// The walk is *stable*: each stream is visited in stable time-sorted order
/// (equal timestamps keep their emission order, exactly like
/// [`Trace::sort_by_time`]), and on a timestamp tie between the two streams
/// the ROS2 event is yielded first. The input slices need not be pre-sorted
/// — the cursor sorts an index table, not the events.
///
/// # Example
///
/// ```
/// use rtms_trace::{SegmentCursor, SegmentEvent, Nanos, Pid, RosEvent, RosPayload, CallbackKind};
///
/// let ros = [RosEvent::new(
///     Nanos::from_nanos(5),
///     Pid::new(1),
///     RosPayload::CallbackStart { kind: CallbackKind::Timer },
/// )];
/// let cursor = SegmentCursor::over(&ros, &[]);
/// assert_eq!(cursor.count(), 1);
/// ```
#[derive(Debug)]
pub struct SegmentCursor<'a> {
    ros: &'a [RosEvent],
    sched: &'a [SchedEvent],
    ros_order: Vec<usize>,
    sched_order: Vec<usize>,
    ri: usize,
    si: usize,
}

impl<'a> SegmentCursor<'a> {
    /// Creates a cursor over explicit event slices.
    pub fn over(ros: &'a [RosEvent], sched: &'a [SchedEvent]) -> SegmentCursor<'a> {
        let mut ros_order: Vec<usize> = (0..ros.len()).collect();
        ros_order.sort_by_key(|&i| ros[i].time);
        let mut sched_order: Vec<usize> = (0..sched.len()).collect();
        sched_order.sort_by_key(|&i| sched[i].time);
        SegmentCursor { ros, sched, ros_order, sched_order, ri: 0, si: 0 }
    }

    /// Events not yet yielded.
    pub fn remaining(&self) -> usize {
        (self.ros_order.len() - self.ri) + (self.sched_order.len() - self.si)
    }
}

impl<'a> Iterator for SegmentCursor<'a> {
    type Item = SegmentEvent<'a>;

    fn next(&mut self) -> Option<SegmentEvent<'a>> {
        let next_ros = self.ros_order.get(self.ri).map(|&i| &self.ros[i]);
        let next_sched = self.sched_order.get(self.si).map(|&i| &self.sched[i]);
        match (next_ros, next_sched) {
            (Some(r), Some(s)) => {
                if r.time <= s.time {
                    self.ri += 1;
                    Some(SegmentEvent::Ros(r))
                } else {
                    self.si += 1;
                    Some(SegmentEvent::Sched(s))
                }
            }
            (Some(r), None) => {
                self.ri += 1;
                Some(SegmentEvent::Ros(r))
            }
            (None, Some(s)) => {
                self.si += 1;
                Some(SegmentEvent::Sched(s))
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

/// Re-segments a trace into chunks of at most `events_per_segment` events,
/// walking both streams chronologically.
///
/// Concatenating the returned segments reproduces the trace's events in
/// stable time-sorted order, so feeding them to an incremental consumer is
/// equivalent to batch-processing the whole trace — the property the
/// streaming/batch equivalence suites pin down (including
/// `events_per_segment == 1`, which exercises every boundary).
///
/// # Panics
///
/// Panics if `events_per_segment` is zero.
pub fn split_by_events(trace: &Trace, events_per_segment: usize) -> Vec<TraceSegment> {
    assert!(events_per_segment > 0, "segments must hold at least one event");
    let mut segments = Vec::new();
    let mut current = TraceSegment::with_index(0);
    for event in SegmentCursor::over(trace.ros_events(), trace.sched_events()) {
        if current.len() == events_per_segment {
            let index = current.index + 1;
            segments.push(std::mem::replace(&mut current, TraceSegment::with_index(index)));
        }
        match event {
            SegmentEvent::Ros(e) => current.push_ros(e.clone()),
            SegmentEvent::Sched(e) => current.push_sched(e.clone()),
        }
    }
    if !current.is_empty() {
        segments.push(current);
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallbackKind, RosPayload};
    use crate::ids::{Cpu, Pid, Priority};
    use crate::sched_event::ThreadState;

    fn ros(t: u64) -> RosEvent {
        RosEvent::new(
            Nanos::from_nanos(t),
            Pid::new(1),
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
    fn segment_collects_both_streams() {
        let mut seg = TraceSegment::with_index(2);
        seg.push_ros(ros(5));
        seg.push_sched(sched(3));
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.index(), 2);
        assert_eq!(seg.end_time(), Some(Nanos::from_nanos(5)));
        let trace: Trace = seg.into();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn cursor_merges_chronologically_ros_first_on_ties() {
        let mut seg = TraceSegment::new();
        seg.push_sched(sched(1));
        seg.push_ros(ros(1));
        seg.push_sched(sched(0));
        seg.push_ros(ros(2));
        let times: Vec<(bool, u64)> = seg
            .cursor()
            .map(|e| (matches!(e, SegmentEvent::Ros(_)), e.time().as_nanos()))
            .collect();
        assert_eq!(times, vec![(false, 0), (true, 1), (false, 1), (true, 2)]);
    }

    #[test]
    fn cursor_is_stable_for_equal_timestamps() {
        // Two ROS events at the same instant keep their emission order even
        // when the underlying vector is unsorted elsewhere.
        let a = ros(7);
        let b = RosEvent::new(
            Nanos::from_nanos(7),
            Pid::new(1),
            RosPayload::CallbackEnd { kind: CallbackKind::Timer },
        );
        let events = [a.clone(), b.clone()];
        let seen: Vec<&RosEvent> = SegmentCursor::over(&events, &[])
            .map(|e| match e {
                SegmentEvent::Ros(r) => r,
                SegmentEvent::Sched(_) => unreachable!(),
            })
            .collect();
        assert_eq!(seen, vec![&a, &b]);
    }

    #[test]
    fn split_preserves_order_and_sizes() {
        let mut trace = Trace::new();
        for t in [3u64, 1, 2] {
            trace.push_ros(ros(t));
        }
        trace.push_sched(sched(0));
        let segments = split_by_events(&trace, 2);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].len(), 2);
        assert_eq!(segments[1].len(), 2);
        assert_eq!(segments[0].index(), 0);
        assert_eq!(segments[1].index(), 1);
        let times: Vec<u64> = segments
            .iter()
            .flat_map(|s| s.cursor().map(|e| e.time().as_nanos()).collect::<Vec<_>>())
            .collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }

    #[test]
    fn split_single_event_segments() {
        let mut trace = Trace::new();
        trace.push_ros(ros(1));
        trace.push_sched(sched(2));
        let segments = split_by_events(&trace, 1);
        assert_eq!(segments.len(), 2);
        assert!(segments.iter().all(|s| s.len() == 1));
    }

    #[test]
    #[should_panic]
    fn split_rejects_zero() {
        let _ = split_by_events(&Trace::new(), 0);
    }

    #[test]
    fn clear_for_reuse_keeps_capacity_and_renumbers() {
        let mut seg = TraceSegment::with_index(1);
        seg.reserve(64, 64);
        for t in 0..64 {
            seg.push_ros(ros(t));
            seg.push_sched(sched(t));
        }
        seg.clear_for_reuse(7);
        assert!(seg.is_empty());
        assert_eq!(seg.index(), 7);
        // Refilling to the same size must not reallocate: prove it by
        // growing back without reserve and checking nothing was lost.
        for t in 0..64 {
            seg.push_ros(ros(t));
        }
        assert_eq!(seg.ros_events().len(), 64);
    }

    #[test]
    fn append_swaps_into_empty_sink_and_extends_otherwise() {
        let mut seg = TraceSegment::new();
        let mut batch: Vec<RosEvent> = (0..16).map(ros).collect();
        let donor_cap = batch.capacity();
        seg.append_ros(&mut batch);
        assert_eq!(seg.ros_events().len(), 16);
        assert!(batch.is_empty());
        // Swap path: the donor walked away with the sink's (empty) vector;
        // the next append has somewhere to extend into.
        let mut more: Vec<RosEvent> = (16..20).map(ros).collect();
        seg.append_ros(&mut more);
        assert_eq!(seg.ros_events().len(), 20);
        assert!(more.is_empty());
        let times: Vec<u64> = seg.ros_events().iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, (0..20).collect::<Vec<_>>(), "append preserves order");
        let _ = donor_cap;
    }

    #[test]
    fn default_append_forwards_to_pushes() {
        // A sink that only implements the per-event methods must still
        // accept batches through the trait's default append_* methods.
        struct Counter(usize);
        impl EventSink for Counter {
            fn push_ros(&mut self, _: RosEvent) {
                self.0 += 1;
            }
            fn push_sched(&mut self, _: SchedEvent) {
                self.0 += 1;
            }
        }
        let mut counter = Counter(0);
        let sink: &mut dyn EventSink = &mut counter;
        sink.append_ros(&mut vec![ros(1), ros(2)]);
        sink.append_sched(&mut vec![sched(3)]);
        assert_eq!(counter.0, 3);
    }

    #[test]
    fn trace_is_a_sink() {
        let mut trace = Trace::new();
        let sink: &mut dyn EventSink = &mut trace;
        sink.push_ros(ros(1));
        sink.push_sched(sched(2));
        assert_eq!(trace.len(), 2);
    }
}
