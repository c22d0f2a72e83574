//! Chronological walks over a trace's two event streams.
//!
//! The paper's pipeline is naturally streaming: the eBPF perf buffers are
//! drained continuously and long runs are collected as bounded *segments*
//! (Fig. 2 stop/store/restart cycle), each one a [`Trace`] carrying its
//! run index. This module provides the walk an online consumer needs over
//! such a segment:
//!
//! - [`SegmentCursor`] / [`SegmentEvent`] — a chronological walk over the
//!   ROS2 and scheduler streams *merged by timestamp*, which is the order
//!   an online consumer must observe events in.
//! - [`split_by_events`] — re-segments an existing trace, the tool the
//!   streaming/batch equivalence suites are built on.

use crate::event::RosEvent;
use crate::sched_event::SchedEvent;
use crate::time::Nanos;
use crate::trace::Trace;

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
pub fn split_by_events(trace: &Trace, events_per_segment: usize) -> Vec<Trace> {
    assert!(events_per_segment > 0, "segments must hold at least one event");
    let mut segments = Vec::new();
    let mut current = Trace::with_index(0);
    for event in trace.cursor() {
        if current.len() == events_per_segment {
            let index = current.index() + 1;
            segments.push(std::mem::replace(&mut current, Trace::with_index(index)));
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
    fn cursor_merges_chronologically_ros_first_on_ties() {
        let mut seg = Trace::new();
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
}
