//! Algorithm 2 — execution-time measurement from `sched_switch` events.

use rtms_trace::{Nanos, Pid, SchedEvent, SchedEventKind};

/// Computes the CPU execution time of one callback instance
/// (`GetExecTime` of the paper).
///
/// `start` and `end` are the instance window from the ROS2 events
/// (P2/P5/P9/P12 and P4/P8/P11/P15); `pid` identifies the executor thread
/// `T`; `sched_events` is the (chronologically sorted) scheduler event
/// stream. The algorithm sums the execution segments of `T` inside the
/// window: the first segment starts at `start` (when the start event is
/// generated, `T` is running), a `sched_switch` with `prev == T` closes a
/// segment, one with `next == T` opens the next, and the final segment
/// closes at `end`.
///
/// `sched_wakeup` events (present when the kernel tracer runs with the
/// Sec. VII extension) are ignored: a wakeup does not put the thread on a
/// CPU.
///
/// Out-of-order input (a switch-out stamped before the switch-in that
/// opened its segment, or `end` before `start`) never wraps the clock: a
/// backwards stretch contributes zero, as in the online session.
///
/// # Example
///
/// ```
/// use rtms_core::execution_time;
/// use rtms_trace::{Cpu, Nanos, Pid, Priority, SchedEvent, ThreadState};
///
/// let t = Pid::new(7);
/// let other = Pid::new(8);
/// let ev = |ms, prev: Pid, next: Pid| SchedEvent::switch(
///     Nanos::from_millis(ms), Cpu::new(0),
///     prev, Priority::NORMAL, ThreadState::Runnable,
///     next, Priority::NORMAL,
/// );
/// // Runs [10,12), preempted [12,15), runs [15,18).
/// let sched = vec![ev(12, t, other), ev(15, other, t), ev(30, t, other)];
/// let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(18), t, &sched);
/// assert_eq!(et, Nanos::from_millis(5));
/// ```
pub fn execution_time(start: Nanos, end: Nanos, pid: Pid, sched_events: &[SchedEvent]) -> Nanos {
    let mut exec_time = Nanos::ZERO;
    let mut last_start = start;
    let mut running = true; // T is running when the CB start event fires
    for event in sched_events {
        if event.time > end {
            break;
        }
        if event.time <= start {
            continue;
        }
        // start < event.time <= end; boundary events at exactly `end` are
        // excluded by the strict window of the paper (line 4).
        if event.time == end {
            continue;
        }
        match &event.kind {
            SchedEventKind::Switch { prev_pid, next_pid, .. } => {
                if *prev_pid == pid {
                    if running {
                        exec_time += event.time.saturating_sub(last_start);
                        running = false;
                    }
                } else if *next_pid == pid {
                    last_start = event.time;
                    running = true;
                }
            }
            SchedEventKind::Wakeup { .. } => {}
        }
    }
    if running {
        exec_time += end.saturating_sub(last_start);
    }
    exec_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_trace::{Cpu, Priority, ThreadState};

    const T: Pid = Pid::new(7);
    const OTHER: Pid = Pid::new(8);

    fn sw(ms: u64, prev: Pid, next: Pid) -> SchedEvent {
        SchedEvent::switch(
            Nanos::from_millis(ms),
            Cpu::new(0),
            prev,
            Priority::NORMAL,
            ThreadState::Runnable,
            next,
            Priority::NORMAL,
        )
    }

    #[test]
    fn uninterrupted_instance() {
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(15), T, &[]);
        assert_eq!(et, Nanos::from_millis(5));
    }

    #[test]
    fn single_preemption() {
        let sched = vec![sw(12, T, OTHER), sw(14, OTHER, T)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(8));
    }

    #[test]
    fn multiple_preemptions() {
        let sched = vec![
            sw(11, T, OTHER),
            sw(12, OTHER, T),
            sw(13, T, OTHER),
            sw(16, OTHER, T),
            sw(100, T, OTHER),
        ];
        // Segments: [10,11) + [12,13) + [16,18) = 4 ms.
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(18), T, &sched);
        assert_eq!(et, Nanos::from_millis(4));
    }

    #[test]
    fn events_outside_window_ignored() {
        let sched = vec![sw(5, T, OTHER), sw(8, OTHER, T), sw(25, T, OTHER)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(10));
    }

    #[test]
    fn unrelated_threads_ignored() {
        let third = Pid::new(9);
        let sched = vec![sw(12, OTHER, third), sw(14, third, OTHER)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(10));
    }

    #[test]
    fn preempted_at_trace_end_without_final_event() {
        // Thread descheduled at 12, never rescheduled before `end` and no
        // event after `end` exists: only [10,12) counts.
        let sched = vec![sw(12, T, OTHER)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(2));
    }

    #[test]
    fn boundary_events_excluded() {
        // Switches exactly at start/end are outside the strict window.
        let sched = vec![sw(10, OTHER, T), sw(20, T, OTHER)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(10));
    }

    #[test]
    fn wakeups_do_not_affect_measurement() {
        let mut sched = vec![sw(12, T, OTHER)];
        sched.push(SchedEvent::wakeup(Nanos::from_millis(13), Cpu::new(0), T, Priority::NORMAL));
        sched.push(sw(14, OTHER, T));
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::from_millis(8));
    }

    #[test]
    fn zero_length_window() {
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(10), T, &[]);
        assert_eq!(et, Nanos::ZERO);
    }

    #[test]
    fn out_of_order_switches_contribute_zero() {
        // Unsorted: the switch-out at 12 ms follows the switch-in at 15 ms,
        // so its segment would run backwards.
        let sched = vec![sw(15, OTHER, T), sw(12, T, OTHER)];
        let et = execution_time(Nanos::from_millis(10), Nanos::from_millis(20), T, &sched);
        assert_eq!(et, Nanos::ZERO);
    }

    #[test]
    fn end_before_start_contributes_zero() {
        let et = execution_time(Nanos::from_millis(20), Nanos::from_millis(10), T, &[]);
        assert_eq!(et, Nanos::ZERO);
    }
}
