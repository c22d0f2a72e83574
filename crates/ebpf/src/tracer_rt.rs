//! The ROS2-RT tracer (TR_RT): probes P2–P16.
//!
//! Observes every traced middleware function entry/exit while the
//! applications run and exports the runtime events of Table I. The
//! `rmw_take_*` probes reproduce the paper's by-reference source-timestamp
//! technique: the entry program stores the out-parameter's address in the
//! `inflight_take` BPF map; the exit program retrieves the address and
//! reads the (now written) value.

use crate::call::{AttachPoint, FunctionArgs, FunctionCall, SrcTsRef};
use crate::map::BpfMap;
use crate::overhead::OverheadModel;
use crate::perf::PerfBuffer;
use crate::program::{Helper, ProgramSpec};
use crate::verifier::{Verifier, VerifyError};
use rtms_trace::{CallbackKind, Pid, Probe, RosEvent, RosPayload};

/// Default perf-buffer capacity for runtime events (8 MiB, matching the
/// large ring BCC allocates for busy pipelines).
const RT_BUFFER_BYTES: usize = 8 << 20;

/// The runtime tracer.
///
/// # Example
///
/// ```
/// use rtms_ebpf::{FunctionArgs, FunctionCall, Ros2RtTracer};
/// use rtms_trace::{Nanos, Pid, Probe};
///
/// let mut tracer = Ros2RtTracer::new()?;
/// tracer.start();
/// tracer.on_function(&FunctionCall::entry(
///     Nanos::ZERO, Pid::new(7), FunctionArgs::ExecuteTimer,
/// ));
/// let events = tracer.drain_segment();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].probe(), Probe::P2);
/// # Ok::<(), Vec<rtms_ebpf::VerifyError>>(())
/// ```
#[derive(Debug)]
pub struct Ros2RtTracer {
    enabled: bool,
    /// `pid -> address of the srcTS out-parameter` for an in-flight
    /// `rmw_take_*` call (one per thread: executors are single-threaded).
    inflight_take: BpfMap<Pid, u64>,
    perf: PerfBuffer<RosEvent>,
    overhead: OverheadModel,
}

impl Ros2RtTracer {
    /// Creates the tracer, verifying all fifteen programs.
    ///
    /// # Errors
    ///
    /// Returns the verifier's findings if any program is rejected.
    pub fn new() -> Result<Self, Vec<VerifyError>> {
        // The program set is a compile-time constant, so its load-time
        // verification result is too: verify once per process instead of
        // rebuilding and re-walking all fifteen specs for every world.
        static VERIFIED: std::sync::OnceLock<Result<(), Vec<VerifyError>>> =
            std::sync::OnceLock::new();
        VERIFIED.get_or_init(|| Verifier::default().verify_all(&Self::programs())).clone()?;
        Ok(Ros2RtTracer {
            enabled: false,
            inflight_take: BpfMap::new("inflight_take", 4096),
            perf: PerfBuffer::new(RT_BUFFER_BYTES),
            overhead: OverheadModel::new(),
        })
    }

    /// The program set registered for P2–P16.
    pub fn programs() -> Vec<ProgramSpec> {
        use AttachPoint::{Entry, Exit};
        let out = [Helper::KtimeGetNs, Helper::GetCurrentPidTgid, Helper::PerfEventOutput];
        let read_out = [
            Helper::KtimeGetNs,
            Helper::GetCurrentPidTgid,
            Helper::ProbeReadUser,
            Helper::PerfEventOutput,
        ];
        let take_entry = [Helper::GetCurrentPidTgid, Helper::ProbeReadUser, Helper::MapUpdate];
        let take_exit = [
            Helper::KtimeGetNs,
            Helper::GetCurrentPidTgid,
            Helper::MapLookup,
            Helper::MapDelete,
            Helper::ProbeReadUser,
            Helper::PerfEventOutput,
        ];
        vec![
            ProgramSpec::new(Probe::P2, Entry, 90).with_helpers(out),
            ProgramSpec::new(Probe::P3, Entry, 140).with_helpers(read_out),
            ProgramSpec::new(Probe::P4, Exit, 90).with_helpers(out),
            ProgramSpec::new(Probe::P5, Entry, 90).with_helpers(out),
            ProgramSpec::new(Probe::P6, Entry, 160)
                .with_helpers(take_entry)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P6, Exit, 520)
                .with_helpers(take_exit)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P7, Entry, 70).with_helpers(out),
            ProgramSpec::new(Probe::P8, Exit, 90).with_helpers(out),
            ProgramSpec::new(Probe::P9, Entry, 90).with_helpers(out),
            ProgramSpec::new(Probe::P10, Entry, 160)
                .with_helpers(take_entry)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P10, Exit, 540)
                .with_helpers(take_exit)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P11, Exit, 90).with_helpers(out),
            ProgramSpec::new(Probe::P12, Entry, 90).with_helpers(out),
            ProgramSpec::new(Probe::P13, Entry, 160)
                .with_helpers(take_entry)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P13, Exit, 540)
                .with_helpers(take_exit)
                .with_maps(["inflight_take"]),
            ProgramSpec::new(Probe::P14, Exit, 120).with_helpers(read_out),
            ProgramSpec::new(Probe::P15, Exit, 90).with_helpers(out),
            ProgramSpec::new(Probe::P16, Entry, 420).with_helpers(read_out),
        ]
    }

    /// Starts exporting events.
    pub fn start(&mut self) {
        self.enabled = true;
    }

    /// Stops exporting events.
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Observes a probed middleware function call and exports the
    /// corresponding Table I event (if any).
    pub fn on_function(&mut self, call: &FunctionCall) {
        if !self.enabled {
            return;
        }
        use AttachPoint::{Entry, Exit};
        let (time, pid) = (call.time, call.pid);
        let payload = match (&call.args, call.point) {
            (FunctionArgs::ExecuteTimer, Entry) => {
                self.overhead.charge(Probe::P2, 3);
                Some(RosPayload::CallbackStart { kind: CallbackKind::Timer })
            }
            (FunctionArgs::ExecuteTimer, Exit) => {
                self.overhead.charge(Probe::P4, 3);
                Some(RosPayload::CallbackEnd { kind: CallbackKind::Timer })
            }
            (FunctionArgs::RclTimerCall { timer }, Entry) => {
                self.overhead.charge(Probe::P3, 4);
                Some(RosPayload::TimerCall { callback: *timer })
            }
            (FunctionArgs::ExecuteSubscription, Entry) => {
                self.overhead.charge(Probe::P5, 3);
                Some(RosPayload::CallbackStart { kind: CallbackKind::Subscriber })
            }
            (FunctionArgs::ExecuteSubscription, Exit) => {
                self.overhead.charge(Probe::P8, 3);
                Some(RosPayload::CallbackEnd { kind: CallbackKind::Subscriber })
            }
            (FunctionArgs::ExecuteService, Entry) => {
                self.overhead.charge(Probe::P9, 3);
                Some(RosPayload::CallbackStart { kind: CallbackKind::Service })
            }
            (FunctionArgs::ExecuteService, Exit) => {
                self.overhead.charge(Probe::P11, 3);
                Some(RosPayload::CallbackEnd { kind: CallbackKind::Service })
            }
            (FunctionArgs::ExecuteClient, Entry) => {
                self.overhead.charge(Probe::P12, 3);
                Some(RosPayload::CallbackStart { kind: CallbackKind::Client })
            }
            (FunctionArgs::ExecuteClient, Exit) => {
                self.overhead.charge(Probe::P15, 3);
                Some(RosPayload::CallbackEnd { kind: CallbackKind::Client })
            }
            (FunctionArgs::MessageFilterOp, Entry) => {
                self.overhead.charge(Probe::P7, 3);
                Some(RosPayload::SyncSubscribe)
            }
            (FunctionArgs::RmwTakeInt { src_ts, .. }, Entry) => {
                self.take_entry(Probe::P6, pid, src_ts);
                None
            }
            (FunctionArgs::RmwTakeInt { subscription, topic, src_ts }, Exit) => self
                .take_exit(Probe::P6, pid, src_ts)
                .map(|ts| RosPayload::TakeData {
                    callback: *subscription,
                    topic: topic.clone(),
                    src_ts: ts,
                }),
            (FunctionArgs::RmwTakeRequest { src_ts, .. }, Entry) => {
                self.take_entry(Probe::P10, pid, src_ts);
                None
            }
            (FunctionArgs::RmwTakeRequest { service, topic, src_ts }, Exit) => self
                .take_exit(Probe::P10, pid, src_ts)
                .map(|ts| RosPayload::TakeRequest {
                    callback: *service,
                    topic: topic.clone(),
                    src_ts: ts,
                }),
            (FunctionArgs::RmwTakeResponse { src_ts, .. }, Entry) => {
                self.take_entry(Probe::P13, pid, src_ts);
                None
            }
            (FunctionArgs::RmwTakeResponse { client, topic, src_ts }, Exit) => self
                .take_exit(Probe::P13, pid, src_ts)
                .map(|ts| RosPayload::TakeResponse {
                    callback: *client,
                    topic: topic.clone(),
                    src_ts: ts,
                }),
            (FunctionArgs::TakeTypeErasedResponse { ret }, Exit) => {
                self.overhead.charge(Probe::P14, 4);
                ret.map(|will_dispatch| RosPayload::ClientDispatch { will_dispatch })
            }
            (FunctionArgs::TakeTypeErasedResponse { .. }, Entry) => None,
            (FunctionArgs::DdsWriteImpl { topic, src_ts }, Entry) => {
                self.overhead.charge(Probe::P16, 4);
                Some(RosPayload::DdsWrite { topic: topic.clone(), src_ts: *src_ts })
            }
            (FunctionArgs::DdsWriteImpl { .. }, Exit) => None,
            (FunctionArgs::RmwCreateNode { .. }, _) => None, // P1 belongs to TR_IN
            // Probes attached at entry only: nothing fires at exit.
            (FunctionArgs::RclTimerCall { .. }, Exit)
            | (FunctionArgs::MessageFilterOp, Exit) => None,
        };
        if let Some(payload) = payload {
            self.perf.push(RosEvent::new(time, pid, payload));
        }
    }

    /// Entry half of the srcTS technique: remember the out-parameter
    /// address for this thread.
    fn take_entry(&mut self, probe: Probe, pid: Pid, src_ts: &SrcTsRef) {
        self.overhead.charge(probe, 3);
        debug_assert!(src_ts.value.is_none(), "srcTS has no value at entry");
        // The map is tracer-private, so `update_mut` takes the lock-free
        // exclusive path — this runs three times per delivered message.
        let _ = self.inflight_take.update_mut(pid, src_ts.addr);
    }

    /// Exit half: look up the stored address and read the pointee.
    fn take_exit(
        &mut self,
        probe: Probe,
        pid: Pid,
        src_ts: &SrcTsRef,
    ) -> Option<rtms_trace::SourceTimestamp> {
        self.overhead.charge(probe, 6);
        let stored = self.inflight_take.delete_mut(&pid)?;
        if stored != src_ts.addr {
            // The address we stored does not match this call frame: a
            // nested or unmatched take. Drop the sample rather than attach
            // a wrong timestamp.
            return None;
        }
        src_ts.value
    }

    /// Drains the buffered events (one trace segment).
    pub fn drain_segment(&mut self) -> Vec<RosEvent> {
        self.perf.drain()
    }

    /// Drains the buffered events directly onto the end of a trace
    /// segment, in one bulk move.
    pub fn drain_segment_into(&mut self, segment: &mut rtms_trace::Trace) {
        self.perf.drain_into(segment);
    }

    /// Perf-buffer statistics.
    pub fn perf(&self) -> &PerfBuffer<RosEvent> {
        &self.perf
    }

    /// Overhead accounting for P2–P16.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_trace::{CallbackId, Nanos, SourceTimestamp, Topic};

    fn tracer() -> Ros2RtTracer {
        let mut t = Ros2RtTracer::new().expect("programs verify");
        t.start();
        t
    }

    #[test]
    fn all_programs_pass_the_verifier() {
        assert!(Verifier::default().verify_all(&Ros2RtTracer::programs()).is_ok());
    }

    #[test]
    fn callback_start_end_events() {
        let mut t = tracer();
        let pid = Pid::new(5);
        t.on_function(&FunctionCall::entry(Nanos::from_nanos(1), pid, FunctionArgs::ExecuteTimer));
        t.on_function(&FunctionCall::exit(Nanos::from_nanos(9), pid, FunctionArgs::ExecuteTimer));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].probe(), Probe::P2);
        assert_eq!(ev[1].probe(), Probe::P4);
    }

    #[test]
    fn src_ts_readable_only_via_entry_exit_pairing() {
        let mut t = tracer();
        let pid = Pid::new(5);
        let topic = Topic::plain("/t");
        let cb = CallbackId::new(0xabc);
        t.on_function(&FunctionCall::entry(
            Nanos::from_nanos(1),
            pid,
            FunctionArgs::RmwTakeInt {
                subscription: cb,
                topic: topic.clone(),
                src_ts: SrcTsRef::pending(0x1000),
            },
        ));
        // Entry alone exports nothing: the value is not yet known.
        assert!(t.perf().is_empty());
        t.on_function(&FunctionCall::exit(
            Nanos::from_nanos(3),
            pid,
            FunctionArgs::RmwTakeInt {
                subscription: cb,
                topic: topic.clone(),
                src_ts: SrcTsRef::resolved(0x1000, SourceTimestamp::new(777)),
            },
        ));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 1);
        match &ev[0].payload {
            RosPayload::TakeData { callback, topic: tp, src_ts } => {
                assert_eq!(*callback, cb);
                assert_eq!(tp, &topic);
                assert_eq!(*src_ts, SourceTimestamp::new(777));
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn mismatched_take_address_drops_event() {
        let mut t = tracer();
        let pid = Pid::new(5);
        t.on_function(&FunctionCall::entry(
            Nanos::ZERO,
            pid,
            FunctionArgs::RmwTakeInt {
                subscription: CallbackId::new(1),
                topic: Topic::plain("/t"),
                src_ts: SrcTsRef::pending(0x1000),
            },
        ));
        t.on_function(&FunctionCall::exit(
            Nanos::ZERO,
            pid,
            FunctionArgs::RmwTakeInt {
                subscription: CallbackId::new(1),
                topic: Topic::plain("/t"),
                src_ts: SrcTsRef::resolved(0x2000, SourceTimestamp::new(1)),
            },
        ));
        assert!(t.drain_segment().is_empty());
    }

    #[test]
    fn client_dispatch_return_value() {
        let mut t = tracer();
        let pid = Pid::new(5);
        t.on_function(&FunctionCall::exit(
            Nanos::ZERO,
            pid,
            FunctionArgs::TakeTypeErasedResponse { ret: Some(false) },
        ));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0].payload, RosPayload::ClientDispatch { will_dispatch: false }));
    }

    #[test]
    fn dds_write_exported_at_entry() {
        let mut t = tracer();
        t.on_function(&FunctionCall::entry(
            Nanos::ZERO,
            Pid::new(5),
            FunctionArgs::DdsWriteImpl {
                topic: Topic::plain("/out"),
                src_ts: SourceTimestamp::new(9),
            },
        ));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].probe(), Probe::P16);
    }

    #[test]
    fn disabled_tracer_exports_nothing() {
        let mut t = Ros2RtTracer::new().expect("programs verify");
        t.on_function(&FunctionCall::entry(Nanos::ZERO, Pid::new(1), FunctionArgs::ExecuteTimer));
        assert!(t.drain_segment().is_empty());
        assert_eq!(t.overhead().total_firings(), 0);
    }

    #[test]
    fn sync_subscribe_event() {
        let mut t = tracer();
        t.on_function(&FunctionCall::entry(
            Nanos::ZERO,
            Pid::new(1),
            FunctionArgs::MessageFilterOp,
        ));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0].payload, RosPayload::SyncSubscribe));
    }

    #[test]
    fn independent_takes_per_thread() {
        // Two threads mid-take simultaneously must not clobber each other.
        let mut t = tracer();
        let mk_entry = |pid: u32, addr: u64| {
            FunctionCall::entry(
                Nanos::ZERO,
                Pid::new(pid),
                FunctionArgs::RmwTakeInt {
                    subscription: CallbackId::new(u64::from(pid)),
                    topic: Topic::plain("/t"),
                    src_ts: SrcTsRef::pending(addr),
                },
            )
        };
        let mk_exit = |pid: u32, addr: u64, ts: u64| {
            FunctionCall::exit(
                Nanos::ZERO,
                Pid::new(pid),
                FunctionArgs::RmwTakeInt {
                    subscription: CallbackId::new(u64::from(pid)),
                    topic: Topic::plain("/t"),
                    src_ts: SrcTsRef::resolved(addr, SourceTimestamp::new(ts)),
                },
            )
        };
        t.on_function(&mk_entry(1, 0x100));
        t.on_function(&mk_entry(2, 0x200));
        t.on_function(&mk_exit(2, 0x200, 22));
        t.on_function(&mk_exit(1, 0x100, 11));
        let ev = t.drain_segment();
        assert_eq!(ev.len(), 2);
        assert!(matches!(&ev[0].payload,
            RosPayload::TakeData { src_ts, .. } if src_ts.get() == 22));
        assert!(matches!(&ev[1].payload,
            RosPayload::TakeData { src_ts, .. } if src_ts.get() == 11));
    }
}
