//! Trace event model for ROS2 timing model synthesis.
//!
//! This crate defines the vocabulary shared by the whole workspace: the
//! sixteen middleware probes of Table I of the paper ([`Probe`]), the events
//! those probes emit ([`RosEvent`]), the scheduler events emitted by the
//! kernel tracer ([`SchedEvent`]), the containers that hold them
//! ([`Trace`], [`TraceSegment`]), and the binary segment store that is the
//! paper's Fig. 2 trace database ([`SegmentWriter`] records it once,
//! [`SegmentReader`] replays it in file order).
//!
//! Events are plain data: everything downstream (the synthesis algorithms in
//! `rtms-core`, the analyses in `rtms-analysis`) consumes only these types,
//! mirroring how the paper's pipeline consumes only what the eBPF probes
//! export through the perf buffer.
//!
//! # Example
//!
//! ```
//! use rtms_trace::{Nanos, Pid, RosEvent, RosPayload, CallbackKind, Trace};
//!
//! let mut trace = Trace::new();
//! trace.push_ros(RosEvent::new(
//!     Nanos::from_micros(10),
//!     Pid::new(42),
//!     RosPayload::CallbackStart { kind: CallbackKind::Timer },
//! ));
//! assert_eq!(trace.ros_events().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod ids;
pub mod probe;
pub mod sched_event;
pub mod sink;
pub mod store;
pub mod time;
pub mod topic;
pub mod trace;

pub use codec::{crc32, crc32_update, CodecError, TopicInterner};
pub use event::{CallbackKind, RosEvent, RosPayload};
pub use ids::{CallbackId, Cpu, Pid, Priority};
pub use probe::{Probe, ProbeAttachment, ProbeSpec, PROBE_CATALOG};
pub use sched_event::{SchedEvent, SchedEventKind, ThreadState};
pub use sink::{split_by_events, EventSink, SegmentCursor, SegmentEvent, TraceSegment};
pub use store::{
    SegmentFileStats, SegmentReader, SegmentWriter, SEGMENT_FILE_MAGIC, SEGMENT_FILE_VERSION,
    SEGMENT_TRAILER_MAGIC,
};
pub use time::Nanos;
pub use topic::{SourceTimestamp, Topic, TopicKind};
pub use trace::Trace;
