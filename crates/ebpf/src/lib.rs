//! eBPF-like tracing substrate.
//!
//! The paper attaches eBPF programs (written in restricted C, compiled with
//! LLVM/BCC, checked by the kernel verifier) to ROS2 middleware functions
//! via uprobes/uretprobes, and to the scheduler via a tracepoint. The
//! programs communicate through BPF maps and export events through a perf
//! buffer. This crate reproduces those *mechanics* over the simulated stack:
//!
//! - [`program::ProgramSpec`] describes a probe program (attachment target,
//!   estimated instruction count, helpers used, maps accessed) and
//!   [`verifier::Verifier`] statically validates it, modeling the kernel's
//!   load-time checks.
//! - [`map::BpfMap`] is a bounded hash map with the update/lookup/delete
//!   API; [`map::PidFilterMap`] is the shared map through which the
//!   ROS2-INIT tracer publishes traced PIDs to the kernel tracer
//!   (Sec. III-B).
//! - [`perf::PerfBuffer`] is a bounded ring with drop accounting, standing
//!   in for the per-CPU perf event array.
//! - [`overhead::OverheadModel`] accounts the CPU cost of every probe
//!   firing, so the Sec. VI overhead experiment ("0.008 CPU cores, 0.3 % of
//!   application load") can be regenerated.
//! - The three tracers of Fig. 1 are [`Ros2InitTracer`] (P1),
//!   [`Ros2RtTracer`] (P2–P16) and [`KernelTracer`] (`sched_switch`,
//!   optionally `sched_wakeup`).
//!
//! The middleware simulator (`rtms-ros2`) drives the tracers by reporting
//! every traced function entry/exit as a [`call::FunctionCall`]; argument
//! values that a uretprobe can only observe at function exit (the
//! by-reference source timestamp of `rmw_take_*`) are only present in the
//! exit call, and the RT tracer reconstructs them with the
//! store-the-address-in-a-map technique the paper describes.

#![warn(missing_docs)]

pub mod call;
pub mod map;
pub mod overhead;
pub mod perf;
pub mod program;
pub mod tracer_init;
pub mod tracer_kernel;
pub mod tracer_rt;
pub mod verifier;

pub use call::{AttachPoint, FunctionArgs, FunctionCall, SrcTsRef};
pub use map::{BpfMap, MapError, PidFilterMap};
pub use overhead::{OverheadModel, OverheadReport};
pub use perf::{PerfBuffer, PerfRecord};
pub use program::{Helper, ProgramSpec};
pub use tracer_init::Ros2InitTracer;
pub use tracer_kernel::KernelTracer;
pub use tracer_rt::Ros2RtTracer;
pub use verifier::{Verifier, VerifyError};
