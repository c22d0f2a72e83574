//! Online model monitoring over streamed synthesis snapshots.
//!
//! The streaming pipeline (`rtms_trace` segments → `rtms_core::SynthesisSession`)
//! can emit a timing model at every segment boundary; this crate is the
//! subsystem that *consumes* those models online, turning the paper's
//! post-hoc synthesis into runtime verification of a deployed stack:
//!
//! 1. Capture a [`Baseline`] from a model synthesized while the
//!    application is known healthy: a per-callback
//!    mBCET/mACET/mWCET envelope, timer-period statistics, and a
//!    structural topology fingerprint.
//! 2. Feed each subsequent per-window model snapshot to a [`Monitor`].
//! 3. The monitor emits a severity-ranked [`Alert`] stream: execution-time
//!    drift beyond the envelope ± tolerance ([`AlertKind::ExecDrift`]),
//!    timer-period drift ([`AlertKind::PeriodDrift`]), structural change
//!    against the baseline topology ([`AlertKind::TopologyChange`],
//!    carrying an [`rtms_core::ModelDiff`]), and per-node processor-load
//!    spikes ([`AlertKind::LoadSpike`], measured through
//!    [`rtms_analysis::LoadAccumulator`]).
//!
//! All detection thresholds are spread-aware (they widen with the
//! baseline's own observed variation), so a healthy application stays
//! silent: the `monitoring` experiment and the property suite pin *zero*
//! alerts across ≥100 generated fault-free applications.
//!
//! Everything is serializable through the vendored serde, so baselines can
//! be persisted and alert streams shipped as JSON.
//!
//! For *fleets* of monitored applications, [`store::BaselineStore`] owns
//! the per-tenant baseline/monitor pairs (with byte and episode
//! watermarks), and [`rollup::RollupBuilder`] deduplicates the combined
//! alert stream across tenants into a ranked [`rollup::AlertRollup`] —
//! both consumed by the `rtms-fleet` ingestion service.
//!
//! # Example
//!
//! ```
//! use rtms_core::SynthesisSession;
//! use rtms_monitor::{Baseline, Monitor};
//! use rtms_ros2::WorldBuilder;
//! use rtms_trace::Nanos;
//! use rtms_workloads::syn_app;
//!
//! let mut world = WorldBuilder::new(2).seed(1).app(syn_app(1.0)).build()?;
//! // Healthy phase: capture the baseline from the first second.
//! let mut session = SynthesisSession::new();
//! session.feed_segment(&world.trace_run(Nanos::from_secs(1)));
//! let baseline = Baseline::from_dag(&session.model());
//! let mut monitor = Monitor::new(baseline);
//!
//! // Watch phase: feed per-window snapshots (here: one more window).
//! let mut window = SynthesisSession::with_names(session.names().clone());
//! window.feed_segment(&world.trace_run(Nanos::from_secs(1)));
//! let alerts = monitor.observe(&window.model(), Nanos::from_secs(1));
//! assert!(alerts.is_empty(), "a healthy run raises no alerts");
//! # Ok::<(), rtms_ros2::WorldError>(())
//! ```

#![warn(missing_docs)]

pub mod alert;
pub mod baseline;
pub mod monitor;
pub mod rollup;
pub mod store;

pub use alert::{Alert, AlertKind, Severity};
pub use baseline::{Baseline, CallbackEnvelope};
pub use monitor::{Monitor, MonitorConfig};
pub use rollup::{AlertRollup, RollupBuilder, RollupEntry};
pub use store::BaselineStore;
