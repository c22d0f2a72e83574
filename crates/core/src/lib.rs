//! Timing model synthesis — the paper's primary contribution.
//!
//! Turns the traces collected by the eBPF tracers into an annotated
//! directed acyclic graph (DAG) timing model of the application:
//!
//! 1. [`alg1::extract_callbacks`] (Algorithm 1) walks one node's ROS2
//!    events chronologically and reconstructs its callbacks — type, ID,
//!    subscribed topic, published topics, synchronization membership — with
//!    the per-caller/per-client topic decorations that make multi-client
//!    services analyzable.
//! 2. [`alg2::execution_time`] (Algorithm 2) combines a callback instance's
//!    start/end window with the `sched_switch` stream to measure its *CPU*
//!    execution time, excluding preemption and blocking.
//! 3. [`dag::Dag`] assembles per-node callback lists into the application
//!    DAG: one vertex per callback entry (a service invoked by n callers
//!    yields n vertices), OR junctions where several publishers feed one
//!    subscriber, and zero-execution-time `&` (AND) junction vertices for
//!    `message_filters` data synchronization.
//! 4. [`merge`] unions DAGs from many runs (deployment options of Fig. 2)
//!    and [`multimode::MultiModeDag`] keeps per-scenario models.
//!
//! The entry point for whole traces is [`synthesis::synthesize`]; streamed
//! runs feed a [`session::SynthesisSession`] segment by segment and read
//! the model at any point, in memory bounded by the segment size.

#![warn(missing_docs)]

pub mod alg1;
pub mod alg2;
pub mod cblist;
pub mod dag;
pub mod merge;
pub mod multimode;
pub mod session;
pub mod stats;
pub mod synthesis;

pub use alg1::extract_callbacks;
pub use alg2::execution_time;
pub use cblist::{CallbackRecord, CbList};
pub use dag::{Dag, DagEdge, DagVertex, ModelDiff, Topology, TopologyEdge, VertexId, VertexKind};
pub use merge::{merge_dag_refs, merge_dags, ConvergenceSeries};
pub use multimode::MultiModeDag;
pub use session::SynthesisSession;
pub use stats::{ExecStats, StartGaps};
pub use synthesis::{
    node_name_map, node_name_map_shared, synthesize, synthesize_per_node, synthesize_with_names,
};
