//! Application descriptions: nodes, callbacks, and their wiring.
//!
//! An [`AppSpec`] is the static description of a ROS2 application — what a
//! developer writes against `rclcpp`. The builder validates the wiring
//! (topic references, service/client pairing, synchronizer membership)
//! before the world assembles executors from it.

use crate::work::WorkModel;
use rtms_sched::Affinity;
use rtms_trace::{Nanos, Priority};
use std::fmt;

/// Handle to a node inside an [`AppBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// An output action a callback performs before it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputAction {
    /// Publish a message on a plain topic.
    Publish(String),
    /// Send a request through the named client of the same node (the
    /// client's callback will handle the response).
    CallService {
        /// Name of a client callback declared in the same node.
        client: String,
    },
}

/// One callback of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum CallbackSpec {
    /// A periodic timer callback.
    Timer {
        /// Callback name (unique within the app).
        name: String,
        /// Invocation period.
        period: Nanos,
        /// Execution-time model.
        work: WorkModel,
        /// Actions performed at the end of each instance.
        outputs: Vec<OutputAction>,
    },
    /// A subscriber callback.
    Subscriber {
        /// Callback name.
        name: String,
        /// Subscribed topic.
        topic: String,
        /// Execution-time model.
        work: WorkModel,
        /// Actions performed at the end of each instance.
        outputs: Vec<OutputAction>,
    },
    /// A service callback (server side). The response publication is
    /// automatic; `outputs` lists any additional actions.
    Service {
        /// Callback name.
        name: String,
        /// Service name, e.g. `/sv1`.
        service: String,
        /// Execution-time model.
        work: WorkModel,
        /// Extra actions besides the response.
        outputs: Vec<OutputAction>,
    },
    /// A client callback (response handler).
    Client {
        /// Callback name.
        name: String,
        /// Service name this client calls.
        service: String,
        /// Execution-time model of the response handler.
        work: WorkModel,
        /// Actions performed at the end of each dispatched instance.
        outputs: Vec<OutputAction>,
    },
}

impl CallbackSpec {
    /// The callback's name.
    pub fn name(&self) -> &str {
        match self {
            CallbackSpec::Timer { name, .. }
            | CallbackSpec::Subscriber { name, .. }
            | CallbackSpec::Service { name, .. }
            | CallbackSpec::Client { name, .. } => name,
        }
    }

    /// The callback's output actions.
    pub fn outputs(&self) -> &[OutputAction] {
        match self {
            CallbackSpec::Timer { outputs, .. }
            | CallbackSpec::Subscriber { outputs, .. }
            | CallbackSpec::Service { outputs, .. }
            | CallbackSpec::Client { outputs, .. } => outputs,
        }
    }
}

/// A `message_filters` synchronizer: fires when fresh data has arrived on
/// every member subscriber; the last-arriving member publishes `outputs`
/// within its own callback instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncGroupSpec {
    /// Synchronizer name.
    pub name: String,
    /// Names of member subscriber callbacks (same node).
    pub members: Vec<String>,
    /// Topics published when the synchronizer fires.
    pub outputs: Vec<String>,
}

/// Dispatch policy of a callback group (rclcpp's two kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// At most one member instance runs at a time, even on a
    /// multi-threaded executor (the rclcpp default).
    MutuallyExclusive,
    /// Member instances may run concurrently on different worker threads.
    Reentrant,
}

/// A callback group within a node: the unit of concurrency control a
/// multi-threaded executor respects. Callbacks not assigned to any group
/// belong to the node's implicit mutually-exclusive default group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallbackGroupSpec {
    /// Group name.
    pub name: String,
    /// Dispatch policy.
    pub kind: GroupKind,
    /// Names of member callbacks (same node, each in at most one group).
    pub members: Vec<String>,
}

/// One ROS2 node: a set of callbacks dispatched by an executor with one
/// or more worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name (unique within the app).
    pub name: String,
    /// Scheduling priority of the executor thread(s).
    pub priority: Priority,
    /// CPU affinity of the executor thread(s).
    pub affinity: Affinity,
    /// Worker threads of the node's executor (1 = the classic
    /// single-threaded executor).
    pub workers: usize,
    /// The node's callbacks, in registration order (the executor polls
    /// them in this order).
    pub callbacks: Vec<CallbackSpec>,
    /// Data synchronizers within this node.
    pub sync_groups: Vec<SyncGroupSpec>,
    /// Callback groups constraining multi-threaded dispatch.
    pub groups: Vec<CallbackGroupSpec>,
}

/// A validated application description.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
}

/// Errors detected while validating an application description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// Two callbacks (or nodes) share a name.
    DuplicateName(String),
    /// A `CallService` action references a client that does not exist in
    /// the same node.
    UnknownClient {
        /// The callback performing the action.
        callback: String,
        /// The missing client name.
        client: String,
    },
    /// A synchronizer member is not a subscriber callback of the node.
    BadSyncMember {
        /// The synchronizer.
        group: String,
        /// The offending member name.
        member: String,
    },
    /// A client calls a service no node serves.
    UnservedService {
        /// The client callback.
        client: String,
        /// The service name.
        service: String,
    },
    /// A callback group member is not a callback of the node.
    BadGroupMember {
        /// The callback group.
        group: String,
        /// The offending member name.
        member: String,
    },
    /// A callback is assigned to more than one callback group.
    DuplicateGroupMember(String),
    /// A node's executor was given zero worker threads.
    BadWorkerCount {
        /// The node.
        node: String,
    },
    /// The app has no nodes.
    Empty,
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            AppError::UnknownClient { callback, client } => {
                write!(f, "callback {callback:?} calls unknown client {client:?}")
            }
            AppError::BadSyncMember { group, member } => {
                write!(f, "sync group {group:?} member {member:?} is not a subscriber of the node")
            }
            AppError::UnservedService { client, service } => {
                write!(f, "client {client:?} calls service {service:?} which no node serves")
            }
            AppError::BadGroupMember { group, member } => {
                write!(f, "callback group {group:?} member {member:?} is not a callback of the node")
            }
            AppError::DuplicateGroupMember(m) => {
                write!(f, "callback {m:?} is assigned to more than one callback group")
            }
            AppError::BadWorkerCount { node } => {
                write!(f, "node {node:?} has an executor with zero workers")
            }
            AppError::Empty => write!(f, "application has no nodes"),
        }
    }
}

impl std::error::Error for AppError {}

/// Handle returned by callback-adding methods, for attaching outputs.
pub struct CallbackHandle<'a> {
    spec: &'a mut CallbackSpec,
}

impl CallbackHandle<'_> {
    /// Adds a topic publication to the callback's outputs.
    pub fn publishes(self, topic: impl Into<String>) -> Self {
        let topic = topic.into();
        match self.spec {
            CallbackSpec::Timer { outputs, .. }
            | CallbackSpec::Subscriber { outputs, .. }
            | CallbackSpec::Service { outputs, .. }
            | CallbackSpec::Client { outputs, .. } => {
                outputs.push(OutputAction::Publish(topic));
            }
        }
        self
    }

    /// Adds a service call (through the named client of the same node) to
    /// the callback's outputs.
    pub fn calls(self, client: impl Into<String>) -> Self {
        let client = client.into();
        match self.spec {
            CallbackSpec::Timer { outputs, .. }
            | CallbackSpec::Subscriber { outputs, .. }
            | CallbackSpec::Service { outputs, .. }
            | CallbackSpec::Client { outputs, .. } => {
                outputs.push(OutputAction::CallService { client });
            }
        }
        self
    }
}

/// Builder for [`AppSpec`].
///
/// # Example
///
/// ```
/// use rtms_ros2::{AppBuilder, WorkModel};
/// use rtms_trace::Nanos;
///
/// let mut app = AppBuilder::new("syn");
/// let n1 = app.node("n1");
/// app.timer(n1, "T1", Nanos::from_millis(100), WorkModel::constant_millis(1.0))
///     .publishes("/t1");
/// let n2 = app.node("n2");
/// app.subscriber(n2, "SC1", "/t1", WorkModel::constant_millis(2.0))
///     .calls("CL1");
/// app.client(n2, "CL1", "/sv1", WorkModel::constant_millis(0.5));
/// let n3 = app.node("n3");
/// app.service(n3, "SV1", "/sv1", WorkModel::constant_millis(3.0));
/// let spec = app.build()?;
/// assert_eq!(spec.nodes.len(), 3);
/// # Ok::<(), rtms_ros2::AppError>(())
/// ```
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    nodes: Vec<NodeSpec>,
}

impl AppBuilder {
    /// Starts an application description.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder { name: name.into(), nodes: Vec::new() }
    }

    /// Adds a node with default priority, full affinity, and a
    /// single-threaded executor.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(NodeSpec {
            name: name.into(),
            priority: Priority::NORMAL,
            affinity: Affinity::all(),
            workers: 1,
            callbacks: Vec::new(),
            sync_groups: Vec::new(),
            groups: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Sets the executor thread affinity of a node.
    pub fn set_affinity(&mut self, node: NodeId, affinity: Affinity) {
        self.nodes[node.0].affinity = affinity;
    }

    /// Gives the node a multi-threaded executor with `workers` threads.
    /// Concurrency is still constrained by callback groups: callbacks not
    /// assigned to a [`GroupKind::Reentrant`] group keep serializing with
    /// the other members of their (possibly implicit) mutually-exclusive
    /// group.
    pub fn multi_threaded(&mut self, node: NodeId, workers: usize) {
        self.nodes[node.0].workers = workers;
    }

    /// Declares a callback group over callbacks of `node` (see
    /// [`GroupKind`]). Each callback may belong to at most one group;
    /// unassigned callbacks share the node's implicit mutually-exclusive
    /// default group.
    pub fn callback_group<M>(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        kind: GroupKind,
        members: impl IntoIterator<Item = M>,
    ) where
        M: Into<String>,
    {
        self.nodes[node.0].groups.push(CallbackGroupSpec {
            name: name.into(),
            kind,
            members: members.into_iter().map(Into::into).collect(),
        });
    }

    /// Adds a timer callback.
    pub fn timer(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        period: Nanos,
        work: WorkModel,
    ) -> CallbackHandle<'_> {
        assert!(period > Nanos::ZERO, "timer period must be positive");
        self.push(
            node,
            CallbackSpec::Timer { name: name.into(), period, work, outputs: Vec::new() },
        )
    }

    /// Adds a subscriber callback.
    pub fn subscriber(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        topic: impl Into<String>,
        work: WorkModel,
    ) -> CallbackHandle<'_> {
        self.push(
            node,
            CallbackSpec::Subscriber {
                name: name.into(),
                topic: topic.into(),
                work,
                outputs: Vec::new(),
            },
        )
    }

    /// Adds a service callback (server side).
    pub fn service(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        service: impl Into<String>,
        work: WorkModel,
    ) -> CallbackHandle<'_> {
        self.push(
            node,
            CallbackSpec::Service {
                name: name.into(),
                service: service.into(),
                work,
                outputs: Vec::new(),
            },
        )
    }

    /// Adds a client callback (response handler).
    pub fn client(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        service: impl Into<String>,
        work: WorkModel,
    ) -> CallbackHandle<'_> {
        self.push(
            node,
            CallbackSpec::Client {
                name: name.into(),
                service: service.into(),
                work,
                outputs: Vec::new(),
            },
        )
    }

    /// Declares a `message_filters` synchronizer over subscriber callbacks
    /// of `node`.
    pub fn sync_group<M, O>(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        members: impl IntoIterator<Item = M>,
        outputs: impl IntoIterator<Item = O>,
    ) where
        M: Into<String>,
        O: Into<String>,
    {
        self.nodes[node.0].sync_groups.push(SyncGroupSpec {
            name: name.into(),
            members: members.into_iter().map(Into::into).collect(),
            outputs: outputs.into_iter().map(Into::into).collect(),
        });
    }

    fn push(&mut self, node: NodeId, spec: CallbackSpec) -> CallbackHandle<'_> {
        let callbacks = &mut self.nodes[node.0].callbacks;
        callbacks.push(spec);
        CallbackHandle { spec: callbacks.last_mut().expect("just pushed") }
    }

    /// Validates and finalizes the description.
    ///
    /// # Errors
    ///
    /// Returns the first [`AppError`] found: duplicate names, dangling
    /// client references, invalid synchronizer members, or unserved
    /// services.
    pub fn build(self) -> Result<AppSpec, AppError> {
        if self.nodes.is_empty() {
            return Err(AppError::Empty);
        }
        let mut names = std::collections::HashSet::new();
        for n in &self.nodes {
            if !names.insert(n.name.clone()) {
                return Err(AppError::DuplicateName(n.name.clone()));
            }
        }
        let mut cb_names = std::collections::HashSet::new();
        for n in &self.nodes {
            for cb in &n.callbacks {
                if !cb_names.insert(cb.name().to_string()) {
                    return Err(AppError::DuplicateName(cb.name().to_string()));
                }
            }
        }
        // Services offered anywhere in the app.
        let served: std::collections::HashSet<&str> = self
            .nodes
            .iter()
            .flat_map(|n| n.callbacks.iter())
            .filter_map(|cb| match cb {
                CallbackSpec::Service { service, .. } => Some(service.as_str()),
                _ => None,
            })
            .collect();
        for n in &self.nodes {
            let clients: std::collections::HashMap<&str, &str> = n
                .callbacks
                .iter()
                .filter_map(|cb| match cb {
                    CallbackSpec::Client { name, service, .. } => {
                        Some((name.as_str(), service.as_str()))
                    }
                    _ => None,
                })
                .collect();
            for cb in &n.callbacks {
                for out in cb.outputs() {
                    if let OutputAction::CallService { client } = out {
                        match clients.get(client.as_str()) {
                            None => {
                                return Err(AppError::UnknownClient {
                                    callback: cb.name().to_string(),
                                    client: client.clone(),
                                })
                            }
                            Some(service) if !served.contains(service) => {
                                return Err(AppError::UnservedService {
                                    client: client.clone(),
                                    service: (*service).to_string(),
                                })
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
            for g in &n.sync_groups {
                for m in &g.members {
                    let is_sub = n.callbacks.iter().any(|cb| {
                        matches!(cb, CallbackSpec::Subscriber { name, .. } if name == m)
                    });
                    if !is_sub {
                        return Err(AppError::BadSyncMember {
                            group: g.name.clone(),
                            member: m.clone(),
                        });
                    }
                }
            }
            if n.workers == 0 {
                return Err(AppError::BadWorkerCount { node: n.name.clone() });
            }
            let mut grouped = std::collections::HashSet::new();
            for g in &n.groups {
                for m in &g.members {
                    if !n.callbacks.iter().any(|cb| cb.name() == m) {
                        return Err(AppError::BadGroupMember {
                            group: g.name.clone(),
                            member: m.clone(),
                        });
                    }
                    if !grouped.insert(m.clone()) {
                        return Err(AppError::DuplicateGroupMember(m.clone()));
                    }
                }
            }
        }
        Ok(AppSpec { name: self.name, nodes: self.nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> WorkModel {
        WorkModel::constant_millis(1.0)
    }

    #[test]
    fn valid_app_builds() {
        let mut app = AppBuilder::new("a");
        let n1 = app.node("n1");
        app.timer(n1, "T1", Nanos::from_millis(10), w()).publishes("/t1");
        let n2 = app.node("n2");
        app.subscriber(n2, "SC1", "/t1", w());
        let spec = app.build().expect("valid");
        assert_eq!(spec.nodes[0].callbacks.len(), 1);
        assert_eq!(spec.nodes[0].callbacks[0].outputs().len(), 1);
    }

    #[test]
    fn duplicate_node_name_rejected() {
        let mut app = AppBuilder::new("a");
        app.node("n");
        app.node("n");
        assert_eq!(app.build().unwrap_err(), AppError::DuplicateName("n".into()));
    }

    #[test]
    fn duplicate_callback_name_rejected() {
        let mut app = AppBuilder::new("a");
        let n1 = app.node("n1");
        app.timer(n1, "X", Nanos::from_millis(10), w());
        let n2 = app.node("n2");
        app.subscriber(n2, "X", "/t", w());
        assert_eq!(app.build().unwrap_err(), AppError::DuplicateName("X".into()));
    }

    #[test]
    fn unknown_client_rejected() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.timer(n, "T", Nanos::from_millis(10), w()).calls("nope");
        assert!(matches!(app.build().unwrap_err(), AppError::UnknownClient { .. }));
    }

    #[test]
    fn client_must_be_in_same_node() {
        let mut app = AppBuilder::new("a");
        let n1 = app.node("n1");
        app.timer(n1, "T", Nanos::from_millis(10), w()).calls("CL");
        let n2 = app.node("n2");
        app.client(n2, "CL", "/s", w());
        let n3 = app.node("n3");
        app.service(n3, "SV", "/s", w());
        assert!(matches!(app.build().unwrap_err(), AppError::UnknownClient { .. }));
    }

    #[test]
    fn unserved_service_rejected() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.timer(n, "T", Nanos::from_millis(10), w()).calls("CL");
        app.client(n, "CL", "/ghost", w());
        assert!(matches!(app.build().unwrap_err(), AppError::UnservedService { .. }));
    }

    #[test]
    fn sync_member_must_be_subscriber() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.timer(n, "T", Nanos::from_millis(10), w());
        app.sync_group(n, "MS", ["T"], ["/out"]);
        assert!(matches!(app.build().unwrap_err(), AppError::BadSyncMember { .. }));
    }

    #[test]
    fn empty_app_rejected() {
        assert_eq!(AppBuilder::new("a").build().unwrap_err(), AppError::Empty);
    }

    #[test]
    fn valid_sync_group() {
        let mut app = AppBuilder::new("a");
        let n = app.node("fusion");
        app.subscriber(n, "S1", "/a", w());
        app.subscriber(n, "S2", "/b", w());
        app.sync_group(n, "MS", ["S1", "S2"], ["/fused"]);
        let spec = app.build().expect("valid");
        assert_eq!(spec.nodes[0].sync_groups.len(), 1);
    }

    #[test]
    fn error_display() {
        let e = AppError::UnknownClient { callback: "T".into(), client: "C".into() };
        assert!(e.to_string().contains("unknown client"));
        let e = AppError::BadGroupMember { group: "G".into(), member: "M".into() };
        assert!(e.to_string().contains("\"M\""));
        assert!(AppError::DuplicateGroupMember("X".into()).to_string().contains("\"X\""));
        assert!(AppError::BadWorkerCount { node: "n".into() }.to_string().contains("zero"));
    }

    #[test]
    fn valid_callback_groups() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.multi_threaded(n, 3);
        app.timer(n, "T1", Nanos::from_millis(10), w()).publishes("/t");
        app.timer(n, "T2", Nanos::from_millis(15), w());
        app.subscriber(n, "S1", "/t", w());
        app.callback_group(n, "re", GroupKind::Reentrant, ["T1", "T2"]);
        app.callback_group(n, "me", GroupKind::MutuallyExclusive, ["S1"]);
        let spec = app.build().expect("valid");
        assert_eq!(spec.nodes[0].workers, 3);
        assert_eq!(spec.nodes[0].groups.len(), 2);
    }

    #[test]
    fn group_member_must_exist() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.timer(n, "T", Nanos::from_millis(10), w());
        app.callback_group(n, "G", GroupKind::Reentrant, ["ghost"]);
        assert!(matches!(app.build().unwrap_err(), AppError::BadGroupMember { .. }));
    }

    #[test]
    fn group_membership_is_exclusive() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.timer(n, "T", Nanos::from_millis(10), w());
        app.callback_group(n, "G1", GroupKind::Reentrant, ["T"]);
        app.callback_group(n, "G2", GroupKind::MutuallyExclusive, ["T"]);
        assert_eq!(app.build().unwrap_err(), AppError::DuplicateGroupMember("T".into()));
    }

    #[test]
    fn zero_workers_rejected() {
        let mut app = AppBuilder::new("a");
        let n = app.node("n");
        app.multi_threaded(n, 0);
        app.timer(n, "T", Nanos::from_millis(10), w());
        assert_eq!(app.build().unwrap_err(), AppError::BadWorkerCount { node: "n".into() });
    }
}
