//! Ground truth the simulator knows about the application.
//!
//! The paper validates its measurement by "comparing the measured with the
//! designed execution times" of the SYN callbacks. The simulator can go
//! further: it records the exact CPU time it issued for every callback
//! instance, so tests can assert that Algorithm 2 reconstructs it *exactly*
//! from `sched_switch` events, under arbitrary preemption.

use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
use std::collections::HashMap;

/// Static identity of one callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallbackInfo {
    /// Node the callback belongs to.
    pub node: String,
    /// Callback name from the [`crate::AppSpec`].
    pub name: String,
    /// Timer / subscriber / service / client.
    pub kind: CallbackKind,
}

/// One executed callback instance with the CPU time the simulator issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRecord {
    /// Executor thread.
    pub pid: Pid,
    /// The callback.
    pub callback: CallbackId,
    /// Instance start (the `execute_*` entry instant).
    pub start: Nanos,
    /// Instance end (the `execute_*` exit instant).
    pub end: Nanos,
    /// CPU time issued for the instance — the true execution time.
    pub issued: Nanos,
}

/// Registry of callback identities plus the per-instance issue log.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    registry: HashMap<CallbackId, CallbackInfo>,
    instances: Vec<InstanceRecord>,
}

impl GroundTruth {
    /// Creates an empty ground-truth store.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Registers a callback identity (done once at world build).
    pub fn register(&mut self, id: CallbackId, info: CallbackInfo) {
        self.registry.insert(id, info);
    }

    /// Records one completed instance.
    pub fn record(&mut self, record: InstanceRecord) {
        self.instances.push(record);
    }

    /// Identity of a callback, if registered.
    pub fn info(&self, id: CallbackId) -> Option<&CallbackInfo> {
        self.registry.get(&id)
    }

    /// Looks up a callback ID by its spec name.
    pub fn id_of(&self, name: &str) -> Option<CallbackId> {
        self.registry.iter().find(|(_, i)| i.name == name).map(|(id, _)| *id)
    }

    /// All recorded instances, in completion order.
    pub fn instances(&self) -> &[InstanceRecord] {
        &self.instances
    }

    /// Instances of one callback.
    pub fn instances_of(&self, id: CallbackId) -> impl Iterator<Item = &InstanceRecord> {
        self.instances.iter().filter(move |r| r.callback == id)
    }

    /// All registered callback IDs, sorted.
    pub fn callback_ids(&self) -> Vec<CallbackId> {
        let mut ids: Vec<CallbackId> = self.registry.keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let mut gt = GroundTruth::new();
        let id = CallbackId::new(1);
        gt.register(
            id,
            CallbackInfo { node: "n".into(), name: "T1".into(), kind: CallbackKind::Timer },
        );
        gt.record(InstanceRecord {
            pid: Pid::new(1),
            callback: id,
            start: Nanos::ZERO,
            end: Nanos::from_millis(2),
            issued: Nanos::from_millis(2),
        });
        assert_eq!(gt.info(id).expect("registered").name, "T1");
        assert_eq!(gt.id_of("T1"), Some(id));
        assert_eq!(gt.instances_of(id).count(), 1);
        assert_eq!(gt.callback_ids(), vec![id]);
    }
}
