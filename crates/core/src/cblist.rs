//! Callback records and the `CBlist` of Algorithm 1.

use crate::stats::ExecStats;
use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One callback entry of a node's `CBlist` — the architectural and timing
/// attributes Algorithm 1 extracts.
///
/// Topic names here are *decorated*: a service request topic carries the
/// caller callback's identity (`/sv3Request#cb:0x2a`) and a response topic
/// the client callback's, which is what splits a multi-caller service into
/// per-caller entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallbackRecord {
    /// The node (executor thread) the callback belongs to.
    pub pid: Pid,
    /// The callback's runtime identity.
    pub id: CallbackId,
    /// Timer / subscriber / service / client.
    pub kind: CallbackKind,
    /// Decorated subscribed topic, if any (timers have none). Shared with
    /// the originating [`rtms_trace::Topic`] when undecorated — extraction
    /// never copies a plain topic name.
    pub in_topic: Option<Arc<str>>,
    /// Decorated published topics, in first-seen order, deduplicated.
    /// Plain names are shared, not copied, like `in_topic`.
    pub out_topics: Vec<Arc<str>>,
    /// Whether the callback feeds a `message_filters` synchronizer (P7).
    pub is_sync_subscriber: bool,
    /// Measured execution-time statistics across instances.
    pub stats: ExecStats,
    /// Per-instance execution times, in observation order (kept for
    /// convergence studies; the mergeable summary lives in `stats`).
    pub exec_times: Vec<Nanos>,
    /// Instance start times, for period estimation of timers.
    pub start_times: Vec<Nanos>,
}

impl CallbackRecord {
    /// Whether `other` denotes the same callback entry under the matching
    /// rule of Sec. IV: the ID for all callbacks except services; for a
    /// service, both the ID and the (decorated) subscribed topic — so the
    /// same service invoked by different callers yields different entries.
    pub fn matches(&self, other: &CallbackRecord) -> bool {
        if self.pid != other.pid || self.kind != other.kind || self.id != other.id {
            return false;
        }
        match self.kind {
            CallbackKind::Service => self.in_topic == other.in_topic,
            _ => true,
        }
    }

    /// Estimated invocation period: the mean gap between consecutive start
    /// times (meaningful for timer callbacks, per Sec. IV). Out-of-order
    /// pairs are skipped; `None` if no gap is left.
    pub fn estimated_period(&self) -> Option<Nanos> {
        let (mut sum, mut count) = (0u64, 0u64);
        for gap in self.start_gaps() {
            sum += gap.as_nanos();
            count += 1;
        }
        (count > 0).then(|| Nanos::from_nanos(sum / count))
    }

    /// Gaps between consecutive start times. A pair whose later start
    /// precedes the earlier one (a late, out-of-order segment) is skipped
    /// rather than wrapped or clamped to a zero sample.
    pub(crate) fn start_gaps(&self) -> impl Iterator<Item = Nanos> + '_ {
        // Checking the order once up front lets the compiler drop the
        // per-pair test for in-order input, which every model build sees.
        let sorted = self.start_times.is_sorted();
        self.start_times.windows(2).filter(move |w| sorted || w[1] >= w[0]).map(|w| w[1] - w[0])
    }
}

/// A node's callback list: the output of Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CbList {
    entries: Vec<CallbackRecord>,
}

impl CbList {
    /// Creates an empty list.
    pub fn new() -> Self {
        CbList::default()
    }

    /// `CBlist.AddToCallback(CB)` of Algorithm 1 (line 31): folds a
    /// completed instance into the matching entry, or appends a new entry
    /// if none matches. Execution time and start time are recorded; newly
    /// seen published topics extend the entry's topic list.
    pub fn add_instance(&mut self, instance: CallbackRecord) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.matches(&instance)) {
            for t in &instance.out_topics {
                if !entry.out_topics.contains(t) {
                    entry.out_topics.push(t.clone());
                }
            }
            entry.is_sync_subscriber |= instance.is_sync_subscriber;
            for &et in &instance.exec_times {
                entry.stats.push(et);
                entry.exec_times.push(et);
            }
            entry.start_times.extend(instance.start_times.iter().copied());
        } else {
            self.entries.push(instance);
        }
    }

    /// Folds one completed instance into the list from its parts — the
    /// allocation-lean twin of [`CbList::add_instance`] for the streaming
    /// hot path. When the matching entry already exists (the overwhelming
    /// case in a long run), only the new sample is appended: no
    /// single-element vectors are materialized and the `outs` merge
    /// without cloning. `outs` is an iterator so the caller can drain a
    /// buffer it keeps; it is collected only for a new entry. Behaviour
    /// is identical to building a one-sample [`CallbackRecord`] and
    /// calling [`CbList::add_instance`].
    #[allow(clippy::too_many_arguments)] // the parts of one instance, hot path
    pub fn fold_instance(
        &mut self,
        pid: Pid,
        id: CallbackId,
        kind: CallbackKind,
        in_topic: Option<Arc<str>>,
        outs: impl IntoIterator<Item = Arc<str>>,
        sync: bool,
        exec: Nanos,
        start: Nanos,
    ) {
        let found = self.entries.iter_mut().find(|e| {
            e.pid == pid
                && e.kind == kind
                && e.id == id
                && (kind != CallbackKind::Service || e.in_topic == in_topic)
        });
        match found {
            Some(entry) => {
                for t in outs {
                    if !entry.out_topics.contains(&t) {
                        entry.out_topics.push(t);
                    }
                }
                entry.is_sync_subscriber |= sync;
                entry.stats.push(exec);
                entry.exec_times.push(exec);
                entry.start_times.push(start);
            }
            None => self.entries.push(CallbackRecord {
                pid,
                id,
                kind,
                in_topic,
                out_topics: outs.into_iter().collect(),
                is_sync_subscriber: sync,
                stats: ExecStats::from_samples([exec]),
                exec_times: vec![exec],
                start_times: vec![start],
            }),
        }
    }

    /// The callback entries, in first-seen order.
    pub fn entries(&self) -> &[CallbackRecord] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the entry for `id` (and, for services, the decorated input
    /// topic).
    pub fn find(&self, id: CallbackId, in_topic: Option<&str>) -> Option<&CallbackRecord> {
        self.entries
            .iter()
            .find(|e| e.id == id && (e.kind != CallbackKind::Service || e.in_topic.as_deref() == in_topic))
    }
}

impl FromIterator<CallbackRecord> for CbList {
    fn from_iter<T: IntoIterator<Item = CallbackRecord>>(iter: T) -> Self {
        let mut list = CbList::new();
        for r in iter {
            list.add_instance(r);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kind: CallbackKind, in_topic: Option<&str>, et_ms: u64) -> CallbackRecord {
        CallbackRecord {
            pid: Pid::new(1),
            id: CallbackId::new(id),
            kind,
            in_topic: in_topic.map(Arc::from),
            out_topics: vec![],
            is_sync_subscriber: false,
            stats: ExecStats::from_samples([Nanos::from_millis(et_ms)]),
            exec_times: vec![Nanos::from_millis(et_ms)],
            start_times: vec![Nanos::ZERO],
        }
    }

    #[test]
    fn instances_fold_into_one_entry() {
        let mut list = CbList::new();
        list.add_instance(rec(1, CallbackKind::Timer, None, 2));
        list.add_instance(rec(1, CallbackKind::Timer, None, 4));
        assert_eq!(list.len(), 1);
        let e = &list.entries()[0];
        assert_eq!(e.stats.count(), 2);
        assert_eq!(e.stats.mwcet(), Some(Nanos::from_millis(4)));
    }

    #[test]
    fn service_split_by_in_topic() {
        let mut list = CbList::new();
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x1"), 2));
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x2"), 3));
        list.add_instance(rec(9, CallbackKind::Service, Some("/svRequest#cb:0x1"), 5));
        assert_eq!(list.len(), 2, "one entry per caller");
        assert_eq!(list.find(CallbackId::new(9), Some("/svRequest#cb:0x1")).map(|e| e.stats.count()), Some(2));
    }

    #[test]
    fn non_service_ignores_in_topic_for_matching() {
        let mut list = CbList::new();
        let mut a = rec(5, CallbackKind::Subscriber, Some("/t"), 1);
        a.out_topics = vec!["/x".into()];
        let mut b = rec(5, CallbackKind::Subscriber, Some("/t"), 2);
        b.out_topics = vec!["/y".into()];
        list.add_instance(a);
        list.add_instance(b);
        assert_eq!(list.len(), 1);
        assert_eq!(list.entries()[0].out_topics, [Arc::from("/x"), Arc::from("/y")]);
    }

    #[test]
    fn period_estimation() {
        let mut r = rec(1, CallbackKind::Timer, None, 1);
        r.start_times = vec![
            Nanos::from_millis(0),
            Nanos::from_millis(100),
            Nanos::from_millis(201),
            Nanos::from_millis(299),
        ];
        let p = r.estimated_period().expect("period");
        assert!((p.as_millis_f64() - 99.67).abs() < 0.5, "period {p}");
        let single = rec(1, CallbackKind::Timer, None, 1);
        assert_eq!(single.estimated_period(), None);
    }

    #[test]
    fn sync_flag_is_sticky() {
        let mut list = CbList::new();
        let mut a = rec(5, CallbackKind::Subscriber, Some("/t"), 1);
        a.is_sync_subscriber = true;
        list.add_instance(a);
        list.add_instance(rec(5, CallbackKind::Subscriber, Some("/t"), 2));
        assert!(list.entries()[0].is_sync_subscriber);
    }

    #[test]
    fn fold_instance_equals_add_instance() {
        // The lean fold must produce byte-identical lists to the record
        // path, across entry creation, service splitting, out-topic
        // dedup, and the sticky sync flag.
        type Sample<'a> = (u64, CallbackKind, Option<&'a str>, &'a [&'a str], bool, u64);
        let samples: [Sample<'_>; 6] = [
            (1, CallbackKind::Timer, None, &["/a"], false, 2),
            (1, CallbackKind::Timer, None, &["/a", "/b"], false, 4),
            (9, CallbackKind::Service, Some("/svRequest#cb:0x1"), &[], false, 1),
            (9, CallbackKind::Service, Some("/svRequest#cb:0x2"), &[], false, 3),
            (5, CallbackKind::Subscriber, Some("/t"), &[], true, 7),
            (5, CallbackKind::Subscriber, Some("/t"), &[], false, 9),
        ];
        let mut via_records = CbList::new();
        let mut via_fold = CbList::new();
        for (id, kind, in_topic, outs, sync, ms) in samples {
            let mut r = rec(id, kind, in_topic, ms);
            r.out_topics = outs.iter().map(|s| Arc::from(*s)).collect();
            r.is_sync_subscriber = sync;
            via_records.add_instance(r);
            via_fold.fold_instance(
                Pid::new(1),
                CallbackId::new(id),
                kind,
                in_topic.map(Arc::from),
                outs.iter().map(|s| Arc::from(*s)),
                sync,
                Nanos::from_millis(ms),
                Nanos::ZERO,
            );
        }
        assert_eq!(via_records, via_fold);
    }

    #[test]
    fn from_iterator_collects() {
        let list: CbList =
            [rec(1, CallbackKind::Timer, None, 1), rec(2, CallbackKind::Timer, None, 2)]
                .into_iter()
                .collect();
        assert_eq!(list.len(), 2);
    }
}
