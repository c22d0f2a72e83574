//! The shard worker: per-tenant synthesis + monitoring state behind one
//! MPSC ingress receiver.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::config::SegmentPlan;
use crate::report::TenantAlert;
use crate::tenant::TenantDirectory;
use rtms_core::{merge_dag_refs, Dag, SynthesisSession};
use rtms_monitor::{Baseline, BaselineStore, MonitorConfig};
use rtms_trace::Trace;
use rtms_util::mpsc::{LaneReceiver, LaneSender};

/// One trace segment in flight from a producer to the owning shard.
#[derive(Debug)]
pub(crate) struct Ingest {
    /// Tenant the segment belongs to.
    pub tenant: usize,
    /// Producer handoff instant (start of the ingest-to-model latency
    /// measurement).
    pub sent: Instant,
    /// The segment itself, sorted by time (the collector sorts before
    /// handoff).
    pub seg: Trace,
}

/// Everything one shard hands back when its ingress drains.
#[derive(Debug)]
pub(crate) struct ShardOutcome {
    /// Shard-local merge of every finished tenant's full-run model.
    pub model: Dag,
    /// Alerts raised by this shard's tenants (unsorted; the service sorts
    /// the fleet-wide stream into total order).
    pub alerts: Vec<TenantAlert>,
    /// Per-segment ingest-to-model latencies in microseconds (unsorted).
    pub latencies_us: Vec<u64>,
    /// Trace events ingested.
    pub events: u64,
    /// Trace segments ingested.
    pub segments: u64,
    /// Max [`SynthesisSession::peak_watermark`] over this shard's tenants.
    pub peak_session_watermark: usize,
    /// Peak bytes of resident baselines in this shard's store.
    pub peak_baseline_bytes: usize,
    /// Peak retained monitor episodes in this shard's store.
    pub peak_retained_episodes: usize,
}

/// Live synthesis state of one tenant mid-run. The monitor side lives in
/// the shard's [`BaselineStore`] instead, keyed by tenant id.
struct TenantRuntime {
    /// Cumulative session over the tenant's whole run; its model at the
    /// baseline boundary becomes the tenant's [`Baseline`], its flushed
    /// final model joins the shard merge.
    session: SynthesisSession,
}

/// Runs one shard worker to completion: receives [`Ingest`]s until every
/// producer lane is closed and drained, maintaining per-tenant state:
///
/// * every segment feeds the tenant's cumulative [`SynthesisSession`];
/// * the model at the baseline boundary is installed into the shard's
///   [`BaselineStore`];
/// * each later segment is additionally synthesized into a per-window
///   snapshot (a fresh session sharing the tenant's learned name map) and
///   judged by the tenant's monitor;
/// * the final flushed model is merged into the shard-local fleet model
///   as soon as the tenant finishes, so shard memory holds per-tenant
///   *sessions* only for tenants still streaming.
///
/// Tenant completion order depends on producer interleaving; the merge is
/// still deterministic at the fleet level because
/// [`Dag::canonicalize`] makes the serialized model a pure function of
/// the merged multiset (the service canonicalizes after the cross-shard
/// merge).
///
/// Drained segment slabs are recycled to their producer through
/// `free_tx` (best effort: a full or disconnected free lane just drops
/// the slab).
pub(crate) fn run_shard(
    dir: &TenantDirectory,
    plan: SegmentPlan,
    monitor: &MonitorConfig,
    mut rx: LaneReceiver<Ingest>,
    mut free_tx: Vec<LaneSender<Trace>>,
) -> ShardOutcome {
    let mut runtimes: BTreeMap<usize, TenantRuntime> = BTreeMap::new();
    let mut store = BaselineStore::new(monitor.clone());
    let mut outcome = ShardOutcome {
        model: Dag::default(),
        alerts: Vec::new(),
        latencies_us: Vec::new(),
        events: 0,
        segments: 0,
        peak_session_watermark: 0,
        peak_baseline_bytes: 0,
        peak_retained_episodes: 0,
    };
    while let Some(ingest) = rx.recv() {
        let Ingest { tenant, sent, mut seg } = ingest;
        let idx = seg.index();
        outcome.events += seg.len() as u64;
        outcome.segments += 1;
        let rt = runtimes
            .entry(tenant)
            .or_insert_with(|| TenantRuntime { session: SynthesisSession::new() });
        rt.session.feed_segment(&seg);
        if idx + 1 == plan.baseline_segments {
            store.install(tenant as u64, Baseline::from_dag(&rt.session.model()));
        } else if idx >= plan.baseline_segments {
            let mut window = SynthesisSession::with_names(rt.session.names().clone());
            window.feed_segment(&seg);
            let snapshot = window.model();
            for alert in store.observe(tenant as u64, &snapshot, plan.segment) {
                outcome.alerts.push(TenantAlert { tenant: tenant as u64, segment: idx as u64, alert });
            }
        }
        outcome.latencies_us.push(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        if idx + 1 == plan.total_segments {
            let rt = runtimes.remove(&tenant).expect("runtime exists for final segment");
            outcome.peak_session_watermark =
                outcome.peak_session_watermark.max(rt.session.peak_watermark());
            let model = rt.session.model();
            outcome.model = merge_dag_refs([&outcome.model, &model]);
        }
        // Recycle the slab to its producer; if that lane is full (the
        // producer is far ahead) or gone (the producer finished), the
        // slab just drops.
        seg.clear_for_reuse(0);
        let _ = free_tx[dir.producer_of(tenant)].try_send(seg);
    }
    debug_assert!(runtimes.is_empty(), "ingress drained with tenants mid-run");
    outcome.peak_baseline_bytes = store.peak_baseline_bytes();
    outcome.peak_retained_episodes = store.peak_retained_episodes();
    outcome
}
