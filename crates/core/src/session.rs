//! Incremental model synthesis over streamed trace segments.
//!
//! The batch pipeline materializes a whole run as one [`Trace`] and then
//! synthesizes — which caps run length at available memory. A
//! [`SynthesisSession`] instead consumes the run as a sequence of bounded
//! segments ([`rtms_trace::TraceSegment`]) and keeps only *derived* state
//! between segments:
//!
//! - per node, the open callback instance (Algorithm 1's walker state,
//!   including an online Algorithm 2 execution-time clock) and the
//!   callback list folded so far;
//! - the unmatched service interaction tables — request writes awaiting
//!   their `take_request` (`FindCaller`) and response writes awaiting the
//!   client-side dispatch decision (`FindClient`) — which shrink again as
//!   interactions complete.
//!
//! [`SynthesisSession::model`] can be called at any point and returns
//! exactly what batch [`crate::synthesize`] would return for the events
//! fed so far; the batch entry points are thin wrappers that feed one
//! segment. Equivalence holds for *causally ordered* streams (a sample's
//! `dds_write` precedes its `take_*` events, as any real trace satisfies)
//! segmented at arbitrary points — pinned down to the byte by the
//! streaming-equivalence suite, including one-event segments.

use crate::alg1::cat_id;
use crate::cblist::{CallbackRecord, CbList};
use crate::dag::Dag;
use crate::stats::ExecStats;
use rtms_trace::{
    CallbackId, CallbackKind, Nanos, Pid, RosEvent, RosPayload, SchedEvent, SchedEventKind,
    SegmentCursor, SegmentEvent, SourceTimestamp, Topic, Trace, TraceSegment,
};
use rtms_util::FxHashMap;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Online Algorithm 2: accumulates the CPU execution time of one open
/// callback instance as `sched_switch` events stream past.
///
/// Matches the batch [`crate::execution_time`] semantics exactly: events at
/// `time <= start` are ignored, events at `time == end` are excluded. The
/// end is unknown while streaming, so the clock snapshots its state before
/// the first event at the newest timestamp; if the instance then ends at
/// exactly that timestamp, the snapshot rolls those events back.
///
/// Stretches are measured with saturating subtraction: a switch-out or an
/// end stamped earlier than the switch-in it closes (an out-of-order event
/// in a later segment, or in a replayed file) contributes zero instead of
/// wrapping.
#[derive(Debug, Clone)]
struct ExecClock {
    start: Nanos,
    exec: Nanos,
    last_start: Nanos,
    running: bool,
    max_time: Nanos,
    snapshot: Option<(Nanos, Nanos, bool)>,
}

impl ExecClock {
    fn new(start: Nanos) -> ExecClock {
        ExecClock {
            start,
            exec: Nanos::ZERO,
            last_start: start,
            running: true, // T is running when the CB start event fires
            max_time: start,
            snapshot: None,
        }
    }

    fn on_switch(&mut self, time: Nanos, prev: Pid, next: Pid, pid: Pid) {
        if time <= self.start {
            return;
        }
        if time > self.max_time {
            self.snapshot = Some((self.exec, self.last_start, self.running));
            self.max_time = time;
        }
        if prev == pid {
            if self.running {
                self.exec += time.saturating_sub(self.last_start);
                self.running = false;
            }
        } else if next == pid {
            self.last_start = time;
            self.running = true;
        }
    }

    fn finalize(&self, end: Nanos) -> Nanos {
        let (mut exec, last_start, running) = match self.snapshot {
            // Events at exactly `end` are outside the strict window
            // (Algorithm 2, line 4): roll them back.
            Some(snapshot) if self.max_time == end => snapshot,
            _ => (self.exec, self.last_start, self.running),
        };
        if running {
            exec += end.saturating_sub(last_start);
        }
        exec
    }
}

/// One published topic of an instance: already decorated, or awaiting the
/// client-side dispatch decision of a service response (`FindClient`).
#[derive(Debug, Clone)]
enum OutSlot {
    Ready(Arc<str>),
    AwaitClient { topic: Topic, src_ts: SourceTimestamp },
}

impl OutSlot {
    /// The decorated name of a slot known to be resolved.
    fn into_ready(self) -> Arc<str> {
        match self {
            OutSlot::Ready(s) => s,
            OutSlot::AwaitClient { .. } => unreachable!("folded with unresolved == 0"),
        }
    }
}

/// A callback instance currently being assembled (between its start and
/// end events, which may lie in different segments).
#[derive(Debug)]
struct OpenInstance {
    seq: u64,
    kind: CallbackKind,
    start: Nanos,
    id: Option<CallbackId>,
    in_topic: Option<Arc<str>>,
    outs: Vec<OutSlot>,
    unresolved: usize,
    sync: bool,
    clock: ExecClock,
}

impl OpenInstance {
    /// Opens an instance whose published topics go into `outs`, an empty
    /// buffer handed over by the node (see [`PidState::spare_outs`]).
    fn new(seq: u64, kind: CallbackKind, start: Nanos, outs: Vec<OutSlot>) -> OpenInstance {
        OpenInstance {
            seq,
            kind,
            start,
            id: None,
            in_topic: None,
            outs,
            unresolved: 0,
            sync: false,
            clock: ExecClock::new(start),
        }
    }
}

/// A completed instance whose response decorations are not all known yet.
/// It folds into the callback list as soon as it is fully resolved — but
/// never before an earlier instance of the same node, so entries keep the
/// first-seen order batch extraction produces.
#[derive(Debug)]
struct PendingInstance {
    seq: u64,
    id: CallbackId,
    kind: CallbackKind,
    in_topic: Option<Arc<str>>,
    outs: Vec<OutSlot>,
    unresolved: usize,
    sync: bool,
    start: Nanos,
    exec: Nanos,
}

/// Per-node (per-PID) walker state.
#[derive(Debug, Default)]
struct PidState {
    wip: Option<OpenInstance>,
    /// The last `timer_call`/`take_*` identity event since the last
    /// callback start — what `FindCaller`'s backward scan would find.
    last_identity: Option<CallbackId>,
    /// Response observations of this node awaiting its next
    /// `take_type_erased_response` dispatch decision.
    awaiting_dispatch: Vec<AwaitingDispatch>,
    pending: VecDeque<PendingInstance>,
    list: CbList,
    /// An empty `outs` buffer for the node's next instance: taken at
    /// callback start and returned once the instance is folded or dropped,
    /// so a steady-state instance allocates nothing.
    spare_outs: Vec<OutSlot>,
}

impl PidState {
    /// Returns an instance's `outs` buffer to the node, keeping the larger
    /// of it and the current spare.
    fn recycle(&mut self, mut outs: Vec<OutSlot>) {
        outs.clear();
        if outs.capacity() > self.spare_outs.capacity() {
            self.spare_outs = outs;
        }
    }
}

/// A `take_response` observation waiting for its node's dispatch
/// decision. `opening` names the opening of the response key it was
/// recorded against: a key can be committed and then re-opened by a later
/// write with the same `(srcTS, topic)`, and a decision must never land
/// in an opening it did not observe.
#[derive(Debug)]
struct AwaitingDispatch {
    src_ts: SourceTimestamp,
    topic: Topic,
    opening: u64,
    obs: usize,
}

/// Widest `pid - base` span [`NodeTable`]'s dense vector will grow to
/// cover before spilling to the fallback map.
const DENSE_PID_WINDOW: usize = 1 << 16;

/// Dense PID-indexed storage for [`PidState`].
///
/// Every event consults the state of its PID, making this the hottest
/// map in the walker. Simulated PIDs are allocated sequentially from a
/// common base (one executor thread per node), so states live in a
/// vector directly indexed by `pid - base` — an add and a bounds check
/// per event instead of a hash probe. PIDs far outside that window
/// (possible in hand-built traces) spill to a hash map with identical
/// semantics.
#[derive(Debug, Default)]
struct NodeTable {
    /// The first PID inserted; dense slots cover `base..base + len`.
    base: u32,
    dense: Vec<Option<PidState>>,
    /// States for PIDs outside the dense window.
    spill: FxHashMap<Pid, PidState>,
}

impl NodeTable {
    #[inline]
    fn slot(&self, pid: Pid) -> usize {
        pid.get().wrapping_sub(self.base) as usize
    }

    #[inline]
    fn get(&self, pid: Pid) -> Option<&PidState> {
        match self.dense.get(self.slot(pid)) {
            Some(state) => state.as_ref(),
            None if self.spill.is_empty() => None,
            None => self.spill.get(&pid),
        }
    }

    #[inline]
    fn get_mut(&mut self, pid: Pid) -> Option<&mut PidState> {
        let slot = self.slot(pid);
        match self.dense.get_mut(slot) {
            Some(state) => state.as_mut(),
            None if self.spill.is_empty() => None,
            None => self.spill.get_mut(&pid),
        }
    }

    /// The state for `pid`, created default if absent.
    #[inline]
    fn entry(&mut self, pid: Pid) -> &mut PidState {
        if self.dense.is_empty() && self.spill.is_empty() {
            self.base = pid.get();
        }
        let slot = self.slot(pid);
        if slot < DENSE_PID_WINDOW {
            if slot >= self.dense.len() {
                self.dense.resize_with(slot + 1, || None);
            }
            self.dense[slot].get_or_insert_with(PidState::default)
        } else {
            self.spill.entry(pid).or_default()
        }
    }

    /// All `(pid, state)` pairs, in unspecified order.
    fn iter(&self) -> impl Iterator<Item = (Pid, &PidState)> {
        let base = self.base;
        self.dense
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((Pid::new(base.wrapping_add(i as u32)), s.as_ref()?)))
            .chain(self.spill.iter().map(|(pid, s)| (*pid, s)))
    }
}

/// A service-request `dds_write` not yet matched by its `take_request`,
/// with the caller identity resolved at write time.
#[derive(Debug)]
struct WriteEntry {
    topic: Topic,
    caller: Option<CallbackId>,
}

/// One `take_response` observation: the reading client callback and the
/// dispatch decision of the next P14 event in its node (if seen).
#[derive(Debug)]
struct RespObs {
    callback: CallbackId,
    dispatch: Option<bool>,
}

/// An instance output slot waiting for a response key to resolve.
#[derive(Debug)]
struct Waiter {
    pid: Pid,
    seq: u64,
    slot: usize,
}

/// The response observations and waiting writers of one
/// `(topic, srcTS)` service-response key.
#[derive(Debug)]
struct RespState {
    topic: Topic,
    /// Session-unique stamp of this opening of the key.
    opening: u64,
    obs: Vec<RespObs>,
    waiters: Vec<Waiter>,
}

/// Incremental synthesis over streamed trace segments.
///
/// Feed segments (or whole traces) in chronological order with
/// [`SynthesisSession::feed_segment`] / [`SynthesisSession::feed_trace`];
/// call [`SynthesisSession::model`] at any point for the timing model of
/// everything fed so far. The session is an [`rtms_trace::EventSink`], so a
/// running world can drain tracer buffers straight into it.
///
/// # Example
///
/// ```
/// use rtms_core::{synthesize, SynthesisSession};
/// use rtms_trace::{split_by_events, CallbackId, CallbackKind, Nanos, Pid, RosEvent, RosPayload, Trace};
///
/// let pid = Pid::new(5);
/// let mut trace = Trace::new();
/// for (ms, payload) in [
///     (0, RosPayload::CallbackStart { kind: CallbackKind::Timer }),
///     (0, RosPayload::TimerCall { callback: CallbackId::new(1) }),
///     (3, RosPayload::CallbackEnd { kind: CallbackKind::Timer }),
/// ] {
///     trace.push_ros(RosEvent::new(Nanos::from_millis(ms), pid, payload));
/// }
///
/// let mut session = SynthesisSession::new();
/// for segment in split_by_events(&trace, 1) {
///     session.feed_segment(&segment);
/// }
/// assert_eq!(session.model(), synthesize(&trace));
/// ```
#[derive(Debug)]
pub struct SynthesisSession {
    names: Arc<HashMap<Pid, String>>,
    /// Per-node walker state, direct-indexed by PID: consulted for every
    /// event of both streams; read paths that need PID order sort on read.
    nodes: NodeTable,
    writes: FxHashMap<SourceTimestamp, Vec<WriteEntry>>,
    responses: FxHashMap<SourceTimestamp, Vec<RespState>>,
    /// Events pushed through the `EventSink` interface, pending a
    /// [`SynthesisSession::flush`].
    buffer: TraceSegment,
    next_seq: u64,
    /// Stamp for the next response key opened (see [`AwaitingDispatch`]).
    next_opening: u64,
    segments_fed: usize,
    events_fed: u64,
    peak_segment_events: usize,
    peak_watermark: usize,
}

impl Default for SynthesisSession {
    fn default() -> Self {
        SynthesisSession::new()
    }
}

impl SynthesisSession {
    /// Creates an empty session. Node names are learned from the P1
    /// (`NodeInit`) events in the stream.
    pub fn new() -> SynthesisSession {
        SynthesisSession::with_names(Arc::new(HashMap::new()))
    }

    /// Creates a session seeded with a shared PID → node-name map — the map
    /// extracted from the INIT segment of an earlier session or run. The
    /// `Arc` is stored as-is, so any number of sessions can share one map
    /// without re-cloning it; the map is only copied (once, copy-on-write)
    /// if the stream contains a P1 event with a *new* name.
    pub fn with_names(names: Arc<HashMap<Pid, String>>) -> SynthesisSession {
        SynthesisSession {
            names,
            nodes: NodeTable::default(),
            writes: FxHashMap::default(),
            responses: FxHashMap::default(),
            buffer: TraceSegment::new(),
            next_seq: 0,
            next_opening: 0,
            segments_fed: 0,
            events_fed: 0,
            peak_segment_events: 0,
            peak_watermark: 0,
        }
    }

    /// Consumes everything pushed through the [`rtms_trace::EventSink`]
    /// interface since the last flush, as one segment. Events pushed via
    /// the sink are buffered (a drain delivers the ROS2 and scheduler
    /// streams back to back, not merged), so call this once per drained
    /// segment — e.g. after `Ros2World::trace_into(&mut session, ..)`.
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let segment = std::mem::take(&mut self.buffer);
        self.feed_segment(&segment);
    }

    /// The PID → node-name map accumulated so far (seed map plus streamed
    /// P1 events). Clone the `Arc` to share it with later sessions.
    pub fn names(&self) -> &Arc<HashMap<Pid, String>> {
        &self.names
    }

    /// Consumes one trace segment. Events are walked chronologically
    /// (both streams merged by timestamp); the segment can be dropped
    /// afterwards — the session retains only derived state.
    pub fn feed_segment(&mut self, segment: &TraceSegment) {
        if segment.is_sorted_by_time() {
            self.feed_sorted_slices(segment.ros_events(), segment.sched_events(), segment.len());
        } else {
            self.feed_cursor(segment.cursor(), segment.len());
        }
    }

    /// Consumes a whole trace as one segment.
    pub fn feed_trace(&mut self, trace: &Trace) {
        if trace.is_sorted_by_time() {
            self.feed_trace_sorted(trace)
        } else {
            self.feed_cursor(trace.cursor(), trace.len());
        }
    }

    /// Direct two-pointer walk for a trace whose streams are already
    /// chronologically sorted (see `feed_sorted_slices`).
    fn feed_trace_sorted(&mut self, trace: &Trace) {
        self.feed_sorted_slices(trace.ros_events(), trace.sched_events(), trace.len());
    }

    /// Replays a recorded segment file into the session: reads every
    /// remaining segment from `reader` (in file order — the run order they
    /// were recorded in) and feeds each one. Returns the number of
    /// segments consumed.
    ///
    /// Decode is *fused* into the synthesis walk: segment frames store
    /// their records in exactly the merged chronological order the walker
    /// consumes, so each event goes codec → state machine with no
    /// intermediate segment buffer, no re-sort, and no cursor merge. The
    /// reader lends each record from its reusable decode slots, and the
    /// walker borrows it exactly as `feed_segment` does. Replay memory is
    /// one frame buffer plus the slots, and the per-event cost is decode
    /// plus the same `on_ros`/`on_sched` work the live path does. Feeding
    /// a reader positioned at the start of a file recorded by
    /// `Ros2World::record_segments` yields a model byte-identical to the
    /// live run's (pinned by the record-replay equivalence suite).
    ///
    /// # Errors
    ///
    /// Returns the first decode error; segments already fed stay fed.
    pub fn feed_reader<R: std::io::Read>(
        &mut self,
        reader: &mut rtms_trace::SegmentReader<R>,
    ) -> Result<usize, rtms_trace::CodecError> {
        let mut segments = 0;
        loop {
            let result = reader.next_segment_events(|event| self.on_event(event))?;
            match result {
                Some((_, len)) => {
                    // The event count is only known once the frame is
                    // walked; begin/end bookkeeping adjusts counters, so
                    // running both afterwards is equivalent.
                    self.begin_feed(len);
                    self.end_feed(len);
                    segments += 1;
                }
                None => return Ok(segments),
            }
        }
    }

    fn begin_feed(&mut self, len: usize) {
        self.segments_fed += 1;
        self.events_fed += len as u64;
        self.peak_segment_events = self.peak_segment_events.max(len);
    }

    fn end_feed(&mut self, len: usize) {
        let watermark = len + self.retained_entries();
        self.peak_watermark = self.peak_watermark.max(watermark);
    }

    /// The hot-path twin of `feed_cursor` for pre-sorted streams: a direct
    /// two-pointer merge over the event slices, with no index tables and
    /// no per-segment allocation. Ordering is identical to
    /// [`SegmentCursor`]'s contract — each stream in (already-)stable time
    /// order, the ROS2 event first on a cross-stream timestamp tie — so
    /// the derived model is byte-identical whichever path runs. Segments
    /// produced by `Ros2World::trace_segments` arrive sorted (the segment
    /// contract), so in steady state this path is the one that runs.
    fn feed_sorted_slices(&mut self, ros: &[RosEvent], sched: &[SchedEvent], len: usize) {
        self.begin_feed(len);
        let (mut ri, mut si) = (0, 0);
        while ri < ros.len() && si < sched.len() {
            if ros[ri].time <= sched[si].time {
                self.on_ros(&ros[ri]);
                ri += 1;
            } else {
                self.on_sched(&sched[si]);
                si += 1;
            }
        }
        for e in &ros[ri..] {
            self.on_ros(e);
        }
        for e in &sched[si..] {
            self.on_sched(e);
        }
        self.end_feed(len);
    }

    fn feed_cursor(&mut self, cursor: SegmentCursor<'_>, len: usize) {
        self.begin_feed(len);
        for event in cursor {
            self.on_event(event);
        }
        self.end_feed(len);
    }

    #[inline]
    fn on_event(&mut self, event: SegmentEvent<'_>) {
        match event {
            SegmentEvent::Ros(e) => self.on_ros(e),
            SegmentEvent::Sched(e) => self.on_sched(e),
        }
    }

    fn on_ros(&mut self, e: &RosEvent) {
        let pid = e.pid;
        match &e.payload {
            RosPayload::NodeInit { node_name } => {
                if self.names.get(&pid) != Some(node_name) {
                    Arc::make_mut(&mut self.names).insert(pid, node_name.clone());
                }
            }
            RosPayload::CallbackStart { kind } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let st = self.nodes.entry(pid);
                st.last_identity = None;
                let mut outs = match st.wip.as_mut() {
                    // Started again before it ended: reuse its buffer.
                    Some(w) => std::mem::take(&mut w.outs),
                    None => std::mem::take(&mut st.spare_outs),
                };
                outs.clear();
                st.wip = Some(OpenInstance::new(seq, *kind, e.time, outs));
            }
            RosPayload::TimerCall { callback } => {
                let st = self.nodes.entry(pid);
                st.last_identity = Some(*callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(*callback);
                }
            }
            RosPayload::TakeData { callback, topic, .. } => {
                let st = self.nodes.entry(pid);
                st.last_identity = Some(*callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(*callback);
                    // Shared, not copied: the name allocation travels from
                    // the tracer event into the record unchanged.
                    w.in_topic = Some(topic.name_arc().clone());
                }
            }
            RosPayload::TakeRequest { callback, topic, src_ts } => {
                // `FindCaller`, online: the matching request write (if
                // traced) streamed past earlier and recorded its caller;
                // the unique server consumes the entry.
                let in_wip =
                    self.nodes.get(pid).is_some_and(|s| s.wip.is_some());
                let caller = if in_wip { self.consume_write(topic, *src_ts) } else { None };
                let st = self.nodes.entry(pid);
                st.last_identity = Some(*callback);
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(*callback);
                    w.in_topic = Some(cat_id(topic, caller));
                }
            }
            RosPayload::TakeResponse { callback, topic, src_ts } => {
                // Record the observation under its response key (the key
                // exists iff the traced response write is waiting on it)
                // and queue it for this node's next dispatch decision.
                let mut observed = None;
                if let Some(states) = self.responses.get_mut(src_ts) {
                    if let Some(rs) = states.iter_mut().find(|r| &r.topic == topic) {
                        rs.obs.push(RespObs { callback: *callback, dispatch: None });
                        observed = Some((rs.opening, rs.obs.len() - 1));
                    }
                }
                let st = self.nodes.entry(pid);
                st.last_identity = Some(*callback);
                if let Some((opening, obs)) = observed {
                    st.awaiting_dispatch.push(AwaitingDispatch {
                        src_ts: *src_ts,
                        topic: topic.clone(),
                        opening,
                        obs,
                    });
                }
                if let Some(w) = st.wip.as_mut() {
                    w.id = Some(*callback);
                    w.in_topic = Some(cat_id(topic, Some(*callback)));
                }
            }
            RosPayload::DdsWrite { topic, src_ts } => self.on_write(pid, topic, *src_ts),
            RosPayload::ClientDispatch { will_dispatch } => {
                let mut awaiting = {
                    let st = self.nodes.entry(pid);
                    if !*will_dispatch {
                        // The instance will not be dispatched (line 25).
                        if let Some(dropped) = st.wip.take() {
                            st.recycle(dropped.outs);
                        }
                    }
                    std::mem::take(&mut st.awaiting_dispatch)
                };
                for a in awaiting.drain(..) {
                    // A key committed since the observation (and perhaps
                    // re-opened by a later write) no longer needs it.
                    let Some(rs) = self
                        .responses
                        .get_mut(&a.src_ts)
                        .and_then(|states| states.iter_mut().find(|r| r.topic == a.topic))
                        .filter(|rs| rs.opening == a.opening)
                    else {
                        continue;
                    };
                    rs.obs[a.obs].dispatch = Some(*will_dispatch);
                    self.try_commit_response(a.src_ts, &a.topic);
                }
                // Hand the drained buffer back for the node's next takes.
                self.nodes.entry(pid).awaiting_dispatch = awaiting;
            }
            RosPayload::SyncSubscribe => {
                if let Some(w) = self.nodes.entry(pid).wip.as_mut() {
                    w.sync = true;
                }
            }
            RosPayload::CallbackEnd { .. } => {
                let st = self.nodes.entry(pid);
                // Closed through a borrow: moving the whole instance out of
                // its slot would copy it.
                let Some(w) = st.wip.as_mut() else { return };
                let mut outs = std::mem::take(&mut w.outs);
                let in_topic = w.in_topic.take();
                let exec = w.clock.finalize(e.time);
                let (seq, id, kind, sync, start) = (w.seq, w.id, w.kind, w.sync, w.start);
                let unresolved = w.unresolved;
                st.wip = None;
                let Some(id) = id else {
                    st.recycle(outs); // unidentifiable instance
                    return;
                };
                if unresolved == 0 && st.pending.is_empty() {
                    // Nothing to wait for and nothing ahead of it in
                    // completion order: fold straight into the list.
                    let ready = outs.drain(..).map(OutSlot::into_ready);
                    st.list.fold_instance(pid, id, kind, in_topic, ready, sync, exec, start);
                    st.recycle(outs);
                    return;
                }
                st.pending.push_back(PendingInstance {
                    seq,
                    id,
                    kind,
                    in_topic,
                    outs,
                    unresolved,
                    sync,
                    start,
                    exec,
                });
                Self::fold_ready(pid, st);
            }
        }
    }

    fn on_write(&mut self, pid: Pid, topic: &Topic, src_ts: SourceTimestamp) {
        if topic.is_service_request() {
            // Record the caller (`FindCaller` resolved at write time);
            // the first write per key wins, like the batch index.
            let caller = self.nodes.get(pid).and_then(|s| s.last_identity);
            let entries = self.writes.entry(src_ts).or_default();
            if !entries.iter().any(|w| &w.topic == topic) {
                entries.push(WriteEntry { topic: topic.clone(), caller });
            }
        }
        let Some((seq, own)) =
            self.nodes.get(pid).and_then(|s| s.wip.as_ref().map(|w| (w.seq, w.id)))
        else {
            return;
        };
        let slot = if topic.is_service_request() {
            OutSlot::Ready(cat_id(topic, own))
        } else if topic.is_service_response() {
            OutSlot::AwaitClient { topic: topic.clone(), src_ts }
        } else {
            OutSlot::Ready(topic.name_arc().clone())
        };
        let awaits_client = matches!(slot, OutSlot::AwaitClient { .. });
        let st = self.nodes.get_mut(pid).expect("wip implies state");
        let w = st.wip.as_mut().expect("checked above");
        w.outs.push(slot);
        if awaits_client {
            let waiter = Waiter { pid, seq, slot: w.outs.len() - 1 };
            w.unresolved += 1;
            let states = self.responses.entry(src_ts).or_default();
            match states.iter_mut().find(|r| &r.topic == topic) {
                Some(rs) => rs.waiters.push(waiter),
                None => {
                    states.push(RespState {
                        topic: topic.clone(),
                        opening: self.next_opening,
                        obs: Vec::new(),
                        waiters: vec![waiter],
                    });
                    self.next_opening += 1;
                }
            }
        }
    }

    /// Looks up (and consumes) the recorded caller of a request write.
    fn consume_write(&mut self, topic: &Topic, src_ts: SourceTimestamp) -> Option<CallbackId> {
        let entries = self.writes.get_mut(&src_ts)?;
        let i = entries.iter().position(|w| &w.topic == topic)?;
        let entry = entries.swap_remove(i);
        if entries.is_empty() {
            self.writes.remove(&src_ts);
        }
        entry.caller
    }

    /// Commits a response key once its `FindClient` outcome can no longer
    /// change: the chronologically first dispatched-true observation, with
    /// every earlier observation decided. Delivers the client identity to
    /// all waiting output slots and drops the key.
    fn try_commit_response(&mut self, src_ts: SourceTimestamp, topic: &Topic) {
        let Some(states) = self.responses.get_mut(&src_ts) else { return };
        let Some(idx) = states.iter().position(|r| &r.topic == topic) else { return };
        let mut client = None;
        for obs in &states[idx].obs {
            match obs.dispatch {
                None => return, // an earlier observation is still undecided
                Some(true) => {
                    client = Some(obs.callback);
                    break;
                }
                Some(false) => {}
            }
        }
        // All decided-false so far: a future take of the same response
        // could still dispatch, so the key must stay open.
        let Some(client) = client else { return };
        let resolved = states.swap_remove(idx);
        if states.is_empty() {
            self.responses.remove(&src_ts);
        }
        for waiter in resolved.waiters {
            self.deliver(waiter, &resolved.topic, client);
        }
    }

    /// Fills a waiting output slot with the resolved client decoration.
    fn deliver(&mut self, waiter: Waiter, topic: &Topic, client: CallbackId) {
        let Some(st) = self.nodes.get_mut(waiter.pid) else { return };
        let resolved = OutSlot::Ready(cat_id(topic, Some(client)));
        if let Some(w) = st.wip.as_mut().filter(|w| w.seq == waiter.seq) {
            w.outs[waiter.slot] = resolved;
            w.unresolved -= 1;
            return;
        }
        if let Some(p) = st.pending.iter_mut().find(|p| p.seq == waiter.seq) {
            p.outs[waiter.slot] = resolved;
            p.unresolved -= 1;
            Self::fold_ready(waiter.pid, st);
        }
        // Otherwise the instance was discarded (undispatched client): the
        // resolution has nowhere to go.
    }

    /// Folds fully resolved pending instances into the node's callback
    /// list, strictly in completion order. Everything is moved, not
    /// cloned, the drained `outs` buffer goes back to the node, and
    /// folding a repeat instance of a known callback touches no allocator
    /// at all ([`CbList::fold_instance`]).
    fn fold_ready(pid: Pid, st: &mut PidState) {
        while st.pending.front().is_some_and(|p| p.unresolved == 0) {
            let mut p = st.pending.pop_front().expect("checked front");
            let ready = p.outs.drain(..).map(OutSlot::into_ready);
            st.list.fold_instance(pid, p.id, p.kind, p.in_topic, ready, p.sync, p.exec, p.start);
            st.recycle(p.outs);
        }
    }

    fn finished_record(pid: Pid, p: &PendingInstance, outs: Vec<Arc<str>>) -> CallbackRecord {
        CallbackRecord {
            pid,
            id: p.id,
            kind: p.kind,
            in_topic: p.in_topic.clone(),
            out_topics: outs,
            is_sync_subscriber: p.sync,
            stats: ExecStats::from_samples([p.exec]),
            exec_times: vec![p.exec],
            start_times: vec![p.start],
        }
    }

    fn on_sched(&mut self, e: &SchedEvent) {
        let SchedEventKind::Switch { prev_pid, next_pid, .. } = &e.kind else {
            return; // wakeups do not put a thread on a CPU
        };
        let involved = [*prev_pid, *next_pid];
        let targets = if prev_pid == next_pid { &involved[..1] } else { &involved[..] };
        for &pid in targets {
            if let Some(w) = self.nodes.get_mut(pid).and_then(|s| s.wip.as_mut()) {
                w.clock.on_switch(e.time, *prev_pid, *next_pid, pid);
            }
        }
    }

    /// The per-node callback lists for everything fed so far, sorted by
    /// PID, empty lists omitted — exactly what batch
    /// [`crate::synthesize_per_node`] returns for the same events.
    ///
    /// Pending instances are resolved against the current interaction
    /// tables without consuming them (a response still awaiting its
    /// dispatch decorates as `unknown`, as batch extraction would on a
    /// trace cut at this point); feeding may continue afterwards.
    pub fn callback_lists(&self) -> Vec<(Pid, CbList)> {
        let mut lists = Vec::new();
        let mut entries: Vec<(Pid, &PidState)> = self.nodes.iter().collect();
        entries.sort_unstable_by_key(|&(pid, _)| pid);
        for (pid, st) in entries {
            let mut list = st.list.clone();
            for p in &st.pending {
                let outs = p
                    .outs
                    .iter()
                    .map(|slot| match slot {
                        OutSlot::Ready(s) => s.clone(),
                        OutSlot::AwaitClient { topic, src_ts } => {
                            cat_id(topic, self.peek_client(*src_ts, topic))
                        }
                    })
                    .collect();
                list.add_instance(Self::finished_record(pid, p, outs));
            }
            if !list.is_empty() {
                lists.push((pid, list));
            }
        }
        lists
    }

    /// `FindClient` against the current tables, without committing: the
    /// first observation known to dispatch.
    fn peek_client(&self, src_ts: SourceTimestamp, topic: &Topic) -> Option<CallbackId> {
        let states = self.responses.get(&src_ts)?;
        let rs = states.iter().find(|r| &r.topic == topic)?;
        rs.obs.iter().find(|o| o.dispatch == Some(true)).map(|o| o.callback)
    }

    /// Synthesizes the timing model of everything fed so far, using the
    /// session's accumulated node-name map. Callable at any point; the
    /// session can keep consuming segments afterwards.
    pub fn model(&self) -> Dag {
        Dag::from_cblists(&self.callback_lists(), &self.names)
    }

    /// Like [`SynthesisSession::model`], but with an explicitly supplied
    /// node-name map (for streams whose P1 events live elsewhere).
    pub fn model_with_names(&self, names: &HashMap<Pid, String>) -> Dag {
        Dag::from_cblists(&self.callback_lists(), names)
    }

    /// Number of segments fed so far.
    pub fn segments_fed(&self) -> usize {
        self.segments_fed
    }

    /// Total events (both streams) fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// The largest single segment fed so far, in events.
    pub fn peak_segment_events(&self) -> usize {
        self.peak_segment_events
    }

    /// Derived entries currently retained across segment boundaries: open
    /// and pending instances, unmatched request writes, and open response
    /// keys (with their observations). This — not the events themselves —
    /// is all the session keeps between segments.
    pub fn retained_entries(&self) -> usize {
        let instances: usize = self
            .nodes
            .iter()
            .map(|(_, s)| s.pending.len() + usize::from(s.wip.is_some()))
            .sum();
        let writes: usize = self.writes.values().map(Vec::len).sum();
        let responses: usize = self
            .responses
            .values()
            .map(|v| v.iter().map(|r| r.obs.len() + 1).sum::<usize>())
            .sum();
        instances + writes + responses
    }

    /// Peak memory watermark, in event-equivalents: the maximum over all
    /// feeds of segment size plus retained derived entries. For a bounded
    /// segment size this stays bounded no matter how long the run is —
    /// the property the `streaming` experiment asserts.
    pub fn peak_watermark(&self) -> usize {
        self.peak_watermark
    }
}

impl rtms_trace::EventSink for SynthesisSession {
    fn push_ros(&mut self, event: RosEvent) {
        rtms_trace::EventSink::push_ros(&mut self.buffer, event);
    }
    fn push_sched(&mut self, event: SchedEvent) {
        rtms_trace::EventSink::push_sched(&mut self.buffer, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize;
    use rtms_trace::{split_by_events, Cpu, EventSink, Priority, ThreadState};

    fn ros(ms: u64, pid: u32, payload: RosPayload) -> RosEvent {
        RosEvent::new(Nanos::from_millis(ms), Pid::new(pid), payload)
    }

    fn sw(ms: u64, prev: u32, next: u32) -> SchedEvent {
        SchedEvent::switch(
            Nanos::from_millis(ms),
            Cpu::new(0),
            Pid::new(prev),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(next),
            Priority::NORMAL,
        )
    }

    /// A trace exercising every cross-segment hazard: a preempted timer
    /// callback, a two-node service interaction (request decoration via
    /// the write table, response decoration via the dispatch decision),
    /// and an undispatched client instance.
    fn service_trace() -> Trace {
        let rq = || Topic::service_request("/sv");
        let rs = || Topic::service_response("/sv");
        let mut t = Trace::new();
        t.push_ros(ros(0, 1, RosPayload::NodeInit { node_name: "caller".into() }));
        t.push_ros(ros(0, 3, RosPayload::NodeInit { node_name: "server".into() }));
        // Timer on pid 1 calls the service; preempted 2..4.
        t.push_ros(ros(1, 1, RosPayload::CallbackStart { kind: CallbackKind::Timer }));
        t.push_ros(ros(1, 1, RosPayload::TimerCall { callback: CallbackId::new(0x11) }));
        t.push_sched(sw(2, 1, 9));
        t.push_sched(sw(4, 9, 1));
        t.push_ros(ros(5, 1, RosPayload::DdsWrite {
            topic: rq(),
            src_ts: SourceTimestamp::new(100),
        }));
        t.push_ros(ros(5, 1, RosPayload::CallbackEnd { kind: CallbackKind::Timer }));
        // Server handles the request and responds.
        t.push_ros(ros(6, 3, RosPayload::CallbackStart { kind: CallbackKind::Service }));
        t.push_ros(ros(6, 3, RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: rq(),
            src_ts: SourceTimestamp::new(100),
        }));
        t.push_ros(ros(8, 3, RosPayload::DdsWrite {
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(8, 3, RosPayload::CallbackEnd { kind: CallbackKind::Service }));
        // Client instance on pid 1: dispatched.
        t.push_ros(ros(9, 1, RosPayload::CallbackStart { kind: CallbackKind::Client }));
        t.push_ros(ros(9, 1, RosPayload::TakeResponse {
            callback: CallbackId::new(0x21),
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(9, 1, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ros(10, 1, RosPayload::CallbackEnd { kind: CallbackKind::Client }));
        // A second, undispatched client instance on pid 2.
        t.push_ros(ros(9, 2, RosPayload::CallbackStart { kind: CallbackKind::Client }));
        t.push_ros(ros(9, 2, RosPayload::TakeResponse {
            callback: CallbackId::new(0x22),
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        }));
        t.push_ros(ros(9, 2, RosPayload::ClientDispatch { will_dispatch: false }));
        t.push_ros(ros(9, 2, RosPayload::CallbackEnd { kind: CallbackKind::Client }));
        t.sort_by_time();
        t
    }

    /// A server answers two requests with the same response source
    /// timestamp. Both clients take the first reply; pid 1's dispatch
    /// commits the key, and the second reply re-opens it before pid 2's
    /// (negative) decision about the *first* reply arrives.
    fn reused_response_trace() -> Trace {
        let rq = || Topic::service_request("/sv");
        let rs = || Topic::service_response("/sv");
        let (service, client) = (CallbackKind::Service, CallbackKind::Client);
        let reply = || RosPayload::DdsWrite { topic: rs(), src_ts: SourceTimestamp::new(200) };
        let take = |cb: u64| RosPayload::TakeResponse {
            callback: CallbackId::new(cb),
            topic: rs(),
            src_ts: SourceTimestamp::new(200),
        };
        let serve = |src: u64| RosPayload::TakeRequest {
            callback: CallbackId::new(0x33),
            topic: rq(),
            src_ts: SourceTimestamp::new(src),
        };
        let mut t = Trace::new();
        t.push_ros(ros(1, 3, RosPayload::CallbackStart { kind: service }));
        t.push_ros(ros(1, 3, serve(100)));
        t.push_ros(ros(2, 3, reply()));
        t.push_ros(ros(2, 3, RosPayload::CallbackEnd { kind: service }));
        t.push_ros(ros(3, 1, RosPayload::CallbackStart { kind: client }));
        t.push_ros(ros(3, 1, take(0x21)));
        t.push_ros(ros(4, 2, RosPayload::CallbackStart { kind: client }));
        t.push_ros(ros(4, 2, take(0x22)));
        t.push_ros(ros(5, 1, RosPayload::ClientDispatch { will_dispatch: true }));
        t.push_ros(ros(6, 1, RosPayload::CallbackEnd { kind: client }));
        t.push_ros(ros(7, 3, RosPayload::CallbackStart { kind: service }));
        t.push_ros(ros(7, 3, serve(101)));
        t.push_ros(ros(8, 3, reply()));
        t.push_ros(ros(8, 3, RosPayload::CallbackEnd { kind: service }));
        t.push_ros(ros(9, 2, RosPayload::ClientDispatch { will_dispatch: false }));
        t.push_ros(ros(10, 2, RosPayload::CallbackEnd { kind: client }));
        t
    }

    #[test]
    fn reused_response_src_ts_never_lands_in_a_later_opening() {
        let trace = reused_response_trace();
        for per_segment in [trace.len(), 1] {
            let mut session = SynthesisSession::new();
            for seg in split_by_events(&trace, per_segment) {
                session.feed_segment(&seg);
            }
            let lists = session.callback_lists();
            let list_of = |pid: u32| {
                let found = lists.iter().find(|(p, _)| *p == Pid::new(pid));
                found.map(|(_, list)| list.clone()).unwrap_or_default()
            };
            for pid in [1, 2] {
                let oracle = crate::extract_callbacks(Pid::new(pid), &trace);
                assert_eq!(list_of(pid), oracle, "pid {pid}, {per_segment} events per segment");
            }
            // The first reply went to pid 1's client. Nobody took the
            // second, so its client stays unknown. The batch oracle looks
            // up takes without regard to time and credits the first
            // reply's dispatch to both writes.
            let server = list_of(3);
            assert_eq!(server.len(), 1);
            let sv = &server.entries()[0];
            assert_eq!(sv.stats.count(), 2);
            let (first, second) = ("/svReply#cb:0x21", "/svReply#unknown");
            assert_eq!(sv.out_topics, [Arc::from(first), Arc::from(second)]);
            let oracle = crate::extract_callbacks(Pid::new(3), &trace);
            assert_eq!(oracle.entries()[0].out_topics, [Arc::from("/svReply#cb:0x21")]);
            assert_eq!(session.model().vertices().len(), 2);
        }
    }

    #[test]
    fn one_event_segments_equal_batch() {
        let trace = service_trace();
        let batch = synthesize(&trace);
        for per_segment in [1usize, 2, 3, 5, 1000] {
            let mut session = SynthesisSession::new();
            for seg in split_by_events(&trace, per_segment) {
                session.feed_segment(&seg);
            }
            assert_eq!(session.model(), batch, "segment size {per_segment}");
        }
    }

    #[test]
    fn model_at_any_point_equals_batch_on_prefix() {
        let trace = service_trace();
        let segments = split_by_events(&trace, 4);
        let mut session = SynthesisSession::new();
        let mut prefix = Trace::new();
        for seg in &segments {
            session.feed_segment(seg);
            for e in seg.ros_events() {
                prefix.push_ros(e.clone());
            }
            for e in seg.sched_events() {
                prefix.push_sched(e.clone());
            }
            assert_eq!(session.model(), synthesize(&prefix));
        }
        // Calling model() must not disturb subsequent feeding: final model
        // still matches the full batch.
        assert_eq!(session.model(), synthesize(&trace));
    }

    #[test]
    fn preemption_measured_across_boundaries() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        let lists = session.callback_lists();
        let (_, caller) = lists.iter().find(|(p, _)| *p == Pid::new(1)).expect("pid 1");
        let timer = caller
            .entries()
            .iter()
            .find(|e| e.kind == CallbackKind::Timer)
            .expect("timer entry");
        // Window [1,5] ms minus preemption [2,4) = 2 ms.
        assert_eq!(timer.stats.mwcet(), Some(Nanos::from_millis(2)));
        assert_eq!(timer.out_topics, [Arc::from("/svRequest#cb:0x11")]);
    }

    #[test]
    fn backwards_switch_across_segments_contributes_zero() {
        // The second segment's switch-out at 20 ms precedes the switch-in
        // at 30 ms that the first segment left open.
        let timer = CallbackKind::Timer;
        let mut first = TraceSegment::new();
        first.push_ros(ros(10, 1, RosPayload::CallbackStart { kind: timer }));
        first.push_ros(ros(10, 1, RosPayload::TimerCall { callback: CallbackId::new(0x11) }));
        first.push_sched(sw(15, 1, 9));
        first.push_sched(sw(30, 9, 1));
        let mut second = TraceSegment::with_index(1);
        second.push_sched(sw(20, 1, 9));
        second.push_ros(ros(40, 1, RosPayload::CallbackEnd { kind: timer }));
        let mut session = SynthesisSession::new();
        session.feed_segment(&first);
        session.feed_segment(&second);
        let lists = session.callback_lists();
        let (_, node) = lists.iter().find(|(p, _)| *p == Pid::new(1)).expect("pid 1");
        // Only the in-order stretch [10, 15) counts.
        assert_eq!(node.entries()[0].stats.mwcet(), Some(Nanos::from_millis(5)));
    }

    #[test]
    fn late_segment_start_gap_is_skipped_not_wrapped() {
        // Segment 1 carries an instance of the same timer that started
        // before segment 0's: its start gap would be negative.
        let (timer, id) = (CallbackKind::Timer, CallbackId::new(0x11));
        let instance = |start: u64, end: u64, index: usize| {
            let mut seg = TraceSegment::with_index(index);
            seg.push_ros(ros(start, 1, RosPayload::CallbackStart { kind: timer }));
            seg.push_ros(ros(start, 1, RosPayload::TimerCall { callback: id }));
            seg.push_ros(ros(end, 1, RosPayload::CallbackEnd { kind: timer }));
            seg
        };
        let mut session = SynthesisSession::new();
        session.feed_segment(&instance(10, 12, 0));
        session.feed_segment(&instance(5, 8, 1));
        let lists = session.callback_lists();
        let (_, node) = lists.iter().find(|(p, _)| *p == Pid::new(1)).expect("pid 1");
        let record = &node.entries()[0];
        assert_eq!(record.start_times.len(), 2);
        assert_eq!(record.estimated_period(), None);
        let model = session.model();
        assert_eq!(model.vertices()[0].period.count(), 0);
    }

    #[test]
    fn request_and_response_decorations_resolve_across_segments() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        let lists = session.callback_lists();
        let (_, server) = lists.iter().find(|(p, _)| *p == Pid::new(3)).expect("pid 3");
        let sv = &server.entries()[0];
        assert_eq!(sv.in_topic.as_deref(), Some("/svRequest#cb:0x11"));
        assert_eq!(sv.out_topics, [Arc::from("/svReply#cb:0x21")]);
    }

    #[test]
    fn tables_drain_once_interactions_complete() {
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        for seg in split_by_events(&trace, 1) {
            session.feed_segment(&seg);
        }
        // Every interaction completed: nothing but closed state remains.
        assert_eq!(session.retained_entries(), 0);
        assert_eq!(session.events_fed(), trace.len() as u64);
        assert!(session.peak_watermark() >= 1);
        assert_eq!(session.segments_fed(), trace.len());
    }

    #[test]
    fn seeded_name_map_is_shared_not_cloned() {
        let names: Arc<HashMap<Pid, String>> = Arc::new(
            [(Pid::new(1), "caller".to_string()), (Pid::new(3), "server".to_string())].into(),
        );
        let trace = service_trace();
        let mut session = SynthesisSession::with_names(Arc::clone(&names));
        session.feed_trace(&trace);
        // The stream's P1 events agree with the seed map, so the Arc is
        // still the very same allocation — no copy-on-write happened.
        assert!(Arc::ptr_eq(session.names(), &names));
        let mut later = SynthesisSession::with_names(Arc::clone(session.names()));
        later.feed_segment(&TraceSegment::new());
        assert!(Arc::ptr_eq(later.names(), &names));
    }

    #[test]
    fn new_p1_event_copies_the_map_once() {
        let names: Arc<HashMap<Pid, String>> = Arc::new(HashMap::new());
        let mut session = SynthesisSession::with_names(Arc::clone(&names));
        let mut trace = Trace::new();
        trace.push_ros(ros(0, 7, RosPayload::NodeInit { node_name: "new".into() }));
        session.feed_trace(&trace);
        assert!(!Arc::ptr_eq(session.names(), &names));
        assert_eq!(session.names().get(&Pid::new(7)).map(String::as_str), Some("new"));
        assert!(names.is_empty(), "seed map untouched");
    }

    #[test]
    fn session_is_an_event_sink_with_flush() {
        use rtms_trace::EventSink;
        let trace = service_trace();
        let mut session = SynthesisSession::new();
        // Streams arrive back to back, as a tracer drain delivers them.
        for e in trace.ros_events() {
            session.push_ros(e.clone());
        }
        for e in trace.sched_events() {
            session.push_sched(e.clone());
        }
        session.flush();
        assert_eq!(session.model(), synthesize(&trace));
        session.flush(); // idempotent on an empty buffer
        assert_eq!(session.segments_fed(), 1);
    }
}
