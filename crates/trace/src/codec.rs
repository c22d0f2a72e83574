//! Compact binary encoding of trace events.
//!
//! This module is the dense format behind record-once replay-many
//! workflows: a hand-rolled little-endian binary encoding (one tag byte
//! plus LEB128 varints, see `rtms_util::varint`) in which a typical event
//! costs a handful of bytes instead of the hundred a serde value tree
//! would spend.
//!
//! Topic names are *interned*: the encoder assigns each distinct name a
//! small integer through a [`TopicInterner`] keyed off the shared
//! `Arc<str>` topic plumbing (a pointer-identity hit is one hash of a
//! `usize`), and events reference the dictionary entry. Each topic string
//! is therefore written once per file, and — symmetrically — the decoder
//! materializes one `Arc<str>` per dictionary entry and *shares* it across
//! every decoded event, so a replayed stream enjoys the same
//! allocation-free topic handling as a live one.
//!
//! Segment frames store their records *interleaved* in merged
//! chronological order (the [`crate::SegmentCursor`] walk order for
//! sorted input), with per-record timestamps delta-encoded against the
//! previous record. Replay therefore reads events in exactly the order
//! synthesis consumes them — [`decode_segment_events`] streams records
//! straight into a callback with no intermediate segment buffer, and the
//! equal-timestamp tie contract (ROS2 before scheduler) is a structural
//! property of the bytes rather than a re-sorting step.
//!
//! The functions here transform between events and byte buffers only;
//! framing, checksums, and file I/O live in [`crate::store`]
//! (`SegmentWriter`/`SegmentReader`). Decoding is defensive end to end:
//! malformed input produces a typed [`CodecError`], never a panic, and
//! declared counts are validated against the bytes actually present before
//! any allocation happens — the robustness suite feeds this module
//! truncated, bit-flipped, and oversized-varint input.
//!
//! The exact wire layout (and its versioning rules) is documented in
//! `docs/TRACE_FORMAT.md`.

use crate::cursor::SegmentEvent;
use crate::event::{CallbackKind, RosEvent, RosPayload};
use crate::ids::{CallbackId, Cpu, Pid, Priority};
use crate::sched_event::{SchedEvent, SchedEventKind, ThreadState};
use crate::time::Nanos;
use crate::topic::{SourceTimestamp, Topic, TopicKind};
use crate::trace::Trace;
use rtms_util::{varint, FxHashMap};
use std::fmt;
use std::sync::Arc;

/// Errors produced while decoding (or framing) binary trace data.
///
/// Every variant is a *diagnosis*: the robustness suite asserts that each
/// corruption class maps to its typed error instead of a panic or a
/// silent misparse.
#[derive(Debug)]
pub enum CodecError {
    /// The file does not start with the segment-file magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The input ended in the middle of a record or frame.
    Truncated,
    /// A varint was truncated, longer than ten bytes, or overflowed.
    BadVarint,
    /// An unknown event record tag.
    BadTag(u8),
    /// An unknown frame kind byte.
    BadFrameKind(u8),
    /// A topic reference pointing outside the dictionary, or carrying
    /// invalid kind bits.
    BadTopicRef(u64),
    /// A declared record count that cannot fit in the bytes present —
    /// rejected *before* any allocation is sized from it.
    BadCount {
        /// The declared number of records.
        count: u64,
        /// The maximum the remaining payload could hold.
        budget: u64,
    },
    /// A declared length exceeding its hard cap.
    BadLength {
        /// The declared length in bytes.
        len: u64,
        /// The cap it violates.
        max: u64,
    },
    /// A frame whose checksum does not match its payload.
    ChecksumMismatch,
    /// A string field that is not valid UTF-8.
    BadUtf8,
    /// The file ended without its index frame — a truncation at a frame
    /// boundary, which per-frame checksums alone cannot catch.
    MissingIndex,
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a segment file (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment-file version {v}")
            }
            CodecError::Truncated => write!(f, "input truncated mid-record"),
            CodecError::BadVarint => write!(f, "malformed varint (truncated or oversized)"),
            CodecError::BadTag(t) => write!(f, "unknown event tag {t:#04x}"),
            CodecError::BadFrameKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            CodecError::BadTopicRef(r) => write!(f, "invalid topic reference {r:#x}"),
            CodecError::BadCount { count, budget } => {
                write!(f, "record count {count} exceeds payload budget {budget}")
            }
            CodecError::BadLength { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::MissingIndex => {
                write!(f, "file ends without an index frame (truncated at a frame boundary?)")
            }
            CodecError::Io(e) => write!(f, "I/O failure: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG checksum), slicing-by-8.
///
/// Used as the per-frame checksum of the segment-file container, where
/// it covers the frame *header* (kind byte, length) as well as the
/// payload — see [`crc32_update`] — so a flipped bit anywhere in a
/// frame, including one that re-routes or re-sizes it, is caught; the
/// robustness suite pins this. The slicing-by-8 formulation consumes
/// eight bytes per step through eight derived tables, so checksumming
/// stays a rounding error next to decode on the replay hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// One incremental CRC-32 step over `bytes`, for checksumming
/// discontiguous data without copying it together.
///
/// `state` is the *uncomplemented* remainder: start from `u32::MAX`,
/// chain over each piece, and complement (`!`) the final state to get
/// the checksum. `crc32(x)` equals `!crc32_update(u32::MAX, x)`.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    // TABLES[0] is the classic byte-at-a-time table; TABLES[k] advances a
    // byte through k extra zero bytes, which is what lets one step fold
    // eight input bytes into the running remainder at once.
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Event record tags. One byte selects the payload variant; boolean and
// small-enum fields (callback kind, dispatch decision, thread state) are
// folded into the tag so they cost no extra bytes. ROS2 and scheduler
// records use disjoint ranges — segment frames store the two streams
// *interleaved* in merged chronological order, and the tag byte (below or
// at/above `TAG_SCHED_SWITCH`) is what routes each record to its stream.
// ---------------------------------------------------------------------------

const TAG_NODE_INIT: u8 = 0x00;
const TAG_CB_START: u8 = 0x01; // + kind (0..=3)
const TAG_TIMER_CALL: u8 = 0x05;
const TAG_CB_END: u8 = 0x06; // + kind (0..=3)
const TAG_TAKE_DATA: u8 = 0x0a;
const TAG_SYNC_SUBSCRIBE: u8 = 0x0b;
const TAG_TAKE_REQUEST: u8 = 0x0c;
const TAG_TAKE_RESPONSE: u8 = 0x0d;
const TAG_CLIENT_DISPATCH: u8 = 0x0e; // + will_dispatch (0..=1)
const TAG_DDS_WRITE: u8 = 0x10;

const TAG_SCHED_SWITCH: u8 = 0x20; // + prev_state (0..=2)
const TAG_SCHED_WAKEUP: u8 = 0x23;

const fn kind_code(kind: CallbackKind) -> u8 {
    match kind {
        CallbackKind::Timer => 0,
        CallbackKind::Subscriber => 1,
        CallbackKind::Service => 2,
        CallbackKind::Client => 3,
    }
}

fn kind_from_code(code: u8) -> CallbackKind {
    match code {
        0 => CallbackKind::Timer,
        1 => CallbackKind::Subscriber,
        2 => CallbackKind::Service,
        _ => CallbackKind::Client,
    }
}

const fn state_code(state: ThreadState) -> u8 {
    match state {
        ThreadState::Runnable => 0,
        ThreadState::Sleeping => 1,
        ThreadState::Dead => 2,
    }
}

fn state_from_code(code: u8) -> ThreadState {
    match code {
        0 => ThreadState::Runnable,
        1 => ThreadState::Sleeping,
        _ => ThreadState::Dead,
    }
}

/// Topic kind bits of a topic reference (low two bits; the dictionary
/// index occupies the rest).
const KIND_PLAIN: u64 = 0;
const KIND_REQUEST: u64 = 1;
const KIND_RESPONSE: u64 = 2;

/// Smallest possible encoded event: tag + one-byte time + one-byte PID.
/// Declared record counts are validated against the remaining payload at
/// this granularity before any capacity is reserved.
const MIN_EVENT_BYTES: u64 = 3;

/// Hard cap on an inline string field (node names). Far above any real
/// name, far below anything that could be used to balloon an allocation.
const MAX_STRING_LEN: u64 = 64 * 1024;

// ---------------------------------------------------------------------------
// Encoder side
// ---------------------------------------------------------------------------

/// The encoder's topic dictionary: maps each distinct topic name to a
/// dense integer id, assigned in order of first appearance.
///
/// Lookup is pointer-first: the streaming pipeline carries each topic
/// name as one shared `Arc<str>` end to end (PR 5's plumbing), so the
/// common case is a hash of the allocation's address. Distinct `Arc`s
/// with equal contents (e.g. two co-deployed apps naming the same topic)
/// fall back to a content-keyed map and still share one dictionary entry
/// — each name is written to the file exactly once.
#[derive(Debug, Default)]
pub struct TopicInterner {
    entries: Vec<Arc<str>>,
    by_ptr: FxHashMap<usize, u32>,
    by_content: FxHashMap<Arc<str>, u32>,
    flushed: usize,
}

impl TopicInterner {
    /// Creates an empty dictionary.
    pub fn new() -> TopicInterner {
        TopicInterner::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &Arc<str>) -> u32 {
        let ptr = Arc::as_ptr(name) as *const u8 as usize;
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        let id = match self.by_content.get(name) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.entries.len()).expect("dictionary overflow");
                self.entries.push(Arc::clone(name));
                self.by_content.insert(Arc::clone(name), id);
                id
            }
        };
        self.by_ptr.insert(ptr, id);
        id
    }

    /// All interned names, in id order.
    pub fn entries(&self) -> &[Arc<str>] {
        &self.entries
    }

    /// Entries interned since the last [`TopicInterner::mark_flushed`] —
    /// the ones a writer must emit in a dictionary frame before the next
    /// segment frame can reference them.
    pub fn pending(&self) -> &[Arc<str>] {
        &self.entries[self.flushed..]
    }

    /// Marks every current entry as written to the file.
    pub fn mark_flushed(&mut self) {
        self.flushed = self.entries.len();
    }
}

/// Encodes a dictionary frame payload: the count of new entries followed
/// by each name as a length-prefixed UTF-8 string.
pub fn encode_dict_entries(entries: &[Arc<str>], out: &mut Vec<u8>) {
    varint::write_u64(out, entries.len() as u64);
    for name in entries {
        varint::write_u64(out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
}

/// Decodes a dictionary frame payload, appending the new names to `dict`.
pub fn decode_dict_entries(payload: &[u8], dict: &mut Vec<Arc<str>>) -> Result<(), CodecError> {
    let mut r = ByteReader::new(payload);
    let count = r.varint()?;
    // Every entry costs at least one length byte.
    if count > r.remaining() as u64 {
        return Err(CodecError::BadCount { count, budget: r.remaining() as u64 });
    }
    dict.reserve(count as usize);
    for _ in 0..count {
        let len = r.varint()?;
        if len > MAX_STRING_LEN {
            return Err(CodecError::BadLength { len, max: MAX_STRING_LEN });
        }
        let bytes = r.bytes(len as usize)?;
        let name = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
        dict.push(Arc::from(name));
    }
    if !r.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok(())
}

/// Encodes one segment as a segment frame payload: the segment's run
/// index, both stream lengths, then the records of both streams
/// *interleaved* — a two-pointer merge that preserves each stream's own
/// order and, on a cross-stream timestamp tie, writes the ROS2 record
/// first. For the time-sorted segments every producer path emits, the
/// on-disk record order therefore *is* the [`crate::SegmentCursor`] walk
/// order, which is what lets replay feed a decoded frame straight into
/// synthesis without re-merging (and makes the equal-timestamp tie
/// contract a structural property of the format).
///
/// Timestamps are delta-encoded: each record stores the ZigZag varint
/// difference from the previous record's timestamp (starting from zero),
/// so the near-sorted walk costs one or two bytes per time instead of a
/// full absolute varint.
///
/// Because the merge is stable per stream, decoding reconstructs both
/// streams exactly as inserted — the round trip is byte-exact for *any*
/// segment, sorted or not.
///
/// New topic names encountered while encoding are interned into `dict`;
/// the caller (the [`crate::store::SegmentWriter`]) must emit
/// [`TopicInterner::pending`] in a dictionary frame *before* this frame.
pub fn encode_segment(segment: &Trace, dict: &mut TopicInterner, out: &mut Vec<u8>) {
    varint::write_u64(out, segment.index() as u64);
    let ros = segment.ros_events();
    let sched = segment.sched_events();
    varint::write_u64(out, ros.len() as u64);
    varint::write_u64(out, sched.len() as u64);
    let mut prev = Nanos::from_nanos(0);
    let (mut ri, mut si) = (0, 0);
    while ri < ros.len() && si < sched.len() {
        if ros[ri].time <= sched[si].time {
            encode_ros_event(&ros[ri], &mut prev, dict, out);
            ri += 1;
        } else {
            encode_sched_event(&sched[si], &mut prev, out);
            si += 1;
        }
    }
    for e in &ros[ri..] {
        encode_ros_event(e, &mut prev, dict, out);
    }
    for e in &sched[si..] {
        encode_sched_event(e, &mut prev, out);
    }
}

/// The header of a segment frame payload: run index and both stream
/// lengths, with the declared total validated against the bytes present
/// *before* any allocation is sized from it.
struct SegmentHeader {
    index: u64,
    ros_count: u64,
    sched_count: u64,
}

impl SegmentHeader {
    fn decode(r: &mut ByteReader<'_>) -> Result<SegmentHeader, CodecError> {
        let index = r.varint()?;
        let ros_count = r.varint()?;
        let sched_count = r.varint()?;
        let budget = r.remaining() as u64 / MIN_EVENT_BYTES;
        let total = ros_count.checked_add(sched_count).ok_or(CodecError::BadVarint)?;
        if total > budget {
            return Err(CodecError::BadCount { count: total, budget });
        }
        Ok(SegmentHeader { index, ros_count, sched_count })
    }

    fn total(&self) -> u64 {
        self.ros_count + self.sched_count
    }
}

/// Decodes a segment frame payload produced by [`encode_segment`] into a
/// fresh segment. Records are routed back to their stream by tag family,
/// so each stream comes back exactly as it went in.
pub fn decode_segment(payload: &[u8], dict: &[Arc<str>]) -> Result<Trace, CodecError> {
    let mut segment = Trace::new();
    let (index, _) =
        decode_segment_events(payload, dict, &mut DecodeSlots::new(), |event| match event {
            SegmentEvent::Ros(e) => segment.push_ros(e.clone()),
            SegmentEvent::Sched(e) => segment.push_sched(e.clone()),
        })?;
    segment.set_index(index);
    Ok(segment)
}

/// Reusable decode targets for the records that carry a topic
/// (`take_*` and `dds_write`): one [`RosEvent`] per (record tag, topic
/// reference) pair, created the first time that shape is decoded and
/// overwritten in place by every later record of the same shape.
///
/// A slot's topic shares the dictionary's `Arc`, cloned once when the
/// slot is created, so a streamed record costs no reference-count
/// traffic. Slots are created only for topic references that passed the
/// dictionary checks, so the table is bounded by the dictionary no matter
/// what the input holds. A slot whose topic is not the dictionary's
/// current entry (a table reused with another dictionary) is rebuilt, so
/// a stale name can never be handed out.
#[derive(Debug, Default)]
pub struct DecodeSlots {
    /// Indexed by `topic reference * 4 + tag family`.
    events: Vec<Option<RosEvent>>,
}

impl DecodeSlots {
    /// Creates an empty slot table.
    pub fn new() -> DecodeSlots {
        DecodeSlots::default()
    }

    /// The slot of a fully parsed topic record, holding that record's
    /// fields. `callback` is ignored for `dds_write`, which carries none.
    #[inline]
    fn fill(
        &mut self,
        tag: u8,
        topic: TopicRef<'_>,
        time: Nanos,
        pid: Pid,
        callback: CallbackId,
        src_ts: SourceTimestamp,
    ) -> &RosEvent {
        let family = match tag {
            TAG_TAKE_DATA => 0,
            TAG_TAKE_REQUEST => 1,
            TAG_TAKE_RESPONSE => 2,
            _ => 3,
        };
        let i = topic.raw as usize * 4 + family;
        if i >= self.events.len() {
            self.events.resize_with(i + 1, || None);
        }
        let slot = &mut self.events[i];
        let reused =
            slot.as_mut().is_some_and(|e| overwrite(e, topic.name, time, pid, callback, src_ts));
        if !reused {
            let t = Topic::from_raw_parts(Arc::clone(topic.name), topic.kind);
            let payload = match tag {
                TAG_TAKE_DATA => RosPayload::TakeData { callback, topic: t, src_ts },
                TAG_TAKE_REQUEST => RosPayload::TakeRequest { callback, topic: t, src_ts },
                TAG_TAKE_RESPONSE => RosPayload::TakeResponse { callback, topic: t, src_ts },
                _ => RosPayload::DdsWrite { topic: t, src_ts },
            };
            *slot = Some(RosEvent { time, pid, payload });
        }
        slot.as_ref().expect("filled above")
    }
}

/// Overwrites a slot's per-record fields, if its topic is `name`.
#[inline]
fn overwrite(
    e: &mut RosEvent,
    name: &Arc<str>,
    time: Nanos,
    pid: Pid,
    callback: CallbackId,
    src_ts: SourceTimestamp,
) -> bool {
    match &mut e.payload {
        RosPayload::TakeData { callback: c, topic, src_ts: s }
        | RosPayload::TakeRequest { callback: c, topic, src_ts: s }
        | RosPayload::TakeResponse { callback: c, topic, src_ts: s }
            if Arc::ptr_eq(topic.name_arc(), name) =>
        {
            *c = callback;
            *s = src_ts;
        }
        RosPayload::DdsWrite { topic, src_ts: s } if Arc::ptr_eq(topic.name_arc(), name) => {
            *s = src_ts;
        }
        _ => return false,
    }
    e.time = time;
    e.pid = pid;
    true
}

/// Streaming decode of a segment frame payload: invokes `f` with each
/// record, in on-disk (merged chronological) order, without materializing
/// a [`Trace`]. Returns the segment's run index and event count.
///
/// Records are lent, not handed over: topic-carrying records live in
/// `slots` (see [`DecodeSlots`]) and the rest on the stack, so `f` must
/// clone whatever it keeps. A record that fails to parse never reaches
/// `f`, and leaves every slot as it was.
///
/// This is the replay hot path: `SynthesisSession::feed_reader` fuses
/// this walk directly into the synthesis state machine, so a replayed
/// file costs one decode pass, zero intermediate event buffers and no
/// per-record reference counting (only a P1 node name allocates).
pub fn decode_segment_events<F: FnMut(SegmentEvent<'_>)>(
    payload: &[u8],
    dict: &[Arc<str>],
    slots: &mut DecodeSlots,
    mut f: F,
) -> Result<(usize, usize), CodecError> {
    let mut r = ByteReader::new(payload);
    let header = SegmentHeader::decode(&mut r)?;
    let mut prev = Nanos::from_nanos(0);
    let mut ros_seen = 0u64;
    for _ in 0..header.total() {
        // The tag byte's family range routes the record to its stream.
        match r.peek() {
            Some(t) if t < TAG_SCHED_SWITCH => {
                decode_ros_event(&mut r, &mut prev, dict, slots, &mut f)?;
                ros_seen += 1;
            }
            Some(_) => f(SegmentEvent::Sched(&decode_sched_event(&mut r, &mut prev)?)),
            None => return Err(CodecError::Truncated),
        }
    }
    if ros_seen != header.ros_count || !r.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok((header.index as usize, header.total() as usize))
}

#[inline]
fn encode_topic(topic: &Topic, dict: &mut TopicInterner, out: &mut Vec<u8>) {
    let id = u64::from(dict.intern(topic.name_arc()));
    let kind = match topic.kind() {
        TopicKind::Plain => KIND_PLAIN,
        TopicKind::ServiceRequest => KIND_REQUEST,
        TopicKind::ServiceResponse => KIND_RESPONSE,
    };
    varint::write_u64(out, (id << 2) | kind);
}

/// A checked topic reference: the raw wire value, its kind, and the
/// dictionary entry it names.
#[derive(Clone, Copy)]
struct TopicRef<'d> {
    raw: u64,
    kind: TopicKind,
    name: &'d Arc<str>,
}

#[inline]
fn decode_topic<'d>(
    r: &mut ByteReader<'_>,
    dict: &'d [Arc<str>],
) -> Result<TopicRef<'d>, CodecError> {
    let raw = r.varint()?;
    let kind = match raw & 0b11 {
        KIND_PLAIN => TopicKind::Plain,
        KIND_REQUEST => TopicKind::ServiceRequest,
        KIND_RESPONSE => TopicKind::ServiceResponse,
        _ => return Err(CodecError::BadTopicRef(raw)),
    };
    let name = dict
        .get((raw >> 2) as usize)
        .ok_or(CodecError::BadTopicRef(raw))?;
    Ok(TopicRef { raw, kind, name })
}

/// Writes `time` as a ZigZag delta from `*prev`, then advances `*prev`.
#[inline]
fn encode_time_delta(time: Nanos, prev: &mut Nanos, out: &mut Vec<u8>) {
    let delta = time.as_nanos().wrapping_sub(prev.as_nanos()) as i64;
    varint::write_i64(out, delta);
    *prev = time;
}

/// Reads a ZigZag time delta, applies it to `*prev`, and returns the
/// absolute timestamp. Wrapping arithmetic keeps adversarial deltas from
/// panicking — a nonsense time decodes to a nonsense (but typed-error- or
/// checksum-caught) value, never a crash.
#[inline]
fn decode_time_delta(r: &mut ByteReader<'_>, prev: &mut Nanos) -> Result<Nanos, CodecError> {
    let delta = r.varint_i64()?;
    let time = Nanos::from_nanos(prev.as_nanos().wrapping_add(delta as u64));
    *prev = time;
    Ok(time)
}

/// Encodes one ROS2 event record.
pub fn encode_ros_event(e: &RosEvent, prev: &mut Nanos, dict: &mut TopicInterner, out: &mut Vec<u8>) {
    let tag = match &e.payload {
        RosPayload::NodeInit { .. } => TAG_NODE_INIT,
        RosPayload::CallbackStart { kind } => TAG_CB_START + kind_code(*kind),
        RosPayload::TimerCall { .. } => TAG_TIMER_CALL,
        RosPayload::CallbackEnd { kind } => TAG_CB_END + kind_code(*kind),
        RosPayload::TakeData { .. } => TAG_TAKE_DATA,
        RosPayload::SyncSubscribe => TAG_SYNC_SUBSCRIBE,
        RosPayload::TakeRequest { .. } => TAG_TAKE_REQUEST,
        RosPayload::TakeResponse { .. } => TAG_TAKE_RESPONSE,
        RosPayload::ClientDispatch { will_dispatch } => {
            TAG_CLIENT_DISPATCH + u8::from(*will_dispatch)
        }
        RosPayload::DdsWrite { .. } => TAG_DDS_WRITE,
    };
    out.push(tag);
    encode_time_delta(e.time, prev, out);
    varint::write_u32(out, e.pid.get());
    match &e.payload {
        RosPayload::NodeInit { node_name } => {
            varint::write_u64(out, node_name.len() as u64);
            out.extend_from_slice(node_name.as_bytes());
        }
        RosPayload::TimerCall { callback } => varint::write_u64(out, callback.get()),
        RosPayload::TakeData { callback, topic, src_ts }
        | RosPayload::TakeRequest { callback, topic, src_ts }
        | RosPayload::TakeResponse { callback, topic, src_ts } => {
            varint::write_u64(out, callback.get());
            encode_topic(topic, dict, out);
            varint::write_u64(out, src_ts.get());
        }
        RosPayload::DdsWrite { topic, src_ts } => {
            encode_topic(topic, dict, out);
            varint::write_u64(out, src_ts.get());
        }
        RosPayload::CallbackStart { .. }
        | RosPayload::CallbackEnd { .. }
        | RosPayload::SyncSubscribe
        | RosPayload::ClientDispatch { .. } => {}
    }
}

/// Decodes one ROS2 event record and lends it to `f`: topic-carrying
/// records from their slot, the rest from the stack.
#[inline]
fn decode_ros_event<F: FnMut(SegmentEvent<'_>)>(
    r: &mut ByteReader<'_>,
    prev: &mut Nanos,
    dict: &[Arc<str>],
    slots: &mut DecodeSlots,
    f: &mut F,
) -> Result<(), CodecError> {
    let tag = r.u8()?;
    let time = decode_time_delta(r, prev)?;
    let pid = Pid::new(r.varint_u32()?);
    let payload = match tag {
        TAG_NODE_INIT => {
            let len = r.varint()?;
            if len > MAX_STRING_LEN {
                return Err(CodecError::BadLength { len, max: MAX_STRING_LEN });
            }
            let bytes = r.bytes(len as usize)?;
            let node_name =
                std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?.to_string();
            RosPayload::NodeInit { node_name }
        }
        t if (TAG_CB_START..TAG_CB_START + 4).contains(&t) => {
            RosPayload::CallbackStart { kind: kind_from_code(t - TAG_CB_START) }
        }
        TAG_TIMER_CALL => RosPayload::TimerCall { callback: CallbackId::new(r.varint()?) },
        t if (TAG_CB_END..TAG_CB_END + 4).contains(&t) => {
            RosPayload::CallbackEnd { kind: kind_from_code(t - TAG_CB_END) }
        }
        TAG_TAKE_DATA | TAG_TAKE_REQUEST | TAG_TAKE_RESPONSE => {
            let callback = CallbackId::new(r.varint()?);
            let topic = decode_topic(r, dict)?;
            let src_ts = SourceTimestamp::new(r.varint()?);
            f(SegmentEvent::Ros(slots.fill(tag, topic, time, pid, callback, src_ts)));
            return Ok(());
        }
        TAG_SYNC_SUBSCRIBE => RosPayload::SyncSubscribe,
        TAG_CLIENT_DISPATCH => RosPayload::ClientDispatch { will_dispatch: false },
        t if t == TAG_CLIENT_DISPATCH + 1 => RosPayload::ClientDispatch { will_dispatch: true },
        TAG_DDS_WRITE => {
            let topic = decode_topic(r, dict)?;
            let src_ts = SourceTimestamp::new(r.varint()?);
            let no_callback = CallbackId::new(0);
            f(SegmentEvent::Ros(slots.fill(tag, topic, time, pid, no_callback, src_ts)));
            return Ok(());
        }
        t => return Err(CodecError::BadTag(t)),
    };
    f(SegmentEvent::Ros(&RosEvent { time, pid, payload }));
    Ok(())
}

/// Encodes one scheduler event record.
pub fn encode_sched_event(e: &SchedEvent, prev: &mut Nanos, out: &mut Vec<u8>) {
    match &e.kind {
        SchedEventKind::Switch { prev_pid, prev_prio, prev_state, next_pid, next_prio } => {
            out.push(TAG_SCHED_SWITCH + state_code(*prev_state));
            encode_time_delta(e.time, prev, out);
            varint::write_u64(out, u64::from(e.cpu.index() as u16));
            varint::write_u32(out, prev_pid.get());
            varint::write_i64(out, i64::from(prev_prio.get()));
            varint::write_u32(out, next_pid.get());
            varint::write_i64(out, i64::from(next_prio.get()));
        }
        SchedEventKind::Wakeup { pid, prio } => {
            out.push(TAG_SCHED_WAKEUP);
            encode_time_delta(e.time, prev, out);
            varint::write_u64(out, u64::from(e.cpu.index() as u16));
            varint::write_u32(out, pid.get());
            varint::write_i64(out, i64::from(prio.get()));
        }
    }
}

/// Decodes one scheduler event record.
fn decode_sched_event(r: &mut ByteReader<'_>, prev: &mut Nanos) -> Result<SchedEvent, CodecError> {
    let tag = r.u8()?;
    let time = decode_time_delta(r, prev)?;
    let cpu = Cpu::new(u16::try_from(r.varint()?).map_err(|_| CodecError::BadVarint)?);
    let kind = match tag {
        t if (TAG_SCHED_SWITCH..TAG_SCHED_SWITCH + 3).contains(&t) => {
            let prev_pid = Pid::new(r.varint_u32()?);
            let prev_prio = Priority::new(r.varint_i32()?);
            let next_pid = Pid::new(r.varint_u32()?);
            let next_prio = Priority::new(r.varint_i32()?);
            SchedEventKind::Switch {
                prev_pid,
                prev_prio,
                prev_state: state_from_code(t - TAG_SCHED_SWITCH),
                next_pid,
                next_prio,
            }
        }
        TAG_SCHED_WAKEUP => {
            let pid = Pid::new(r.varint_u32()?);
            let prio = Priority::new(r.varint_i32()?);
            SchedEventKind::Wakeup { pid, prio }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(SchedEvent { time, cpu, kind })
}

/// A bounds-checked cursor over a byte slice: every read is validated,
/// every failure is a typed error.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        // One-byte values dominate the wire (deltas, ids, cpus, flags);
        // skip the general decoder for them.
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let (v, n) = varint::read_u64(&self.buf[self.pos..]).ok_or(CodecError::BadVarint)?;
        self.pos += n;
        Ok(v)
    }

    fn varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::BadVarint)
    }

    fn varint_i64(&mut self) -> Result<i64, CodecError> {
        Ok(varint::unzigzag(self.varint()?))
    }

    fn varint_i32(&mut self) -> Result<i32, CodecError> {
        i32::try_from(self.varint_i64()?).map_err(|_| CodecError::BadVarint)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> Trace {
        let topic = Topic::plain("/shared/topic");
        let mut seg = Trace::with_index(7);
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(5),
            Pid::new(3),
            RosPayload::NodeInit { node_name: "fusion".into() },
        ));
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(9),
            Pid::new(3),
            RosPayload::CallbackStart { kind: CallbackKind::Subscriber },
        ));
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(9),
            Pid::new(3),
            RosPayload::TakeData {
                callback: CallbackId::new(0x2a),
                topic: topic.clone(),
                src_ts: SourceTimestamp::new(900),
            },
        ));
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(12),
            Pid::new(3),
            RosPayload::DdsWrite { topic, src_ts: SourceTimestamp::new(1200) },
        ));
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(14),
            Pid::new(3),
            RosPayload::CallbackEnd { kind: CallbackKind::Subscriber },
        ));
        seg.push_sched(SchedEvent::switch(
            Nanos::from_nanos(10),
            Cpu::new(1),
            Pid::new(3),
            Priority::new(-5),
            ThreadState::Sleeping,
            Pid::new(4),
            Priority::NORMAL,
        ));
        seg.push_sched(SchedEvent::wakeup(
            Nanos::from_nanos(11),
            Cpu::new(0),
            Pid::new(3),
            Priority::new(7),
        ));
        seg
    }

    fn round_trip(seg: &Trace) -> (Vec<u8>, Trace, Vec<Arc<str>>) {
        let mut dict = TopicInterner::new();
        let mut payload = Vec::new();
        encode_segment(seg, &mut dict, &mut payload);
        let decoded_dict: Vec<Arc<str>> = dict.entries().to_vec();
        let back = decode_segment(&payload, &decoded_dict).expect("decodes");
        (payload, back, decoded_dict)
    }

    #[test]
    fn segment_round_trips_exactly() {
        let seg = sample_segment();
        let (_, back, _) = round_trip(&seg);
        assert_eq!(back, seg);
    }

    #[test]
    fn decoded_topics_share_one_arc_per_name() {
        let seg = sample_segment();
        let (_, back, dict) = round_trip(&seg);
        assert_eq!(dict.len(), 1, "one distinct topic name, one dictionary entry");
        let mut arcs = Vec::new();
        for e in back.ros_events() {
            match &e.payload {
                RosPayload::TakeData { topic, .. } | RosPayload::DdsWrite { topic, .. } => {
                    arcs.push(Arc::clone(topic.name_arc()));
                }
                _ => {}
            }
        }
        assert_eq!(arcs.len(), 2);
        assert!(Arc::ptr_eq(&arcs[0], &arcs[1]), "decoded events share the dictionary entry");
        assert!(Arc::ptr_eq(&arcs[0], &dict[0]));
    }

    #[test]
    fn interner_is_pointer_fast_and_content_correct() {
        let mut dict = TopicInterner::new();
        let a: Arc<str> = Arc::from("/t");
        let b: Arc<str> = Arc::from("/t"); // equal content, distinct allocation
        let c: Arc<str> = Arc::from("/u");
        assert_eq!(dict.intern(&a), 0);
        assert_eq!(dict.intern(&a), 0);
        assert_eq!(dict.intern(&b), 0, "content dedup: written once per file");
        assert_eq!(dict.intern(&c), 1);
        assert_eq!(dict.entries().len(), 2);
        assert_eq!(dict.pending().len(), 2);
        dict.mark_flushed();
        assert!(dict.pending().is_empty());
    }

    #[test]
    fn dict_entries_round_trip() {
        let entries: Vec<Arc<str>> = vec![Arc::from("/a"), Arc::from("/b/c")];
        let mut payload = Vec::new();
        encode_dict_entries(&entries, &mut payload);
        let mut dict = Vec::new();
        decode_dict_entries(&payload, &mut dict).expect("decodes");
        assert_eq!(dict, entries);
    }

    #[test]
    fn unknown_tag_is_typed() {
        let payload = [0u8 /* index */, 1 /* ros */, 0 /* sched */, 0x7f, 0, 0];
        match decode_segment(&payload, &[]) {
            Err(CodecError::BadTag(0x7f)) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn dangling_topic_ref_is_typed() {
        let seg = sample_segment();
        let mut dict = TopicInterner::new();
        let mut payload = Vec::new();
        encode_segment(&seg, &mut dict, &mut payload);
        match decode_segment(&payload, &[]) {
            Err(CodecError::BadTopicRef(_)) => {}
            other => panic!("expected BadTopicRef, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_typed() {
        let seg = sample_segment();
        let mut dict = TopicInterner::new();
        let mut payload = Vec::new();
        encode_segment(&seg, &mut dict, &mut payload);
        let dict: Vec<Arc<str>> = dict.entries().to_vec();
        for cut in 1..payload.len() {
            let err = decode_segment(&payload[..cut], &dict)
                .expect_err("every proper prefix must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated | CodecError::BadVarint | CodecError::BadCount { .. }
                ),
                "prefix {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn absurd_count_is_rejected_before_allocating() {
        // index 0, claims 2^40 ROS events in a 3-byte payload.
        let mut payload = vec![0u8];
        rtms_util::varint::write_u64(&mut payload, 1 << 40);
        rtms_util::varint::write_u64(&mut payload, 0);
        match decode_segment(&payload, &[]) {
            Err(CodecError::BadCount { count, .. }) => assert_eq!(count, 1 << 40),
            other => panic!("expected BadCount, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let seg = sample_segment();
        let mut dict = TopicInterner::new();
        let mut payload = Vec::new();
        encode_segment(&seg, &mut dict, &mut payload);
        payload.push(0x00);
        let dict: Vec<Arc<str>> = dict.entries().to_vec();
        assert!(matches!(decode_segment(&payload, &dict), Err(CodecError::Truncated)));
    }

    #[test]
    fn slot_is_reused_and_a_cut_record_never_reaches_the_callback() {
        // Three records of one shape (same tag, same topic): the first two
        // differ in every per-record field, the third is cut off after its
        // topic reference, so only its source timestamp is missing.
        let topic = Topic::plain("/t");
        let take = |ms: u64, pid: u32, cb: u64, src: u64| {
            RosEvent::new(
                Nanos::from_nanos(ms),
                Pid::new(pid),
                RosPayload::TakeData {
                    callback: CallbackId::new(cb),
                    topic: topic.clone(),
                    src_ts: SourceTimestamp::new(src),
                },
            )
        };
        let (first, second) = (take(5, 3, 0x21, 40), take(9, 4, 0x22, 41));
        let encode = |events: &[RosEvent]| {
            let mut seg = Trace::new();
            for e in events {
                seg.push_ros(e.clone());
            }
            let mut dict = TopicInterner::new();
            let mut payload = Vec::new();
            encode_segment(&seg, &mut dict, &mut payload);
            (payload, dict.entries().to_vec())
        };
        let (two, _) = encode(&[first.clone(), second.clone()]);
        let (mut payload, dict) = encode(&[first.clone(), second.clone(), take(12, 5, 0x23, 42)]);
        // Every field of the third record is one byte: tag, time delta,
        // pid, callback, topic reference, source timestamp. The header has
        // the same length either way, so the third record starts where
        // the two-record payload ends.
        assert_eq!(payload.len(), two.len() + 6);
        payload.pop();

        let mut slots = DecodeSlots::new();
        let mut seen = Vec::new();
        let err = decode_segment_events(&payload, &dict, &mut slots, |e| match e {
            SegmentEvent::Ros(e) => seen.push(e.clone()),
            SegmentEvent::Sched(_) => unreachable!("no scheduler records"),
        })
        .expect_err("the third record is cut");
        assert!(matches!(err, CodecError::BadVarint), "got {err:?}");
        assert_eq!(seen, [first, second.clone()], "each record lent with its own fields");
        for e in &seen {
            let RosPayload::TakeData { topic, .. } = &e.payload else { unreachable!() };
            assert!(Arc::ptr_eq(topic.name_arc(), &dict[0]), "slot shares the dictionary entry");
        }
        let filled: Vec<&RosEvent> = slots.events.iter().flatten().collect();
        assert_eq!(filled, [&second], "one slot for the shape, untouched by the cut record");
        assert!(matches!(decode_segment(&payload, &dict), Err(CodecError::BadVarint)));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }
}
