//! File-backed trace storage — the "trace database" of Fig. 2.
//!
//! [`SegmentWriter`] and [`SegmentReader`] form the compact binary
//! segment-file container built on [`crate::codec`]: one file per run,
//! topic names written once through the interning dictionary, every frame
//! length-prefixed and CRC-32-checked, closed by an index frame and a
//! fixed trailer. The reader streams the file front to back and treats
//! the index frame as its clean end. This is the record-once-replay-many
//! format (`docs/TRACE_FORMAT.md`): a `Ros2World` records each collected
//! segment straight to disk, and a synthesis session can replay straight
//! from the reader at far beyond collection speed.

use crate::codec::{self, CodecError, DecodeSlots, TopicInterner};
use crate::cursor::SegmentEvent;
use crate::trace::Trace;
use serde::Serialize;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: the first eight bytes of every segment file.
pub const SEGMENT_FILE_MAGIC: [u8; 8] = *b"RTMS-SEG";
/// Trailer magic: the last eight bytes of a finished segment file.
pub const SEGMENT_TRAILER_MAGIC: [u8; 8] = *b"RTMS-IDX";
/// Current format version. Readers reject newer versions; see
/// `docs/TRACE_FORMAT.md` for the versioning rules.
pub const SEGMENT_FILE_VERSION: u16 = 1;

/// Hard cap on a frame payload. Real segment frames are a few hundred KB;
/// the cap exists so a corrupt length field cannot balloon an allocation.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const FRAME_DICT: u8 = 1;
const FRAME_SEGMENT: u8 = 2;
const FRAME_INDEX: u8 = 3;
const FRAME_META: u8 = 4;

/// The frame checksum: CRC-32 chained over the kind byte, the
/// little-endian length field, and the payload. Covering the header too
/// means a flipped bit that re-routes a frame (kind) or re-sizes it
/// (length) fails the checksum just like payload corruption does.
fn frame_crc(kind: u8, len: u32, payload: &[u8]) -> u32 {
    let state = codec::crc32_update(u32::MAX, &[kind]);
    let state = codec::crc32_update(state, &len.to_le_bytes());
    !codec::crc32_update(state, payload)
}

/// Byte size of the fixed trailer: index offset (u64 LE) + trailer magic.
const TRAILER_LEN: u64 = 16;

/// One index entry: where a segment frame lives and what it holds.
#[derive(Debug)]
struct SegmentIndexEntry {
    /// Byte offset of the frame's kind byte from the start of the file.
    offset: u64,
    /// The segment's run index (as written by the producer).
    segment_index: u64,
    /// Total events (both streams) in the segment.
    events: u64,
}

/// Summary statistics returned by [`SegmentWriter::finish`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SegmentFileStats {
    /// Number of segment frames written.
    pub segments: usize,
    /// Total events across all segments.
    pub events: u64,
    /// Total file size in bytes, header to trailer.
    pub bytes: u64,
    /// Number of distinct topic names in the dictionary.
    pub topics: usize,
}

/// Streaming writer for the binary segment-file container.
///
/// [`SegmentWriter::write_segment`] stores an already-collected segment
/// verbatim — what `Ros2World::record_segments` calls once per
/// stop/store/restart cycle. Call [`SegmentWriter::finish`] to write the
/// index frame and trailer — a file without them is treated as truncated
/// by readers.
///
/// # Example
///
/// ```
/// use rtms_trace::{SegmentReader, SegmentWriter, Trace};
///
/// let mut writer = SegmentWriter::new(Vec::new())?;
/// writer.write_segment(&Trace::with_index(4))?;
/// let (file, stats) = writer.finish()?;
/// assert_eq!(stats.segments, 1);
/// let mut reader = SegmentReader::new(file.as_slice())?;
/// let mut segment = Trace::new();
/// assert!(reader.read_segment_into(&mut segment)?);
/// assert_eq!(segment.index(), 4);
/// assert!(!reader.read_segment_into(&mut segment)?);
/// # Ok::<(), rtms_trace::CodecError>(())
/// ```
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    inner: W,
    dict: TopicInterner,
    scratch: Vec<u8>,
    offset: u64,
    dict_offsets: Vec<u64>,
    entries: Vec<SegmentIndexEntry>,
    events: u64,
    meta_written: bool,
}

impl SegmentWriter<io::BufWriter<fs::File>> {
    /// Creates a segment file at `path` (truncating any existing file).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or the header
    /// cannot be written.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        SegmentWriter::new(io::BufWriter::new(fs::File::create(path)?))
    }
}

impl<W: Write> SegmentWriter<W> {
    /// Wraps a byte sink and writes the file header.
    ///
    /// # Errors
    ///
    /// Returns an error if the header cannot be written.
    pub fn new(mut inner: W) -> Result<Self, CodecError> {
        inner.write_all(&SEGMENT_FILE_MAGIC)?;
        inner.write_all(&SEGMENT_FILE_VERSION.to_le_bytes())?;
        inner.write_all(&0u16.to_le_bytes())?; // reserved
        Ok(SegmentWriter {
            inner,
            dict: TopicInterner::new(),
            scratch: Vec::new(),
            offset: 12,
            dict_offsets: Vec::new(),
            entries: Vec::new(),
            events: 0,
            meta_written: false,
        })
    }

    /// Attaches a free-form UTF-8 metadata blob (conventionally JSON
    /// describing how the trace was produced — see the `record`
    /// experiment binary). At most one per file.
    ///
    /// # Errors
    ///
    /// Returns an error if called twice, or on write failure.
    pub fn set_meta(&mut self, meta: &str) -> Result<(), CodecError> {
        if self.meta_written {
            return Err(CodecError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "meta frame already written",
            )));
        }
        self.meta_written = true;
        self.write_frame(FRAME_META, meta.as_bytes().to_vec())
    }

    /// Stores one segment verbatim, preceded (if needed) by a dictionary
    /// frame holding any topic names this segment introduces.
    ///
    /// # Errors
    ///
    /// Returns an error on write failure.
    pub fn write_segment(&mut self, segment: &Trace) -> Result<(), CodecError> {
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        codec::encode_segment(segment, &mut self.dict, &mut payload);
        if !self.dict.pending().is_empty() {
            let mut dict_payload = Vec::new();
            codec::encode_dict_entries(self.dict.pending(), &mut dict_payload);
            self.dict.mark_flushed();
            self.dict_offsets.push(self.offset);
            self.write_frame(FRAME_DICT, dict_payload)?;
        }
        self.entries.push(SegmentIndexEntry {
            offset: self.offset,
            segment_index: segment.index() as u64,
            events: segment.len() as u64,
        });
        self.events += segment.len() as u64;
        // `write_frame` hands segment payload buffers back to `scratch`,
        // so steady-state recording reuses one encode buffer.
        self.write_frame(FRAME_SEGMENT, payload)
    }

    /// Writes the index frame and trailer, flushes, and returns the inner
    /// writer with the file statistics.
    ///
    /// # Errors
    ///
    /// Returns an error on write failure.
    pub fn finish(mut self) -> Result<(W, SegmentFileStats), CodecError> {
        let index_offset = self.offset;
        let mut payload = Vec::new();
        rtms_util::varint::write_u64(&mut payload, self.dict_offsets.len() as u64);
        for &off in &self.dict_offsets {
            rtms_util::varint::write_u64(&mut payload, off);
        }
        rtms_util::varint::write_u64(&mut payload, self.entries.len() as u64);
        for e in &self.entries {
            rtms_util::varint::write_u64(&mut payload, e.offset);
            rtms_util::varint::write_u64(&mut payload, e.segment_index);
            rtms_util::varint::write_u64(&mut payload, e.events);
        }
        self.write_frame(FRAME_INDEX, payload)?;
        self.inner.write_all(&index_offset.to_le_bytes())?;
        self.inner.write_all(&SEGMENT_TRAILER_MAGIC)?;
        self.offset += TRAILER_LEN;
        self.inner.flush()?;
        let stats = SegmentFileStats {
            segments: self.entries.len(),
            events: self.events,
            bytes: self.offset,
            topics: self.dict.entries().len(),
        };
        Ok((self.inner, stats))
    }

    fn write_frame(&mut self, kind: u8, payload: Vec<u8>) -> Result<(), CodecError> {
        let len = u32::try_from(payload.len()).map_err(|_| CodecError::BadLength {
            len: payload.len() as u64,
            max: u64::from(MAX_FRAME_LEN),
        })?;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::BadLength { len: u64::from(len), max: u64::from(MAX_FRAME_LEN) });
        }
        self.inner.write_all(&[kind])?;
        self.inner.write_all(&len.to_le_bytes())?;
        self.inner.write_all(&payload)?;
        self.inner.write_all(&frame_crc(kind, len, &payload).to_le_bytes())?;
        self.offset += 1 + 4 + u64::from(len) + 4;
        if kind == FRAME_SEGMENT {
            self.scratch = payload;
        }
        Ok(())
    }
}

/// Sequential reader for the binary segment-file container: yields the
/// stored segments in file order, maintaining the topic dictionary as
/// dictionary frames stream past.
///
/// The reader is strict: every frame's CRC is verified, and reaching
/// end-of-input without the index frame is an error
/// ([`CodecError::MissingIndex`]) — per-frame checksums cannot catch a
/// file truncated exactly at a frame boundary, the missing index frame
/// can. The trailer after the index frame is never read.
#[derive(Debug)]
pub struct SegmentReader<R: Read> {
    inner: R,
    dict: Vec<Arc<str>>,
    /// Decode targets for topic-carrying records, one per (tag, dictionary
    /// reference) seen in this file.
    slots: DecodeSlots,
    payload: Vec<u8>,
    meta: Option<String>,
    finished: bool,
}

impl SegmentReader<io::BufReader<fs::File>> {
    /// Opens a segment file for sequential reading.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or its header is not
    /// a supported segment-file header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CodecError> {
        SegmentReader::new(io::BufReader::new(fs::File::open(path)?))
    }
}

impl<R: Read> SegmentReader<R> {
    /// Wraps a byte source and validates the file header.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadMagic`] /
    /// [`CodecError::UnsupportedVersion`] for foreign input, or an I/O
    /// error.
    pub fn new(mut inner: R) -> Result<Self, CodecError> {
        let mut header = [0u8; 12];
        inner
            .read_exact(&mut header)
            .map_err(|e| map_eof(e, CodecError::BadMagic))?;
        if header[..8] != SEGMENT_FILE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != SEGMENT_FILE_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        Ok(SegmentReader {
            inner,
            dict: Vec::new(),
            slots: DecodeSlots::new(),
            payload: Vec::new(),
            meta: None,
            finished: false,
        })
    }

    /// The metadata blob, if a meta frame has streamed past yet.
    pub fn meta(&self) -> Option<&str> {
        self.meta.as_deref()
    }

    /// The topic dictionary accumulated so far.
    pub fn topics(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Reads the next stored segment into an existing buffer, returning
    /// `false` (leaving the buffer cleared) after the index frame. One
    /// segment allocation serves the whole file.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] on any corruption, truncation, or
    /// I/O failure.
    pub fn read_segment_into(&mut self, segment: &mut Trace) -> Result<bool, CodecError> {
        segment.clear();
        let read = self.next_segment_events(|event| match event {
            SegmentEvent::Ros(e) => segment.push_ros(e.clone()),
            SegmentEvent::Sched(e) => segment.push_sched(e.clone()),
        })?;
        let Some((index, _)) = read else { return Ok(false) };
        segment.set_index(index);
        Ok(true)
    }

    /// Streams the next segment's events into `f`, in on-disk (merged
    /// chronological) order, without materializing a [`Trace`] —
    /// the fused decode path `SynthesisSession::feed_reader` replays
    /// through. Each record is *lent* to `f` from the reader's reusable
    /// decode slots ([`codec::decode_segment_events`]), so `f` clones
    /// what it keeps. Returns the segment's `(run_index, event_count)`,
    /// or `None` once the index frame is reached.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`SegmentReader::read_segment_into`]; events
    /// already handed to `f` before a mid-frame decode error stay
    /// delivered.
    pub fn next_segment_events<F: FnMut(SegmentEvent<'_>)>(
        &mut self,
        f: F,
    ) -> Result<Option<(usize, usize)>, CodecError> {
        if self.finished {
            return Ok(None);
        }
        loop {
            let (kind, payload_len) = self.read_frame()?;
            let payload = &self.payload[..payload_len];
            match kind {
                FRAME_DICT => codec::decode_dict_entries(payload, &mut self.dict)?,
                FRAME_META => {
                    let text =
                        std::str::from_utf8(payload).map_err(|_| CodecError::BadUtf8)?;
                    self.meta = Some(text.to_string());
                }
                FRAME_SEGMENT => {
                    return codec::decode_segment_events(payload, &self.dict, &mut self.slots, f)
                        .map(Some);
                }
                FRAME_INDEX => {
                    self.finished = true;
                    return Ok(None);
                }
                k => return Err(CodecError::BadFrameKind(k)),
            }
        }
    }

    /// Reads one frame into `self.payload`, verifying length cap and CRC.
    /// Returns the frame kind and payload length.
    fn read_frame(&mut self) -> Result<(u8, usize), CodecError> {
        let mut kind = [0u8; 1];
        self.inner
            .read_exact(&mut kind)
            .map_err(|e| map_eof(e, CodecError::MissingIndex))?;
        let mut len_bytes = [0u8; 4];
        self.inner
            .read_exact(&mut len_bytes)
            .map_err(|e| map_eof(e, CodecError::Truncated))?;
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(CodecError::BadLength { len: u64::from(len), max: u64::from(MAX_FRAME_LEN) });
        }
        // `take` + `read_to_end` grows the buffer only as bytes actually
        // arrive, so a corrupt length cannot force a huge allocation.
        self.payload.clear();
        let got = self
            .inner
            .by_ref()
            .take(u64::from(len))
            .read_to_end(&mut self.payload)?;
        if got < len as usize {
            return Err(CodecError::Truncated);
        }
        let mut crc_bytes = [0u8; 4];
        self.inner
            .read_exact(&mut crc_bytes)
            .map_err(|e| map_eof(e, CodecError::Truncated))?;
        if frame_crc(kind[0], len, &self.payload) != u32::from_le_bytes(crc_bytes) {
            return Err(CodecError::ChecksumMismatch);
        }
        Ok((kind[0], len as usize))
    }
}

fn map_eof(e: io::Error, at_boundary: CodecError) -> CodecError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        at_boundary
    } else {
        CodecError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RosPayload;
    use crate::ids::Pid;
    use crate::time::Nanos;
    use crate::RosEvent;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rtms-trace-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    use crate::ids::{CallbackId, Cpu, Priority};
    use crate::sched_event::ThreadState;
    use crate::topic::{SourceTimestamp, Topic};
    use crate::SchedEvent;

    fn sample_segment(index: usize, base: u64) -> Trace {
        let mut seg = Trace::with_index(index);
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(base),
            Pid::new(7),
            RosPayload::DdsWrite {
                topic: Topic::plain("/lidar/points"),
                src_ts: SourceTimestamp::new(base + 1),
            },
        ));
        seg.push_ros(RosEvent::new(
            Nanos::from_nanos(base + 2),
            Pid::new(7),
            RosPayload::TakeData {
                callback: CallbackId::new(0x2a),
                topic: Topic::plain("/lidar/points"),
                src_ts: SourceTimestamp::new(base + 1),
            },
        ));
        seg.push_sched(SchedEvent::switch(
            Nanos::from_nanos(base + 1),
            Cpu::new(0),
            Pid::new(7),
            Priority::NORMAL,
            ThreadState::Runnable,
            Pid::new(8),
            Priority::NORMAL,
        ));
        seg
    }

    fn sample_file(segments: usize) -> Vec<u8> {
        let mut writer = SegmentWriter::new(Vec::new()).expect("header");
        for i in 0..segments {
            writer.write_segment(&sample_segment(i, (i as u64 + 1) * 100)).expect("segment");
        }
        writer.finish().expect("finish").0
    }

    #[test]
    fn binary_file_round_trips_segments_in_order() {
        let bytes = sample_file(3);
        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        let mut seg = Trace::new();
        for i in 0..3 {
            assert!(reader.read_segment_into(&mut seg).expect("read"));
            assert_eq!(seg, sample_segment(i, (i as u64 + 1) * 100));
        }
        assert!(!reader.read_segment_into(&mut seg).expect("read"));
        // After the index frame the reader stays finished.
        assert!(!reader.read_segment_into(&mut seg).expect("read"));
    }

    #[test]
    fn reader_yields_every_segment_the_stats_count() {
        let mut writer = SegmentWriter::new(Vec::new()).expect("header");
        for i in 0..4 {
            writer.write_segment(&sample_segment(i, (i as u64 + 1) * 100)).expect("segment");
        }
        let (bytes, stats) = writer.finish().expect("finish");
        assert_eq!(stats.bytes, bytes.len() as u64);
        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        let mut seg = Trace::new();
        let (mut segments, mut events) = (0, 0);
        while reader.read_segment_into(&mut seg).expect("decode") {
            segments += 1;
            events += seg.len() as u64;
        }
        assert_eq!((segments, events), (stats.segments, stats.events));
        assert_eq!(segments, 4);
    }

    #[test]
    fn reused_segment_buffer_is_fully_overwritten() {
        let bytes = sample_file(2);
        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        let mut reused = Trace::with_index(99);
        reused.push_ros(RosEvent::new(
            Nanos::from_nanos(1),
            Pid::new(1),
            RosPayload::SyncSubscribe,
        ));
        for i in 0..2 {
            assert!(reader.read_segment_into(&mut reused).expect("read"));
            assert_eq!(
                reused,
                sample_segment(i, (i as u64 + 1) * 100),
                "stale contents must not survive"
            );
        }
        assert!(!reader.read_segment_into(&mut reused).expect("read"));
        assert!(reused.is_empty(), "the index frame leaves the buffer cleared");
    }

    #[test]
    fn topic_dictionary_is_written_once_and_shared_on_decode() {
        let bytes = sample_file(3);
        // The topic string appears exactly once in the whole file.
        let needle = b"/lidar/points";
        let hits = bytes.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(hits, 1, "topic name must be interned across segments");

        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        let (mut a, mut b) = (Trace::new(), Trace::new());
        assert!(reader.read_segment_into(&mut a).expect("seg 0"));
        assert!(reader.read_segment_into(&mut b).expect("seg 1"));
        let arc_of = |seg: &Trace| match &seg.ros_events()[0].payload {
            RosPayload::DdsWrite { topic, .. } => Arc::clone(topic.name_arc()),
            other => panic!("unexpected payload {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&arc_of(&a), &arc_of(&b)),
            "decoded topics must share one allocation across segments"
        );
    }

    #[test]
    fn meta_frame_round_trips() {
        let mut writer = SegmentWriter::new(Vec::new()).expect("header");
        writer.set_meta("{\"apps\":2}").expect("meta");
        assert!(writer.set_meta("twice").is_err(), "at most one meta frame");
        writer.write_segment(&sample_segment(0, 10)).expect("segment");
        let (bytes, _) = writer.finish().expect("finish");
        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.meta(), None, "meta not visible before its frame streams past");
        assert!(reader.read_segment_into(&mut Trace::new()).expect("seg"));
        assert_eq!(reader.meta(), Some("{\"apps\":2}"));
    }

    #[test]
    fn boundary_truncation_is_missing_index() {
        let bytes = sample_file(2);
        // Cut the file right after the last segment frame: every frame left
        // is intact, so only the missing index frame betrays the loss. The
        // trailer holds the index frame's offset.
        let idx =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        let cut = &bytes[..idx as usize];
        let mut reader = SegmentReader::new(cut).expect("header");
        let mut seg = Trace::new();
        loop {
            match reader.read_segment_into(&mut seg) {
                Ok(true) => continue,
                Ok(false) => panic!("truncated file must not read to a clean end"),
                Err(CodecError::MissingIndex) => return,
                Err(other) => panic!("expected MissingIndex, got {other:?}"),
            }
        }
    }

    #[test]
    fn mid_frame_truncation_is_typed() {
        let bytes = sample_file(1);
        let cut = &bytes[..bytes.len() - 20];
        let mut reader = SegmentReader::new(cut).expect("header");
        let mut seg = Trace::new();
        let err = loop {
            match reader.read_segment_into(&mut seg) {
                Ok(true) => continue,
                Ok(false) => panic!("must not finish cleanly"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, CodecError::Truncated | CodecError::MissingIndex),
            "got {err:?}"
        );
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let mut bytes = sample_file(1);
        // Flip the first payload byte of the first frame: the 12-byte
        // header is followed by kind (1) + length (4), so the payload
        // starts at byte 17.
        bytes[17] ^= 0xff;
        let mut reader = SegmentReader::new(bytes.as_slice()).expect("header");
        let mut seg = Trace::new();
        let err = loop {
            match reader.read_segment_into(&mut seg) {
                Ok(true) => continue,
                Ok(false) => panic!("corrupt file must not read cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, CodecError::ChecksumMismatch), "got {err:?}");
    }

    #[test]
    fn foreign_files_are_rejected() {
        assert!(matches!(SegmentReader::new(&b"not a seg"[..]), Err(CodecError::BadMagic)));
        assert!(matches!(SegmentReader::new(&b""[..]), Err(CodecError::BadMagic)));
        let mut bytes = sample_file(1);
        bytes[8] = 0xff; // version 0xsomething
        match SegmentReader::new(bytes.as_slice()) {
            Err(CodecError::UnsupportedVersion(v)) => assert_eq!(v, 0x00ff),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn file_backed_round_trip() {
        let root = tmp_root("binary");
        fs::create_dir_all(&root).expect("mkdir");
        let path = root.join("run.seg");
        let mut writer = SegmentWriter::create(&path).expect("create");
        writer.write_segment(&sample_segment(0, 10)).expect("segment");
        let (_, stats) = writer.finish().expect("finish");
        assert_eq!(stats.bytes, fs::metadata(&path).expect("stat").len());

        let mut reader = SegmentReader::open(&path).expect("open");
        let mut seg = Trace::new();
        assert!(reader.read_segment_into(&mut seg).expect("seg"));
        assert_eq!(seg, sample_segment(0, 10));
        let _ = fs::remove_dir_all(&root);
    }
}
