//! Streaming replay of on-disk NCT trace files with bounded memory.
//!
//! [`FileTrace`] is the scalable counterpart of
//! [`RecordedTrace`](crate::recorded::RecordedTrace): instead of holding
//! every event in memory, it keeps one decoded block (at most
//! [`WRITER_BLOCK_EVENTS`](crate::nct::WRITER_BLOCK_EVENTS) events from
//! files this crate writes) plus per-block metadata, reading the rest
//! from the file as replay advances. Like `RecordedTrace`, replay wraps
//! back to the first event after the last, so a finite capture drives an
//! arbitrarily long simulation.
//!
//! The on-disk format is specified normatively in `TRACE_FORMAT.md`;
//! encoding primitives and the whole-file in-memory form live in
//! [`crate::nct`].

use crate::nct::{self, NctError, NctHeader};
use crate::trace::{TraceEvent, TraceSource};
use nocstar_types::{Asid, PageSize, VirtAddr};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Location and size of one validated block within the trace file.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// Absolute file offset of the block payload (past its header).
    payload_offset: u64,
    /// Payload byte length.
    payload_len: u32,
    /// Events encoded in the payload.
    events: u32,
}

/// One thread's stream of an NCT trace file, replayed as a
/// [`TraceSource`] with bounded memory.
///
/// [`open`](Self::open) fully validates the selected thread's section —
/// header, directory entry, frame table, every block's checksum and
/// event encoding — so replay itself cannot encounter malformed data.
/// Opening is `O(section bytes)` in time but `O(one block)` in memory.
///
/// # Examples
///
/// Capture 100 events from a live generator, round-trip them through an
/// on-disk NCT file, and replay them event-for-event:
///
/// ```
/// use nocstar_workloads::file_trace::FileTrace;
/// use nocstar_workloads::nct::NctFile;
/// use nocstar_workloads::preset::Preset;
/// use nocstar_workloads::recorded::RecordedTrace;
/// use nocstar_workloads::trace::TraceSource;
/// use nocstar_types::{Asid, ThreadId};
///
/// let spec = Preset::Redis.spec();
/// let mut live = spec.trace(Asid::new(1), ThreadId::new(0), 7, true);
/// let recorded = RecordedTrace::capture(&mut live, 100);
///
/// let path = std::env::temp_dir().join("nocstar_file_trace_doctest.nct");
/// NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
///     .unwrap()
///     .save(&path)
///     .unwrap();
///
/// let mut replay = FileTrace::open(&path, 0).unwrap();
/// assert_eq!(replay.asid(), Asid::new(1));
/// assert_eq!(replay.event_count(), 100);
/// for expected in recorded.events() {
///     assert_eq!(&replay.next_event(), expected);
/// }
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct FileTrace {
    path: PathBuf,
    file: File,
    asid: Asid,
    label: String,
    thread: u16,
    superpage_frames: BTreeSet<u64>,
    event_count: u64,
    blocks: Vec<BlockMeta>,
    /// Index into `blocks` of the currently decoded block.
    block_ix: usize,
    /// Decoded events of the current block.
    current: Vec<TraceEvent>,
    /// Next event to serve from `current`.
    cursor: usize,
}

impl FileTrace {
    /// Opens thread `thread` of the NCT file at `path`, validating that
    /// thread's entire section up front.
    ///
    /// # Errors
    ///
    /// Any structured [`NctError`]: I/O failure, bad magic, unsupported
    /// version, out-of-range thread index, truncated or corrupt section,
    /// or a block checksum mismatch.
    pub fn open(path: impl AsRef<Path>, thread: u16) -> Result<Self, NctError> {
        let path = path.as_ref().to_path_buf();
        let file =
            File::open(&path).map_err(|e| nct::io_err(&format!("open {}", path.display()), &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| nct::io_err(&format!("stat {}", path.display()), &e))?
            .len();
        let mut reader = BufReader::new(file);
        let header = NctHeader::read_from(&mut reader)?;
        if thread >= header.thread_count {
            return Err(NctError::BadThreadIndex {
                requested: thread,
                available: header.thread_count,
            });
        }

        // Directory entry for the requested thread.
        seek(&mut reader, header.dir_entry_offset(thread), &path)?;
        let mut entry = [0u8; nct::DIR_ENTRY_LEN];
        nct::read_exact(&mut reader, &mut entry, "thread directory entry")?;
        let mut word = [0u8; 8];
        word.copy_from_slice(&entry[0..8]);
        let section_offset = u64::from_le_bytes(word);
        word.copy_from_slice(&entry[8..16]);
        let section_len = u64::from_le_bytes(word);
        // Every allocation below is bounded by `section_len`, so check it
        // against the file before trusting it.
        if section_offset
            .checked_add(section_len)
            .is_none_or(|end| end > file_len)
        {
            return Err(NctError::Truncated(format!(
                "thread {thread} section extends past end of file"
            )));
        }

        // Validate the whole section with a one-block buffer, recording
        // where each payload lives for replay-time seeks.
        seek(&mut reader, section_offset, &path)?;
        let mut section = SectionReader {
            inner: &mut reader,
            consumed: 0,
            limit: section_len,
        };
        // Frame table and event count are varint-packed; read them
        // through a small bounded prefix buffer.
        let prefix = section.read_prefix()?;
        let mut pos = 0usize;
        let superpage_frames = nct::decode_frame_table(&prefix, &mut pos, thread)?;
        let event_count = nct::read_uvarint(&prefix, &mut pos)?;
        section.rewind_to(pos)?;
        drop(prefix);
        if event_count == 0 {
            return Err(NctError::Corrupt(format!(
                "thread {thread} has zero events"
            )));
        }

        let mut blocks = Vec::new();
        let mut seen: u64 = 0;
        let mut payload = Vec::new();
        while seen < event_count {
            let block_ix = blocks.len();
            let meta = section.read_block(section_offset, &mut payload, thread, block_ix)?;
            if seen + u64::from(meta.events) > event_count {
                return Err(NctError::Corrupt(format!(
                    "thread {thread} blocks hold more events than the declared {event_count}"
                )));
            }
            // Decode (and discard) to prove the payload is well-formed
            // before the simulator ever depends on it.
            nct::decode_block(&payload, meta.events as usize)?;
            seen += u64::from(meta.events);
            blocks.push(meta);
        }
        if section.consumed != section.limit {
            return Err(NctError::Corrupt(format!(
                "thread {thread} section has {} trailing byte(s)",
                section.limit - section.consumed
            )));
        }

        let mut trace = Self {
            path,
            file: reader.into_inner(),
            asid: header.asid,
            label: header.label,
            thread,
            superpage_frames,
            event_count,
            blocks,
            block_ix: 0,
            current: Vec::new(),
            cursor: 0,
        };
        trace.load_block(0)?;
        Ok(trace)
    }

    /// The workload label stored in the file header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The thread stream this trace replays.
    pub fn thread(&self) -> u16 {
        self.thread
    }

    /// Total events in this thread's stream (replay loops past the end).
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Reads and decodes block `ix` into `self.current`.
    fn load_block(&mut self, ix: usize) -> Result<(), NctError> {
        let meta = self.blocks[ix];
        self.file
            .seek(SeekFrom::Start(meta.payload_offset))
            .map_err(|e| nct::io_err("seek to block payload", &e))?;
        let mut payload = vec![0u8; meta.payload_len as usize];
        nct::read_exact(&mut self.file, &mut payload, "block payload")?;
        // The section was validated at open; a failure here means the
        // file changed underneath us, which load_block's callers treat
        // as fatal.
        self.current = nct::decode_block(&payload, meta.events as usize)?;
        self.block_ix = ix;
        self.cursor = 0;
        Ok(())
    }
}

impl TraceSource for FileTrace {
    /// The next event, wrapping to the first block after the last.
    ///
    /// # Panics
    ///
    /// Panics only if the underlying file is truncated or rewritten
    /// *between* [`open`](Self::open) and replay — every static defect is
    /// caught at open time with a structured [`NctError`]. A trace file
    /// must stay immutable while a simulation replays it.
    fn next_event(&mut self) -> TraceEvent {
        if self.cursor == self.current.len() {
            let next = (self.block_ix + 1) % self.blocks.len();
            if let Err(e) = self.load_block(next) {
                panic!(
                    "NCT trace {} (thread {}) changed during replay: {e}",
                    self.path.display(),
                    self.thread
                );
            }
        }
        let event = self.current[self.cursor];
        self.cursor += 1;
        event
    }

    fn backing(&self, va: VirtAddr) -> PageSize {
        if self.superpage_frames.contains(&(va.value() >> 21)) {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        }
    }

    fn asid(&self) -> Asid {
        self.asid
    }
}

/// Seeks a buffered reader to an absolute offset with NCT error mapping.
fn seek(reader: &mut BufReader<File>, to: u64, path: &Path) -> Result<(), NctError> {
    reader
        .seek(SeekFrom::Start(to))
        .map(|_| ())
        .map_err(|e| nct::io_err(&format!("seek in {}", path.display()), &e))
}

/// A bounded view over one thread section that tracks consumption
/// against the directory's declared length.
struct SectionReader<'a> {
    inner: &'a mut BufReader<File>,
    consumed: u64,
    limit: u64,
}

/// Upper bound on the frame-table + event-count prefix read speculatively
/// at open: enough for one million delta-coded superpage frames.
const PREFIX_CAP: u64 = 4 << 20;

impl SectionReader<'_> {
    /// Reads the section's varint-packed prefix (frame table and event
    /// count) into memory, up to `PREFIX_CAP` or the section end.
    fn read_prefix(&mut self) -> Result<Vec<u8>, NctError> {
        let want = self.limit.min(PREFIX_CAP);
        let mut buf = vec![0u8; want as usize];
        nct::read_exact(self.inner, &mut buf, "thread section prefix")?;
        Ok(buf)
    }

    /// Positions the reader just past the `pos`-byte prefix actually
    /// consumed by the frame-table decode.
    fn rewind_to(&mut self, pos: usize) -> Result<(), NctError> {
        let overshoot = self.limit.min(PREFIX_CAP) - pos as u64;
        self.inner
            .seek_relative(-(overshoot as i64))
            .map_err(|e| nct::io_err("rewind past section prefix", &e))?;
        self.consumed = pos as u64;
        Ok(())
    }

    /// Reads and checksums the next block, returning its metadata and
    /// leaving the payload in `payload`.
    fn read_block(
        &mut self,
        section_offset: u64,
        payload: &mut Vec<u8>,
        thread: u16,
        block: usize,
    ) -> Result<BlockMeta, NctError> {
        if self.consumed + nct::BLOCK_HEADER_LEN as u64 > self.limit {
            return Err(NctError::Truncated(format!(
                "thread {thread} block {block} header ends early"
            )));
        }
        let mut header = [0u8; nct::BLOCK_HEADER_LEN];
        nct::read_exact(self.inner, &mut header, "block header")?;
        self.consumed += nct::BLOCK_HEADER_LEN as u64;
        let payload_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let events = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&header[8..16]);
        let checksum = u64::from_le_bytes(sum);
        if payload_len == 0 || events == 0 {
            return Err(NctError::Corrupt(format!(
                "thread {thread} block {block} declares an empty payload or zero events"
            )));
        }
        if self.consumed + u64::from(payload_len) > self.limit {
            return Err(NctError::Truncated(format!(
                "thread {thread} block {block} payload ends early"
            )));
        }
        let payload_offset = section_offset + self.consumed;
        payload.clear();
        payload.resize(payload_len as usize, 0);
        nct::read_exact(self.inner, payload, "block payload")?;
        self.consumed += u64::from(payload_len);
        if nct::fnv1a64(payload) != checksum {
            return Err(NctError::ChecksumMismatch { thread, block });
        }
        Ok(BlockMeta {
            payload_offset,
            payload_len,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nct::NctFile;
    use crate::preset::Preset;
    use crate::recorded::RecordedTrace;
    use nocstar_types::ThreadId;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nocstar_file_trace_{}_{name}", std::process::id()))
    }

    fn capture(preset: Preset, thread: usize, count: usize) -> RecordedTrace {
        let mut live = preset
            .spec()
            .trace(Asid::new(1), ThreadId::new(thread), 42, true);
        RecordedTrace::capture(&mut live, count)
    }

    #[test]
    fn replays_event_for_event_and_loops() {
        let recorded = capture(Preset::Redis, 0, 250);
        let path = scratch("loop.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut replay = FileTrace::open(&path, 0).unwrap();
        assert_eq!(replay.label(), "redis");
        assert_eq!(replay.event_count(), 250);
        // Two full passes: the second must repeat the first (wrap).
        for pass in 0..2 {
            for (i, expected) in recorded.events().iter().enumerate() {
                assert_eq!(&replay.next_event(), expected, "pass {pass}, event {i}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multi_block_streams_replay_in_order() {
        // More events than one writer block, so replay crosses block
        // boundaries and wraps from the last block to the first.
        let count = crate::nct::WRITER_BLOCK_EVENTS + 100;
        let recorded = capture(Preset::Gups, 0, count);
        let path = scratch("multiblock.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "gups")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut replay = FileTrace::open(&path, 0).unwrap();
        for expected in recorded.events() {
            assert_eq!(&replay.next_event(), expected);
        }
        // Wrap: next event is the first again.
        assert_eq!(replay.next_event(), recorded.events()[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn backing_matches_recorded_trace() {
        let recorded = capture(Preset::MongoDb, 1, 2_000);
        let path = scratch("backing.nct");
        NctFile::from_recorded(std::slice::from_ref(&recorded), "mongodb")
            .unwrap()
            .save(&path)
            .unwrap();
        let replay = FileTrace::open(&path, 0).unwrap();
        for event in recorded.events() {
            if let TraceEvent::Access(a) = event {
                assert_eq!(replay.backing(a.va), recorded.backing(a.va));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn second_thread_stream_is_independent() {
        let t0 = capture(Preset::Canneal, 0, 120);
        let t1 = capture(Preset::Canneal, 1, 120);
        let path = scratch("threads.nct");
        NctFile::from_recorded(&[t0.clone(), t1.clone()], "canneal")
            .unwrap()
            .save(&path)
            .unwrap();
        let mut r1 = FileTrace::open(&path, 1).unwrap();
        assert_eq!(r1.thread(), 1);
        for expected in t1.events() {
            assert_eq!(&r1.next_event(), expected);
        }
        assert!(matches!(
            FileTrace::open(&path, 2),
            Err(NctError::BadThreadIndex {
                requested: 2,
                available: 2
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_missing_and_truncated_files() {
        assert!(matches!(
            FileTrace::open(scratch("does_not_exist.nct"), 0),
            Err(NctError::Io(_))
        ));
        let recorded = capture(Preset::Redis, 0, 50);
        let path = scratch("truncated.nct");
        let mut bytes = NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .to_bytes();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTrace::open(&path, 0),
            Err(NctError::Truncated(_) | NctError::Io(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_payloads() {
        let recorded = capture(Preset::Redis, 0, 50);
        let path = scratch("corrupt.nct");
        let mut bytes = NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTrace::open(&path, 0),
            Err(NctError::ChecksumMismatch {
                thread: 0,
                block: 0
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_a_section_longer_than_the_file() {
        let recorded = capture(Preset::Redis, 0, 50);
        let path = scratch("long_section.nct");
        let mut bytes = NctFile::from_recorded(std::slice::from_ref(&recorded), "redis")
            .unwrap()
            .to_bytes();
        // Thread 0's directory entry claims a huge section, and its first
        // block claims a ~4 GiB payload inside it.
        let entry = nct::HEADER_LEN + "redis".len();
        let section = u64::from_le_bytes(bytes[entry..entry + 8].try_into().unwrap()) as usize;
        bytes[entry + 8..entry + 16].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
        let mut pos = section;
        nct::decode_frame_table(&bytes, &mut pos, 0).unwrap();
        nct::read_uvarint(&bytes, &mut pos).unwrap();
        bytes[pos..pos + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileTrace::open(&path, 0),
            Err(NctError::Truncated(msg)) if msg.contains("past end of file")
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
