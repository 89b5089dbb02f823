//! End-to-end tests for the NCT trace subsystem (`TRACE_FORMAT.md`):
//!
//! * the headline guarantee — replaying a captured trace through
//!   `WorkloadAssignment::from_trace_file` reproduces the live-generator
//!   run's `SimReport` byte-for-byte;
//! * a property-based encode/decode round-trip over randomized streams;
//! * structured (panic-free) errors on missing, truncated, bad-magic and
//!   checksum-corrupted files, and properties feeding arbitrary bytes and
//!   mutated files with re-fixed checksums to both decoders;
//! * the golden fixture `tests/golden/example.nct`, pinned three ways:
//!   against the in-code encoder, against the worked hex dump embedded in
//!   `TRACE_FORMAT.md` §6, and against a golden replay report
//!   (`tests/golden/replay_example.json`).
//!
//! Bless intentional format or timing changes with
//! `UPDATE_GOLDEN=1 cargo test --test trace_replay` and review the diff.

use nocstar::prelude::*;
use nocstar::types::VirtPageNum;
use nocstar::workloads::nct::{self, NctFile, NctHeader, ThreadStream};
use nocstar::workloads::trace::{MemAccess, TraceEvent, TraceSource};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const CORES: usize = 4;
const WARMUP: u64 = 200;
const MEASURE: u64 = 500;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn pretty_report(report: &SimReport) -> String {
    let mut text = report.to_json().to_string_pretty();
    text.push('\n');
    text
}

/// The headline acceptance test: a trace captured from the Redis preset
/// with the simulator's defaults (ASID 1, seed 0xcafe, THP on), replayed
/// through `from_trace_file`, produces a byte-identical report to the
/// live-generator run with the same configuration.
#[test]
fn replaying_a_captured_trace_is_byte_identical_to_the_live_run() {
    let config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    let live = Simulation::new(config, WorkloadAssignment::preset(&config, Preset::Redis))
        .run_measured(WARMUP, MEASURE);

    // Capture more events per thread than the run consumes (warmup +
    // measure accesses plus the occasional remap) so replay never wraps.
    let spec = Preset::Redis.spec();
    let traces: Vec<RecordedTrace> = (0..config.threads())
        .map(|t| {
            let mut src = spec.trace(Asid::new(1), ThreadId::new(t), config.seed, config.thp);
            RecordedTrace::capture(&mut src, 1_200)
        })
        .collect();
    let path = scratch("redis_equivalence.nct");
    NctFile::from_recorded(&traces, "redis")
        .expect("assemble")
        .save(&path)
        .expect("save");

    let replayed = Simulation::new(
        config,
        WorkloadAssignment::from_trace_file(&config, &path).expect("open trace"),
    )
    .run_measured(WARMUP, MEASURE);

    assert_eq!(
        pretty_report(&live),
        pretty_report(&replayed),
        "replay of a captured trace must reproduce the live run exactly"
    );
}

/// Builds a deterministic but irregular event stream from a seed, hitting
/// every event kind and delta sign.
fn synth_events(seed: u64, n: usize) -> (Vec<TraceEvent>, BTreeSet<u64>) {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64* — plenty for test-case diversity.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut frames = BTreeSet::new();
    let events = (0..n)
        .map(|_| match next() % 10 {
            0 => TraceEvent::ContextSwitch,
            1 => TraceEvent::Remap(VirtPageNum::new(next() >> 12, PageSize::Size4K)),
            2 => TraceEvent::Promote(VirtPageNum::new(next() >> 43, PageSize::Size2M)),
            3 => TraceEvent::Demote(VirtPageNum::new(next() >> 43, PageSize::Size2M)),
            _ => {
                let va = next();
                if next() % 3 == 0 {
                    frames.insert(va >> 21);
                }
                TraceEvent::Access(MemAccess {
                    va: VirtAddr::new(va),
                    is_write: next() % 2 == 0,
                    gap: Cycles::new(next() % 64),
                })
            }
        })
        .collect();
    (events, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary multi-thread streams survive an encode/decode round trip
    /// exactly: events, frame tables, ASID and label all come back.
    #[test]
    fn prop_nct_round_trips(seed in any::<u64>(), n in 1usize..600, threads in 1usize..4,
                            asid in 1u16..100) {
        let streams: Vec<ThreadStream> = (0..threads)
            .map(|t| {
                let (events, superpage_frames) = synth_events(seed ^ (t as u64) << 32, n);
                ThreadStream { superpage_frames, events }
            })
            .collect();
        let original = NctFile::new(Asid::new(asid), format!("prop-{seed:x}"), streams)
            .expect("assemble");
        let decoded = NctFile::parse(&original.to_bytes()).expect("round trip");
        prop_assert_eq!(decoded.asid(), original.asid());
        prop_assert_eq!(decoded.label(), original.label());
        prop_assert_eq!(decoded.threads().len(), original.threads().len());
        for (d, o) in decoded.threads().iter().zip(original.threads()) {
            prop_assert_eq!(&d.events, &o.events);
            prop_assert_eq!(&d.superpage_frames, &o.superpage_frames);
        }
    }
}

#[test]
fn missing_truncated_and_corrupt_files_fail_with_structured_errors() {
    let (events, superpage_frames) = synth_events(7, 300);
    let file = NctFile::new(
        Asid::new(3),
        "errors",
        vec![ThreadStream {
            superpage_frames,
            events,
        }],
    )
    .expect("assemble");
    let bytes = file.to_bytes();

    // Missing file.
    assert!(matches!(
        FileTrace::open("/no/such/trace.nct", 0),
        Err(NctError::Io(_))
    ));

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    let path = scratch("bad_magic.nct");
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(FileTrace::open(&path, 0), Err(NctError::BadMagic)));

    // Unsupported version.
    let mut bad = bytes.clone();
    bad[8] = 0x7f;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        FileTrace::open(&path, 0),
        Err(NctError::UnsupportedVersion(0x7f))
    ));

    // Every truncation point fails cleanly (no panic), with a Truncated /
    // Corrupt / Io error depending on what got cut.
    for cut in [10, 23, 30, 45, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("write");
        let err = FileTrace::open(&path, 0).expect_err("truncation must fail");
        assert!(
            matches!(
                err,
                NctError::Truncated(_) | NctError::Corrupt(_) | NctError::Io(_)
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }

    // A flipped payload byte trips the block checksum.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        FileTrace::open(&path, 0),
        Err(NctError::ChecksumMismatch {
            thread: 0,
            block: 0
        }) | Err(NctError::Corrupt(_))
            | Err(NctError::Truncated(_))
    ));

    // Out-of-range thread index.
    std::fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        FileTrace::open(&path, 9),
        Err(NctError::BadThreadIndex {
            requested: 9,
            available: 1
        })
    ));
}

/// A valid file of `threads` synthetic streams of `n` events each.
fn synth_file(seed: u64, n: usize, threads: usize) -> Vec<u8> {
    let streams = (0..threads)
        .map(|t| {
            let (events, superpage_frames) = synth_events(seed ^ (t as u64) << 32, n);
            ThreadStream {
                superpage_frames,
                events,
            }
        })
        .collect();
    NctFile::new(Asid::new(1), "hostile", streams)
        .expect("assemble")
        .to_bytes()
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// The header offset and payload length of every block of a valid file.
fn block_extents(bytes: &[u8]) -> Vec<(usize, usize)> {
    let header = NctHeader::read_from(&mut &bytes[..]).expect("valid header");
    let mut blocks = Vec::new();
    for t in 0..header.thread_count {
        let entry = header.dir_entry_offset(t) as usize;
        let (offset, len) = (u64_at(bytes, entry), u64_at(bytes, entry + 8));
        let mut pos = offset;
        let frames = nct::read_uvarint(bytes, &mut pos).expect("frame count");
        for _ in 0..=frames {
            // Each frame delta, then the event count.
            nct::read_uvarint(bytes, &mut pos).expect("varint");
        }
        while pos < offset + len {
            let payload_len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            blocks.push((pos, payload_len));
            pos += nct::BLOCK_HEADER_LEN + payload_len;
        }
    }
    blocks
}

/// A one-thread file whose section declares `declared` events and holds
/// one block claiming `claimed` events over `payload`, checksummed
/// honestly, so the forged counts reach the block decoder.
fn forged_file(declared: u64, claimed: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = synth_file(1, 1, 1);
    let entry = nct::HEADER_LEN + "hostile".len();
    let section = u64_at(&bytes, entry);
    bytes.truncate(section);
    nct::write_uvarint(&mut bytes, 0); // no superpage frames
    nct::write_uvarint(&mut bytes, declared);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&claimed.to_le_bytes());
    bytes.extend_from_slice(&nct::fnv1a64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    let len = (bytes.len() - section) as u64;
    bytes[entry + 8..entry + 16].copy_from_slice(&len.to_le_bytes());
    bytes
}

/// Recomputes each block's checksum over its original payload extent, so
/// mutations reach the decoders instead of stopping at the checksum.
fn refix_checksums(bytes: &mut [u8], blocks: &[(usize, usize)]) {
    for &(at, len) in blocks {
        let payload = at + nct::BLOCK_HEADER_LEN;
        let sum = nct::fnv1a64(&bytes[payload..payload + len]);
        bytes[at + 8..at + 16].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Feeds `bytes` to the in-memory and the streaming decoder. Returning at
/// all means neither panicked nor aborted; beyond that, every stream the
/// whole-file parse accepts must also open for streaming replay.
fn decode_both(bytes: &[u8], path: &Path) -> Result<(), TestCaseError> {
    let parsed = NctFile::parse(bytes);
    std::fs::write(path, bytes).expect("write");
    for thread in 0..4u16 {
        let opened = FileTrace::open(path, thread);
        if let Ok(file) = &parsed {
            if let Some(stream) = file.threads().get(usize::from(thread)) {
                let trace = opened.map_err(|e| {
                    TestCaseError::Fail(format!("parse accepted thread {thread}, open: {e}"))
                })?;
                prop_assert_eq!(trace.event_count(), stream.events.len() as u64);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, bare or behind a valid fixed header, never make
    /// either decoder panic or over-allocate.
    #[test]
    fn prop_arbitrary_bytes_fail_cleanly(
        body in prop::collection::vec(any::<u8>(), 0..512),
        with_header in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if with_header {
            bytes.extend_from_slice(&synth_file(1, 1, 1)[..nct::HEADER_LEN]);
        }
        bytes.extend_from_slice(&body);
        decode_both(&bytes, &scratch("prop_arbitrary.nct"))?;
    }

    /// Valid files with flipped bytes and smashed block-header fields, their
    /// checksums re-fixed, decode to `Ok` or a structured error.
    #[test]
    fn prop_mutated_files_fail_cleanly(
        seed in any::<u64>(),
        n in 1usize..6000,
        threads in 1usize..4,
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        smash in prop::collection::vec((any::<u64>(), 0usize..2, any::<u32>()), 0..2),
    ) {
        let mut bytes = synth_file(seed, n, threads);
        let blocks = block_extents(&bytes);
        for &(at, xor) in &flips {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= xor;
        }
        // Overwrite a block's payload length (field 0) or event count
        // (field 1) with an arbitrary u32.
        for &(pick, field, value) in &smash {
            let (at, _) = blocks[(pick % blocks.len() as u64) as usize];
            bytes[at + 4 * field..at + 4 * field + 4].copy_from_slice(&value.to_le_bytes());
        }
        refix_checksums(&mut bytes, &blocks);
        decode_both(&bytes, &scratch("prop_mutated.nct"))?;
    }

    /// A block claiming up to `u32::MAX` events, inside a section that
    /// declares at least as many, is decoded without reserving room for
    /// the claim: the payload, real events or noise, bounds the work.
    #[test]
    fn prop_forged_event_counts_fail_cleanly(
        claimed in any::<u32>(),
        slack in 0u64..2,
        noise in prop::collection::vec(any::<u8>(), 1..64),
        real in any::<bool>(),
    ) {
        let payload = if real {
            nct::encode_block(&synth_events(u64::from(claimed), noise.len()).0)
        } else {
            noise
        };
        let bytes = forged_file(u64::from(claimed) + slack, claimed, &payload);
        decode_both(&bytes, &scratch("prop_forged.nct"))?;
    }
}

/// The worked example of `TRACE_FORMAT.md` §6, built with the public API.
fn example_file() -> NctFile {
    let events = vec![
        TraceEvent::Access(MemAccess {
            va: VirtAddr::new(0x2000),
            is_write: false,
            gap: Cycles::new(5),
        }),
        TraceEvent::Access(MemAccess {
            va: VirtAddr::new(0x20_3008),
            is_write: true,
            gap: Cycles::new(2),
        }),
        TraceEvent::Promote(VirtPageNum::new(1, PageSize::Size2M)),
    ];
    let superpage_frames: BTreeSet<u64> = [1u64].into_iter().collect();
    NctFile::new(
        Asid::new(7),
        "example",
        vec![ThreadStream {
            superpage_frames,
            events,
        }],
    )
    .expect("assemble example")
}

/// The encoder output for the worked example must match the checked-in
/// fixture byte for byte — this is what makes `TRACE_FORMAT.md` normative.
#[test]
fn golden_fixture_matches_spec() {
    let actual = example_file().to_bytes();
    let path = golden_dir().join("example.nct");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v != "0") {
        std::fs::write(&path, &actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read(&path).expect("read tests/golden/example.nct");
    assert_eq!(
        actual, expected,
        "encoder output drifted from the golden fixture; if the format \
         changed intentionally, bump the version, update TRACE_FORMAT.md \
         and regenerate with UPDATE_GOLDEN=1 cargo test --test trace_replay"
    );
}

/// The hex dump printed in `TRACE_FORMAT.md` §6 is the fixture: the spec
/// cannot silently drift from the bytes.
#[test]
fn spec_hex_dump_matches_fixture() {
    let md =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("TRACE_FORMAT.md"))
            .expect("read TRACE_FORMAT.md");
    let mut from_spec = Vec::new();
    for line in md.lines() {
        let Some((addr, rest)) = line.split_once(": ") else {
            continue;
        };
        if addr.len() != 8 || !addr.chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        // xxd layout: 39 columns of hex groups, two spaces, ASCII gutter.
        let hex_cols = &rest[..rest.len().min(39)];
        for group in hex_cols.split_whitespace() {
            assert!(group.len() % 2 == 0, "odd hex group {group:?}");
            for pair in (0..group.len()).step_by(2) {
                let byte = u8::from_str_radix(&group[pair..pair + 2], 16)
                    .unwrap_or_else(|e| panic!("bad hex {group:?}: {e}"));
                from_spec.push(byte);
            }
        }
    }
    let fixture = std::fs::read(golden_dir().join("example.nct")).expect("read fixture");
    assert_eq!(
        from_spec, fixture,
        "the worked example in TRACE_FORMAT.md no longer matches \
         tests/golden/example.nct"
    );
}

/// Replaying the 3-event golden fixture (wrapping as needed) is itself a
/// golden-report regression test: it pins the whole replay path's timing.
#[test]
fn golden_fixture_replays_to_a_golden_report() {
    let config = SystemConfig::new(CORES, TlbOrg::paper_nocstar());
    let workload = WorkloadAssignment::from_trace_file(&config, golden_dir().join("example.nct"))
        .expect("open fixture");
    let report = Simulation::new(config, workload).run_measured(WARMUP, MEASURE);
    assert_eq!(report.label, "example");
    let actual = pretty_report(&report);
    let path = golden_dir().join("replay_example.json");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v != "0") {
        std::fs::write(&path, &actual).expect("write golden replay report");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden replay report {} ({e}); run UPDATE_GOLDEN=1 \
             cargo test --test trace_replay to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "replay of the golden fixture drifted; if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test trace_replay"
    );
}

/// `FileTrace` looping matches the in-memory `RecordedTrace` replay
/// semantics event for event, including across the wrap point.
#[test]
fn file_replay_matches_recorded_replay_across_wrap() {
    let spec = Preset::Gups.spec();
    let mut src = spec.trace(Asid::new(1), ThreadId::new(0), 0xcafe, true);
    let recorded = RecordedTrace::capture(&mut src, 150);
    let path = scratch("wrap.nct");
    NctFile::from_recorded(std::slice::from_ref(&recorded), "gups")
        .expect("assemble")
        .save(&path)
        .expect("save");
    let mut replay = FileTrace::open(&path, 0).expect("open");
    for i in 0..450 {
        assert_eq!(
            replay.next_event(),
            recorded.events()[i % 150],
            "event {i} diverged"
        );
    }
}
