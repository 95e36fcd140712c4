//! Streamed ingest holds at most one read window plus one record of
//! capture bytes, however long the capture. A test-only global allocator
//! counts the byte buffers (allocations aligned to 1) that the measuring
//! thread holds at once; trace records, damage lists and boxed readers
//! are aligned wider and not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::path::PathBuf;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::pcap_io;
use tcpa_trace::source::{CorpusItem, LoadMode};
use tcpa_wire::pcap::{Capture, PcapError, MAX_INCL_LEN};
use tcpa_wire::TsResolution;

/// The read window of a streamed capture (a private constant of
/// `tcpa-wire`'s pcap reader; this test pins it).
const WINDOW: usize = 256 << 10;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct ByteBuffers;

impl ByteBuffers {
    fn grow(layout: Layout, by: usize) {
        if layout.align() == 1 && TRACKING.get() {
            let live = LIVE.get() + by;
            LIVE.set(live);
            PEAK.set(PEAK.get().max(live));
        }
    }

    fn shrink(layout: Layout, by: usize) {
        if layout.align() == 1 && TRACKING.get() {
            LIVE.set(LIVE.get().saturating_sub(by));
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the wrapper only
// updates thread-local counters, which neither allocate nor panic.
unsafe impl GlobalAlloc for ByteBuffers {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block are both live while the bytes move.
        Self::grow(layout, new_size);
        Self::shrink(layout, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ByteBuffers = ByteBuffers;

/// Runs `f` and returns its result with the most byte-buffer bytes the
/// calling thread held at once while it ran.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    PEAK.set(0);
    TRACKING.set(true);
    let out = f();
    TRACKING.set(false);
    (out, PEAK.get())
}

/// A temporary capture file, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, bytes: &[u8]) -> TempFile {
        let path = std::env::temp_dir().join(format!(
            "tcpa_ingest_memory_{}_{name}.pcap",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("write temporary capture");
        TempFile(path)
    }

    fn open(&self) -> File {
        File::open(&self.0).expect("open temporary capture")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn long_capture_holds_one_window_plus_one_record() {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        4 << 20,
        7,
    );
    let trace = out.sender_trace();
    let bytes = pcap_io::write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).unwrap();
    assert!(bytes.len() >= 4 << 20, "capture is {} bytes", bytes.len());
    let record = trace
        .iter()
        .map(|rec| 16 + pcap_io::frame_bytes(rec).len())
        .max()
        .unwrap();
    let bound = WINDOW + record;
    let (whole, _) = pcap_io::read_pcap_bytes(&bytes).unwrap();
    let file = TempFile::new("long", &bytes);

    let (strict, peak) = peak_bytes(|| pcap_io::read_pcap(file.open()));
    assert_eq!(strict.unwrap().0, whole);
    assert!(
        (WINDOW..=bound).contains(&peak),
        "strict read held {peak} bytes (bound {bound})"
    );

    let (salvage, peak) =
        peak_bytes(|| pcap_io::salvage_capture(Capture::stream(file.open(), None)));
    let (salvaged, report) = salvage.unwrap();
    assert_eq!(salvaged, whole);
    assert!(report.is_clean());
    assert_eq!(report.bytes_total, bytes.len() as u64);
    assert!(
        (WINDOW..=bound).contains(&peak),
        "salvage read held {peak} bytes (bound {bound})"
    );

    let item = CorpusItem::pcap(&file.0);
    for mode in [LoadMode::Strict, LoadMode::Salvage] {
        let (loaded, peak) = peak_bytes(|| item.input.load_mode(mode));
        assert_eq!(loaded.unwrap().trace, whole);
        assert!(
            (WINDOW..=bound).contains(&peak),
            "{mode:?} load held {peak} bytes (bound {bound})"
        );
    }
}

#[test]
fn a_claimed_length_is_never_reserved() {
    let mut bytes = pcap_io::write_pcap(
        &tcpa_trace::Trace::new(),
        Vec::new(),
        TsResolution::Micro,
        0,
    )
    .unwrap();
    let claimed = MAX_INCL_LEN - 1;
    for field in [1u32, 0, claimed, claimed] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(&[0x5a; 100]);
    let file = TempFile::new("claim", &bytes);
    let bound = WINDOW + bytes.len();

    let (strict, peak) = peak_bytes(|| pcap_io::read_pcap(file.open()));
    match strict {
        Err(PcapError::TruncatedRecordData {
            offset: 24,
            incl_len,
            have: 100,
        }) => assert_eq!(incl_len, claimed),
        other => panic!("expected a truncated record, got {other:?}"),
    }
    assert!(
        peak <= bound,
        "strict read held {peak} bytes (bound {bound})"
    );

    let (salvage, peak) =
        peak_bytes(|| pcap_io::salvage_capture(Capture::stream(file.open(), None)));
    let (_, report) = salvage.unwrap();
    assert_eq!(report.bytes_skipped, 116);
    assert!(
        peak <= bound,
        "salvage read held {peak} bytes (bound {bound})"
    );

    let item = CorpusItem::pcap(&file.0);
    for mode in [LoadMode::Strict, LoadMode::Salvage] {
        let (_, peak) = peak_bytes(|| item.input.load_mode(mode));
        assert!(
            peak <= bound,
            "{mode:?} load held {peak} bytes (bound {bound})"
        );
    }
}
