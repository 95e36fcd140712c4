//! Golden tests over the committed damaged captures in
//! `tests/fixtures/mangled/` (regenerate with
//! `cargo run --example gen_mangled_fixtures`).
//!
//! One fixture per [`FaultKind`]. The expected `IngestReport` numbers are
//! pinned: any drift means the salvage reader changed behavior on bytes
//! that did not change, which is exactly what these tests exist to catch.
//! Note the *classification* of in-stream damage is heuristic — garbage
//! bytes are classified by how their first bytes misparse — so a few
//! fixtures legitimately report a different `FaultKind` than was injected
//! (the file-kind → reported-kind mapping below is part of the pin).

use std::path::PathBuf;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles;
use tcpa_trace::mangle::{inject, FaultKind};
use tcpa_trace::pcap_io::{self, read_pcap_salvage_bytes};
use tcpa_trace::source::{CorpusItem, LoadMode};
use tcpa_wire::{PcapError, TsResolution};

fn mangled_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mangled")
}

struct Golden {
    file: &'static str,
    records: usize,
    frames: usize,
    bytes_skipped: u64,
    regions: usize,
    reported: FaultKind,
    header_assumed: bool,
}

/// The pinned expectations, one row per injected fault kind.
const GOLDEN: &[Golden] = &[
    Golden {
        file: "truncated-global-header.pcap",
        records: 0,
        frames: 0,
        bytes_skipped: 23,
        regions: 1,
        reported: FaultKind::TruncatedGlobalHeader,
        header_assumed: true,
    },
    Golden {
        file: "bad-magic.pcap",
        records: 33,
        frames: 33,
        bytes_skipped: 4,
        regions: 1,
        reported: FaultKind::BadMagic,
        header_assumed: true,
    },
    Golden {
        file: "truncated-record-header.pcap",
        records: 1,
        frames: 1,
        bytes_skipped: 14,
        regions: 1,
        reported: FaultKind::TruncatedRecordHeader,
        header_assumed: false,
    },
    Golden {
        file: "mid-record-eof.pcap",
        records: 14,
        frames: 14,
        bytes_skipped: 1190,
        regions: 1,
        reported: FaultKind::MidRecordEof,
        header_assumed: false,
    },
    Golden {
        // Injected: garbage splice. The splice's first bytes misparse as
        // a corrupt timestamp, so that is the class reported.
        file: "garbage-splice.pcap",
        records: 33,
        frames: 33,
        bytes_skipped: 96,
        regions: 1,
        reported: FaultKind::CorruptTimestamp,
        header_assumed: false,
    },
    Golden {
        // Injected: zeroed incl_len. The zeroed record parses as an empty
        // record (counted, not a frame); its stranded payload misparses
        // as a record cut off by EOF.
        file: "zero-length.pcap",
        records: 33,
        frames: 32,
        bytes_skipped: 54,
        regions: 1,
        reported: FaultKind::MidRecordEof,
        header_assumed: false,
    },
    Golden {
        file: "oversized-length.pcap",
        records: 32,
        frames: 32,
        bytes_skipped: 1530,
        regions: 1,
        reported: FaultKind::OversizedLength,
        header_assumed: false,
    },
    Golden {
        file: "corrupt-timestamp.pcap",
        records: 32,
        frames: 32,
        bytes_skipped: 1530,
        regions: 1,
        reported: FaultKind::CorruptTimestamp,
        header_assumed: false,
    },
];

#[test]
fn every_fault_kind_has_a_committed_fixture() {
    for kind in FaultKind::ALL {
        let path = mangled_dir().join(format!("{}.pcap", kind.label()));
        assert!(path.is_file(), "missing fixture {}", path.display());
        assert!(
            GOLDEN
                .iter()
                .any(|g| g.file == format!("{}.pcap", kind.label())),
            "no golden row for {kind}"
        );
    }
}

#[test]
fn salvage_reports_match_golden() {
    for g in GOLDEN {
        let path = mangled_dir().join(g.file);
        let bytes = std::fs::read(&path).expect("fixture readable");
        let (trace, report) = read_pcap_salvage_bytes(&bytes);
        assert!(!report.is_clean(), "{}: damage must be reported", g.file);
        assert_eq!(report.records, g.records, "{}: records", g.file);
        assert_eq!(report.frames, g.frames, "{}: frames", g.file);
        assert_eq!(trace.len(), g.frames, "{}: trace length", g.file);
        assert_eq!(report.bytes_total, bytes.len() as u64, "{}", g.file);
        assert_eq!(report.bytes_skipped, g.bytes_skipped, "{}: skipped", g.file);
        assert_eq!(report.damage.len(), g.regions, "{}: regions", g.file);
        assert_eq!(report.header_assumed, g.header_assumed, "{}", g.file);
        let counts = report.fault_counts();
        assert_eq!(
            counts.get(&g.reported).copied(),
            Some(g.regions),
            "{}: expected {} x{}, got {:?}",
            g.file,
            g.reported,
            g.regions,
            counts
        );
        // Damage regions must lie within the file and never overlap.
        let mut prev_end = 0u64;
        for d in &report.damage {
            assert!(d.offset >= prev_end, "{}: overlapping damage", g.file);
            assert!(d.offset + d.len <= bytes.len() as u64, "{}", g.file);
            prev_end = d.offset + d.len;
        }
    }
}

#[test]
fn salvage_is_deterministic_on_fixtures() {
    for g in GOLDEN {
        let bytes = std::fs::read(mangled_dir().join(g.file)).unwrap();
        let (t1, r1) = read_pcap_salvage_bytes(&bytes);
        let (t2, r2) = read_pcap_salvage_bytes(&bytes);
        assert_eq!(r1, r2, "{}: report must be deterministic", g.file);
        assert_eq!(t1.len(), t2.len(), "{}", g.file);
    }
}

#[test]
fn strict_load_rejects_every_fixture_salvage_load_accepts() {
    for g in GOLDEN {
        let bytes = std::fs::read(mangled_dir().join(g.file)).unwrap();
        let item = CorpusItem::pcap_bytes(g.file, bytes);
        assert!(
            item.input.load_mode(LoadMode::Strict).is_err(),
            "{}: strict must reject damage",
            g.file
        );
        let loaded = item
            .input
            .load_mode(LoadMode::Salvage)
            .expect("salvage never fails on readable bytes");
        let report = loaded.salvage.expect("pcap inputs carry a report");
        assert_eq!(report.frames, g.frames, "{}", g.file);
    }
}

/// `gen_mangled_fixtures`' clean base capture: a Reno transfer written
/// as microsecond pcap.
fn fixture_base_capture() -> Vec<u8> {
    let out = run_transfer(
        profiles::reno(),
        profiles::reno(),
        &PathSpec::default(),
        24 * 1024,
        1997,
    );
    pcap_io::write_pcap(&out.sender_trace(), Vec::new(), TsResolution::Micro, 0)
        .expect("write base capture")
}

#[test]
fn mangler_reproduces_every_committed_fixture() {
    // `gen_mangled_fixtures`' injection seed.
    const SEED: u64 = 0x5eed_f00d;
    let base = fixture_base_capture();
    for kind in FaultKind::ALL {
        let (bytes, _) = inject(&base, kind, SEED).expect("every kind applies");
        let path = mangled_dir().join(format!("{}.pcap", kind.label()));
        let committed = std::fs::read(&path).expect("fixture readable");
        assert!(
            bytes == committed,
            "{kind}: inject no longer reproduces {}",
            path.display()
        );
    }
}

#[test]
fn strict_fails_at_salvage_first_damage_on_fixtures() {
    for g in GOLDEN {
        let bytes = std::fs::read(mangled_dir().join(g.file)).unwrap();
        let (_, report) = read_pcap_salvage_bytes(&bytes);
        let first = report.damage.first().expect("fixtures are damaged");
        let err = pcap_io::read_pcap_bytes(&bytes).expect_err("strict rejects damage");
        let offset = match err {
            PcapError::TruncatedRecordHeader { offset, .. }
            | PcapError::TruncatedRecordData { offset, .. }
            | PcapError::BadRecordLength { offset, .. }
            | PcapError::BadTimestamp { offset, .. } => offset,
            _ => 0,
        };
        assert_eq!(FaultKind::of(&err), Some(first.kind), "{}: {err}", g.file);
        assert_eq!(offset, first.offset, "{}: {err}", g.file);
    }
}
