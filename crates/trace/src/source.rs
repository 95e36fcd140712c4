//! Corpus items — the supply side of batch analysis.
//!
//! The paper's catalogues were built from ~40,000 traces; anything at that
//! scale needs a uniform way to enumerate work without loading every
//! capture up front. A [`MemorySource`] is the corpus's list of
//! [`CorpusItem`]s; each item carries a stable label and a [`TraceInput`]
//! that is *loaded by the worker that claims it*, so file I/O and pcap
//! decoding parallelize along with the analysis itself.

use crate::pcap_io::{self, IngestReport};
use crate::record::Trace;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcpa_wire::pcap::{Capture, PcapError};

/// One unit of corpus work: a labelled, possibly not-yet-loaded trace.
#[derive(Debug, Clone)]
pub struct CorpusItem {
    /// Stable label (file path or synthetic name) used in reports.
    pub id: String,
    /// Where the trace bytes come from.
    pub input: TraceInput,
}

/// Where a corpus item's packets come from.
#[derive(Debug, Clone)]
pub enum TraceInput {
    /// An already-loaded trace (simulated corpora, tests).
    Memory(Trace),
    /// A pcap file, opened and decoded by the worker that claims the item.
    PcapFile(PathBuf),
    /// In-memory capture bytes, decoded by the worker that claims the
    /// item (mangled-corpus tests, network-received captures). `Arc`'d so
    /// cloning an item does not copy the capture.
    PcapBytes(Arc<Vec<u8>>),
}

impl CorpusItem {
    /// An item wrapping an in-memory trace.
    pub fn memory(id: impl Into<String>, trace: Trace) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::Memory(trace),
        }
    }

    /// An item naming a pcap file; the path doubles as the label.
    pub fn pcap(path: impl Into<PathBuf>) -> CorpusItem {
        let path = path.into();
        CorpusItem {
            id: path.display().to_string(),
            input: TraceInput::PcapFile(path),
        }
    }

    /// An item over raw capture bytes already in memory.
    pub fn pcap_bytes(id: impl Into<String>, bytes: Vec<u8>) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::PcapBytes(Arc::new(bytes)),
        }
    }
}

/// How [`TraceInput::load_mode`] treats a damaged capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// The first malformed byte fails the load ([`LoadError::Malformed`]).
    Strict,
    /// Damaged regions are skipped and accounted for in an
    /// [`IngestReport`]; only genuine I/O failure fails the load.
    Salvage,
}

/// Why a trace could not be loaded. `Io` and `Malformed` are distinct on
/// purpose: an I/O error may be transient (worth retrying), while
/// malformed bytes never fix themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The underlying read failed.
    Io {
        /// The OS error class, for retry decisions.
        kind: ErrorKind,
        /// Human-readable description including the path.
        detail: String,
    },
    /// The capture bytes are malformed (strict mode only).
    Malformed {
        /// Human-readable description including the path and byte offset.
        detail: String,
    },
}

impl LoadError {
    /// `true` when retrying the load could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            LoadError::Io {
                kind: ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut,
                ..
            }
        )
    }
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Io { detail, .. } => write!(f, "{detail}"),
            LoadError::Malformed { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A successfully loaded trace, with the degradation ledger when salvage
/// mode had to skip damage (`None` for in-memory traces and clean files).
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The decoded trace.
    pub trace: Trace,
    /// Capture records skipped as non-TCP or undecodable frames.
    pub skipped: usize,
    /// Salvage accounting, present only for pcap inputs read in
    /// [`LoadMode::Salvage`].
    pub salvage: Option<IngestReport>,
}

impl TraceInput {
    /// Materializes the trace, doing any file I/O and pcap decoding on the
    /// calling thread. Takes `&self` so a caller can retry transient I/O
    /// failures without re-claiming the item.
    pub fn load_mode(&self, mode: LoadMode) -> Result<Loaded, LoadError> {
        match self {
            TraceInput::Memory(trace) => Ok(Loaded {
                trace: trace.clone(),
                skipped: 0,
                salvage: None,
            }),
            TraceInput::PcapFile(path) => {
                let opened = tcpa_obs::time("ingest.file", || {
                    let file = File::open(path)?;
                    let len = file.metadata()?.len();
                    Ok((file, len))
                });
                let (file, len) = opened.map_err(|e: std::io::Error| LoadError::Io {
                    kind: e.kind(),
                    detail: format!("{}: {e}", path.display()),
                })?;
                // Read as far as the length found at open: the last refill
                // then learns the end of the file without another read.
                let capture = Capture::stream(file.take(len), Some(len));
                load_capture(capture, mode, &path.display())
            }
            TraceInput::PcapBytes(bytes) => {
                load_capture(bytes.as_slice().into(), mode, &"<memory capture>")
            }
        }
    }
}

/// Reads and decodes a capture under the requested degradation mode, as
/// [`TraceInput::load_mode`] does for pcap inputs; `label` names the
/// capture in errors. An I/O failure part-way through the stream keeps its
/// error kind, so a transient one is still retried; damage is
/// [`LoadError::Malformed`].
pub fn load_capture(
    capture: Capture<'_>,
    mode: LoadMode,
    label: &dyn core::fmt::Display,
) -> Result<Loaded, LoadError> {
    let loaded = match mode {
        LoadMode::Strict => pcap_io::read_capture(capture).map(|(trace, skipped)| Loaded {
            trace,
            skipped,
            salvage: None,
        }),
        LoadMode::Salvage => pcap_io::salvage_capture(capture).map(|(trace, report)| Loaded {
            trace,
            skipped: report.frames_skipped,
            salvage: Some(report),
        }),
    };
    loaded.map_err(|e| match e {
        PcapError::Io(e) => LoadError::Io {
            kind: e.kind(),
            detail: format!("{label}: {e}"),
        },
        e => LoadError::Malformed {
            detail: format!("{label}: {e}"),
        },
    })
}

/// A corpus: its items in input order. The batch pipeline's workers
/// claim them by index, and [`TraceInput::load_mode`] does the heavy
/// lifting on the claiming worker.
#[derive(Debug, Default)]
pub struct MemorySource {
    items: Vec<CorpusItem>,
}

impl MemorySource {
    /// A corpus of `items`, in order.
    pub fn new(items: Vec<CorpusItem>) -> MemorySource {
        MemorySource { items }
    }

    /// A corpus of explicit pcap paths, in the order given.
    pub fn from_pcap_files<P: Into<PathBuf>>(paths: Vec<P>) -> MemorySource {
        MemorySource::new(paths.into_iter().map(CorpusItem::pcap).collect())
    }

    /// A corpus of every `*.pcap` in `dir` (non-recursive), sorted by
    /// file name so corpus order — and therefore the merged report — is
    /// independent of directory-listing order.
    pub fn from_pcap_dir(dir: impl AsRef<Path>) -> std::io::Result<MemorySource> {
        let dir = dir.as_ref();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().map(|e| e == "pcap").unwrap_or(false))
            .collect();
        paths.sort();
        Ok(MemorySource::from_pcap_files(paths))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the corpus has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, in input order.
    pub fn into_items(self) -> Vec<CorpusItem> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_yields_in_order() {
        let src = MemorySource::new(vec![
            CorpusItem::memory("a", Trace::new()),
            CorpusItem::memory("b", Trace::new()),
        ]);
        assert_eq!(src.len(), 2);
        let ids: Vec<String> = src.into_items().into_iter().map(|i| i.id).collect();
        assert_eq!(ids, ["a", "b"]);
    }

    #[test]
    fn missing_pcap_is_io_in_both_modes_and_not_transient() {
        let item = CorpusItem::pcap("/nonexistent/never.pcap");
        for mode in [LoadMode::Strict, LoadMode::Salvage] {
            match item.input.load_mode(mode) {
                Err(e @ LoadError::Io { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::NotFound);
                    assert!(!e.is_transient());
                }
                other => panic!("expected Io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_bytes_strict_vs_salvage() {
        let item = CorpusItem::pcap_bytes("soup", vec![0u8; 64]);
        match item.input.load_mode(LoadMode::Strict) {
            Err(LoadError::Malformed { detail }) => {
                assert!(detail.contains("magic"), "{detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let loaded = item.input.load_mode(LoadMode::Salvage).expect("salvage");
        let report = loaded.salvage.expect("pcap inputs carry a report");
        assert!(!report.is_clean());
        assert!(loaded.trace.is_empty() || loaded.trace.len() < 4);
    }

    /// A reader over `bytes` that answers every other read with
    /// `Interrupted` and fails for good with `kind` once `fail_at` bytes
    /// have been read.
    struct Failing {
        bytes: Vec<u8>,
        read: usize,
        fail_at: usize,
        kind: ErrorKind,
        calls: usize,
    }

    impl Read for Failing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            if self.read >= self.fail_at {
                return Err(std::io::Error::new(self.kind, "injected read failure"));
            }
            let rest = &self.bytes[self.read..self.fail_at.min(self.bytes.len())];
            let n = rest.len().min(buf.len()).min(100);
            buf[..n].copy_from_slice(&rest[..n]);
            self.read += n;
            Ok(n)
        }
    }

    fn sample_capture() -> Vec<u8> {
        use crate::record::test_util::rec;
        use tcpa_wire::TcpFlags;
        let trace: Trace = (0..20)
            .map(|i| rec(i, 1, 2, TcpFlags::ACK, 1 + 512 * i as u32, 512, 1))
            .collect();
        pcap_io::write_pcap(&trace, Vec::new(), tcpa_wire::TsResolution::Micro, 0).unwrap()
    }

    fn stream(bytes: &[u8], fail_at: usize, kind: ErrorKind) -> Capture<'static> {
        let input = Failing {
            bytes: bytes.to_vec(),
            read: 0,
            fail_at,
            kind,
            calls: 0,
        };
        Capture::stream(input, None)
    }

    #[test]
    fn mid_stream_io_error_keeps_its_kind_in_both_modes() {
        let bytes = sample_capture();
        for mode in [LoadMode::Strict, LoadMode::Salvage] {
            for (kind, transient) in [
                (ErrorKind::TimedOut, true),
                (ErrorKind::WouldBlock, true),
                (ErrorKind::ConnectionReset, false),
            ] {
                match load_capture(stream(&bytes, bytes.len() / 2, kind), mode, &"x.pcap") {
                    Err(e @ LoadError::Io { kind: got, .. }) => {
                        assert_eq!(got, kind, "{mode:?}");
                        assert_eq!(e.is_transient(), transient, "{mode:?} {kind:?}");
                        assert!(e.to_string().starts_with("x.pcap: "), "{e}");
                    }
                    other => panic!("{mode:?}: expected an i/o error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn interrupted_reads_are_retried_inside_the_read() {
        let bytes = sample_capture();
        for mode in [LoadMode::Strict, LoadMode::Salvage] {
            let streamed = load_capture(stream(&bytes, usize::MAX, ErrorKind::Other), mode, &"x")
                .expect("interrupts are retried");
            let whole = load_capture(bytes.as_slice().into(), mode, &"x").expect("clean");
            assert_eq!(streamed.trace, whole.trace);
            assert_eq!(streamed.trace.len(), 20);
            assert_eq!(streamed.salvage, whole.salvage);
        }
    }

    #[test]
    fn dir_listing_is_sorted_and_filtered() {
        let dir = std::env::temp_dir().join(format!("tcpa_src_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.pcap", "a.pcap", "notes.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let src = MemorySource::from_pcap_dir(&dir).unwrap();
        assert_eq!(src.len(), 2);
        let items = src.into_items();
        assert!(items[0].id.ends_with("a.pcap"));
        assert!(items[1].id.ends_with("b.pcap"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
