//! Corpus trace sources — the supply side of batch analysis.
//!
//! The paper's catalogues were built from ~40,000 traces; anything at that
//! scale needs a uniform way to enumerate work without loading every
//! capture up front. A [`TraceSource`] hands out [`CorpusItem`]s one at a
//! time; each item carries a stable label and a [`TraceInput`] that is
//! *loaded by the worker that claims it*, so file I/O and pcap decoding
//! parallelize along with the analysis itself.

use crate::pcap_io::{self, IngestReport};
use crate::record::Trace;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
    /// A trace produced by a caller-supplied loader, run by the worker
    /// that claims the item on every load attempt. Tests inject faults
    /// through it: a loader that panics, or one that fails transiently
    /// before it succeeds.
    Loader(Loader),
}

/// The closure behind [`TraceInput::Loader`]. `Arc`'d so clones of an
/// item share the closure and any state it keeps.
#[derive(Clone)]
pub struct Loader(Arc<dyn Fn() -> Result<Trace, LoadError> + Send + Sync>);

impl core::fmt::Debug for Loader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Loader(..)")
    }
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

    /// An item whose trace comes from `load`, called on every load
    /// attempt.
    pub fn loader(
        id: impl Into<String>,
        load: impl Fn() -> Result<Trace, LoadError> + Send + Sync + 'static,
    ) -> CorpusItem {
        CorpusItem {
            id: id.into(),
            input: TraceInput::Loader(Loader(Arc::new(load))),
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
        let trace = match self {
            TraceInput::Memory(trace) => trace.clone(),
            TraceInput::PcapFile(path) => {
                let bytes = tcpa_obs::time("ingest.file", || std::fs::read(path)).map_err(|e| {
                    LoadError::Io {
                        kind: e.kind(),
                        detail: format!("{}: {e}", path.display()),
                    }
                })?;
                // Owned, so a strict read frees the file's bytes inside
                // its `ingest.read` span.
                return decode_bytes(bytes, mode, &path.display());
            }
            TraceInput::PcapBytes(bytes) => {
                return decode_bytes(bytes.as_slice(), mode, &"<memory capture>")
            }
            TraceInput::Loader(Loader(load)) => load()?,
        };
        Ok(Loaded {
            trace,
            skipped: 0,
            salvage: None,
        })
    }
}

/// Decodes capture bytes under the requested degradation mode.
fn decode_bytes(
    bytes: impl AsRef<[u8]>,
    mode: LoadMode,
    label: &dyn core::fmt::Display,
) -> Result<Loaded, LoadError> {
    match mode {
        LoadMode::Strict => pcap_io::read_pcap_bytes(bytes)
            .map(|(trace, skipped)| Loaded {
                trace,
                skipped,
                salvage: None,
            })
            .map_err(|e| LoadError::Malformed {
                detail: format!("{label}: {e}"),
            }),
        LoadMode::Salvage => {
            let (trace, report) = pcap_io::read_pcap_salvage_bytes(bytes.as_ref());
            Ok(Loaded {
                trace,
                skipped: report.frames_skipped,
                salvage: Some(report),
            })
        }
    }
}

/// A pull-based supply of corpus items.
///
/// Implementations must be `Send`: the batch pipeline moves the source
/// behind a mutex shared by its workers. `next_item` should be cheap —
/// return paths or handles and let [`TraceInput::load_mode`] do the heavy
/// lifting on the claiming worker.
pub trait TraceSource: Send {
    /// Total number of items, when known up front (sizes progress output).
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// The next item, or `None` when the corpus is exhausted.
    fn next_item(&mut self) -> Option<CorpusItem>;
}

/// A source over a pre-built list of items.
#[derive(Debug, Default)]
pub struct MemorySource {
    items: VecDeque<CorpusItem>,
}

impl MemorySource {
    /// A source yielding `items` in order.
    pub fn new(items: Vec<CorpusItem>) -> MemorySource {
        MemorySource {
            items: items.into(),
        }
    }

    /// A source over explicit pcap paths, in the order given.
    pub fn from_pcap_files<P: Into<PathBuf>>(paths: Vec<P>) -> MemorySource {
        MemorySource::new(paths.into_iter().map(CorpusItem::pcap).collect())
    }

    /// A source over every `*.pcap` in `dir` (non-recursive), sorted by
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
}

impl TraceSource for MemorySource {
    fn len_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }

    fn next_item(&mut self) -> Option<CorpusItem> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_yields_in_order() {
        let mut src = MemorySource::new(vec![
            CorpusItem::memory("a", Trace::new()),
            CorpusItem::memory("b", Trace::new()),
        ]);
        assert_eq!(src.len_hint(), Some(2));
        assert_eq!(src.next_item().unwrap().id, "a");
        assert_eq!(src.next_item().unwrap().id, "b");
        assert!(src.next_item().is_none());
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

    #[test]
    #[should_panic(expected = "poisoned corpus item")]
    fn loader_panic_escapes_load() {
        let item = CorpusItem::loader("bad", || panic!("poisoned corpus item loaded"));
        let _ = item.input.load_mode(LoadMode::Strict);
    }

    #[test]
    fn loader_runs_on_every_load_attempt() {
        let remaining = std::sync::atomic::AtomicU32::new(2);
        let item = CorpusItem::loader("flaky", move || {
            use std::sync::atomic::Ordering;
            match remaining.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            {
                Ok(_) => Err(LoadError::Io {
                    kind: ErrorKind::Interrupted,
                    detail: "injected transient i/o failure".into(),
                }),
                Err(_) => Ok(Trace::new()),
            }
        });
        for _ in 0..2 {
            match item.input.load_mode(LoadMode::Strict) {
                Err(e @ LoadError::Io { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::Interrupted);
                    assert!(e.is_transient());
                }
                other => panic!("expected transient Io error, got {other:?}"),
            }
        }
        assert!(item.input.load_mode(LoadMode::Strict).is_ok());
        assert!(item.input.load_mode(LoadMode::Salvage).is_ok());
    }

    #[test]
    fn dir_listing_is_sorted_and_filtered() {
        let dir = std::env::temp_dir().join(format!("tcpa_src_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b.pcap", "a.pcap", "notes.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let mut src = MemorySource::from_pcap_dir(&dir).unwrap();
        assert_eq!(src.len_hint(), Some(2));
        assert!(src.next_item().unwrap().id.ends_with("a.pcap"));
        assert!(src.next_item().unwrap().id.ends_with("b.pcap"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
