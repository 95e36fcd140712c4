//! The traced driver's own span recorder.
//!
//! Every span keeps its exact start and end in nanoseconds, in memory,
//! until the run ends; nothing is bucketed. That is the point of having a
//! recorder here rather than reading the program's `tcpa_obs` registry:
//! the registry's log2 histograms resolve a duration only to within a
//! factor of two (a p50 reads as a bucket bound such as 32767 ns), and
//! `LogHistogram::since` carries a stale maximum into windows that saw no
//! samples — the two flaws that keep `BENCH_stage_timings.json` from
//! catching a regression. Percentiles and self times below come from the
//! exact samples.

use std::fmt::Write as _;
use std::time::Instant;

/// A layer of the analyzer, named after the module whose public entry the
/// driver times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One corpus item, end to end; its self time is driver overhead.
    Item,
    /// `std::fs::read` plus `pcap_io::read_pcap` / `read_pcap_salvage_bytes`.
    Ingest,
    /// `Analyzer::auto`.
    Vantage,
    /// `Calibrator::calibrate`.
    Calibrate,
    /// `Connection::split`.
    Split,
    /// The all-profile fingerprint; its self time is the ranking.
    Fingerprint,
    /// One `fingerprint_one` call (one candidate's sender replay).
    Replay,
    /// `analyze_receiver`.
    Receiver,
    /// `fingerprint_receiver`.
    ReceiverFp,
    /// `analyze_handshake`.
    Handshake,
    /// `ConnStats::of`.
    Stats,
    /// `AnalysisReport::render`.
    Render,
}

impl Layer {
    /// Number of layers; `layer as usize` indexes per-layer arrays.
    pub const COUNT: usize = Layer::Render as usize + 1;

    /// Stable name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Item => "item",
            Layer::Ingest => "ingest",
            Layer::Vantage => "vantage",
            Layer::Calibrate => "calibrate",
            Layer::Split => "split",
            Layer::Fingerprint => "fingerprint",
            Layer::Replay => "sender_replay",
            Layer::Receiver => "receiver",
            Layer::ReceiverFp => "receiver_fp",
            Layer::Handshake => "handshake",
            Layer::Stats => "stats",
            Layer::Render => "render",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer timed.
    pub layer: Layer,
    /// Corpus item index the span belongs to.
    pub item: u32,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    /// Nanoseconds since the recorder started.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Starts a wall-clock stopwatch: the benchmark's one clock source.
pub fn stopwatch() -> Instant {
    // tcpa-lint: allow(determinism-hazards) -- measuring wall-clock time is this benchmark's purpose; no reading reaches analysis output
    Instant::now()
}

/// In-memory span recorder with an explicit open-span stack.
pub struct Recorder {
    origin: Instant,
    item: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording does not
    /// reallocate mid-run.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: stopwatch(),
            item: 0,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the item index stamped on spans opened from now on.
    pub fn set_item(&mut self, item: usize) {
        self.item = item as u32;
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            layer,
            item: self.item,
            start,
            end: start,
            parent,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("close matches an open");
        self.spans[index as usize].end = end;
    }

    /// Times `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    /// Every span recorded, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover (children never overlap one another).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] -= span.duration();
            }
        }
        own
    }

    /// The spans as tab-separated lines: layer, item, start, end, parent.
    pub fn dump(&self) -> String {
        let mut out = String::from("layer\titem\tstart_ns\tend_ns\tparent\n");
        for span in &self.spans {
            let parent = span.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.layer.name(),
                span.item,
                span.start,
                span.end,
                parent
            );
        }
        out
    }
}

/// The `q`-quantile (0..=1) of exact samples, by linear interpolation
/// between the two closest ranks.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::with_capacity(4);
        rec.open(Layer::Item);
        rec.time(Layer::Ingest, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close();
        let own = rec.self_times();
        assert_eq!(own[0] + own[1], rec.spans()[0].duration());
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn quantiles_interpolate_exact_samples() {
        assert_eq!(quantile(&[10, 20, 30, 40], 0.5), 25.0);
        assert_eq!(quantile(&[7], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
