//! The traced run: the analyzer's pipeline rebuilt from its public entry
//! points, one span around each call.
//!
//! For every item the driver does what `Analyzer::analyze` does, in the
//! same order — ingest, (auto vantage), calibrate, split, then per
//! connection fingerprint (one replay per candidate, then the ranking),
//! receiver analysis, receiver fingerprint, handshake, stats — and
//! assembles the `AnalysisReport` from the parts. An untimed check then
//! renders `Analyzer::analyze` on the same trace and requires the two
//! renders to be byte-identical, so the decomposition is known to do the
//! program's work and nothing else. Work counters are tallied at the same
//! boundaries; they depend only on the corpus, so two runs of one seed
//! must report identical counts.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tcpa_tcpsim::profiles::all_profiles;
use tcpa_trace::{pcap_io, ConnStats, Connection, Duration, MemorySource, Trace};
use tcpanaly::calibrate::Vantage;
use tcpanaly::corpus::{analyze_corpus, CorpusConfig, DegradePolicy};
use tcpanaly::fingerprint::{fingerprint_one, fingerprint_receiver, FingerprintResult, FitClass};
use tcpanaly::handshake::analyze_handshake;
use tcpanaly::receiver::analyze_receiver;
use tcpanaly::report::ConnectionReport;
use tcpanaly::{AnalysisReport, Analyzer, Calibrator};

use crate::spans::{quantile, stopwatch, Layer, Recorder};
use crate::Workload;

/// Most traced passes one run makes, however short the corpus.
const MAX_PASSES: usize = 25;
/// Repetitions of the (sub-millisecond) census render.
const RENDER_REPS: usize = 51;

/// How a workload's command line drives the analyzer.
struct Mode {
    /// `--degrade salvage`: damaged captures are salvage-read.
    salvage: bool,
    /// The vantage given on the command line; `None` infers it per trace.
    vantage: Option<Vantage>,
    /// Batch mode prints one census; single-file mode prints a report per
    /// trace, so only there is `AnalysisReport::render` program work.
    batch: bool,
}

impl Mode {
    fn of(workload: Workload) -> Mode {
        match workload {
            Workload::Census => Mode {
                salvage: false,
                vantage: None,
                batch: true,
            },
            Workload::LongFlow => Mode {
                salvage: false,
                vantage: Some(Vantage::Sender),
                batch: false,
            },
            Workload::ReceiverForensics => Mode {
                salvage: true,
                vantage: Some(Vantage::Receiver),
                batch: true,
            },
        }
    }

    fn analyzer(&self, trace: &Trace) -> Analyzer {
        match self.vantage {
            Some(Vantage::Sender) => Analyzer::at_sender(),
            Some(Vantage::Receiver) => Analyzer::at_receiver(),
            _ => Analyzer::auto(trace),
        }
    }
}

/// Exact work done by one pass over the corpus.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counters {
    ingest_records: u64,
    ingest_bytes: u64,
    salvage_bytes_skipped: u64,
    vantage_calls: u64,
    vantage_packets: u64,
    calibrate_packets: u64,
    calibrate_findings: u64,
    split_packets: u64,
    split_connections: u64,
    replay_calls: u64,
    replay_packets: u64,
    candidates: u64,
    close_fits: u64,
    fingerprinted_conns: u64,
    receiver_packets: u64,
    receiver_acks: u64,
    receiver_fp_packets: u64,
    conns: u64,
    render_bytes: u64,
    /// Replayed packets per item, for the growth ratio.
    replay_packets_by_item: Vec<u64>,
}

/// Reads and decodes one capture the way the workload's CLI flags do.
fn ingest(path: &Path, salvage: bool, c: &mut Counters) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    c.ingest_bytes += bytes.len() as u64;
    let trace = if salvage {
        let (trace, report) = pcap_io::read_pcap_salvage_bytes(&bytes);
        c.salvage_bytes_skipped += report.bytes_skipped;
        trace
    } else {
        pcap_io::read_pcap(std::io::Cursor::new(bytes.as_slice()))
            .map_err(|e| format!("{}: {e}", path.display()))?
            .0
    };
    c.ingest_records += trace.len() as u64;
    Ok(trace)
}

/// Orders candidates exactly as `fingerprint::fingerprint` does: close
/// fits first by mean response delay, then imperfect, then clearly
/// incorrect by hard-issue count. Any drift fails the equivalence check.
fn rank(results: &mut [FingerprintResult]) {
    results.sort_by(|a, b| {
        a.fit.cmp(&b.fit).then_with(|| match a.fit {
            FitClass::ClearlyIncorrect => a.analysis.hard_issues().cmp(&b.analysis.hard_issues()),
            _ => {
                let ma = a.analysis.response_delays.mean().unwrap_or(Duration::ZERO);
                let mb = b.analysis.response_delays.mean().unwrap_or(Duration::ZERO);
                ma.cmp(&mb)
            }
        })
    });
}

fn traced_connection(
    rec: &mut Recorder,
    c: &mut Counters,
    vantage: Vantage,
    conn: &Connection,
    item: usize,
) -> ConnectionReport {
    let description = format!("{} -> {}", conn.sender, conn.receiver);
    let packets = conn.records.len() as u64;
    c.conns += 1;
    let fingerprint = if vantage == Vantage::Receiver {
        Vec::new()
    } else {
        // The profile list is built inside the span, as `fingerprint` does.
        rec.open(Layer::Fingerprint);
        let profiles = all_profiles();
        let mut results = Vec::new();
        for cfg in profiles.iter() {
            if let Some(fit) = rec.time(Layer::Replay, || fingerprint_one(conn, cfg)) {
                results.push(fit);
            }
        }
        rank(&mut results);
        rec.close();
        let calls = profiles.len() as u64;
        c.replay_calls += calls;
        c.replay_packets += calls * packets;
        c.replay_packets_by_item[item] += calls * packets;
        c.fingerprinted_conns += 1;
        c.candidates += results.len() as u64;
        c.close_fits += results.iter().filter(|r| r.fit == FitClass::Close).count() as u64;
        results
    };
    let receiver = if vantage == Vantage::Sender {
        None
    } else {
        c.receiver_packets += packets;
        let rx = rec.time(Layer::Receiver, || analyze_receiver(conn));
        c.receiver_acks += rx.as_ref().map_or(0, |r| r.acks.len() as u64);
        rx
    };
    let receiver_fingerprint = if vantage == Vantage::Receiver {
        c.receiver_fp_packets += packets;
        rec.time(Layer::ReceiverFp, || fingerprint_receiver(conn))
    } else {
        Vec::new()
    };
    ConnectionReport {
        fingerprint,
        receiver,
        receiver_fingerprint,
        handshake: rec.time(Layer::Handshake, || analyze_handshake(conn)),
        stats: rec.time(Layer::Stats, || ConnStats::of(conn)),
        description,
    }
}

/// One item through the decomposed pipeline; returns its rendered report.
fn traced_item(
    rec: &mut Recorder,
    c: &mut Counters,
    mode: &Mode,
    path: &Path,
    item: usize,
) -> Result<String, String> {
    rec.set_item(item);
    rec.open(Layer::Item);
    let trace = rec.time(Layer::Ingest, || ingest(path, mode.salvage, c))?;
    let vantage = match mode.vantage {
        Some(v) => v,
        None => {
            c.vantage_calls += 1;
            c.vantage_packets += trace.len() as u64;
            rec.time(Layer::Vantage, || Analyzer::auto(&trace))
                .vantage()
        }
    };
    c.calibrate_packets += trace.len() as u64;
    let (clean, calibration) = rec.time(Layer::Calibrate, || {
        Calibrator { vantage }.calibrate(&trace)
    });
    c.calibrate_findings += (calibration.duplicates.len()
        + calibration.time_travel.len()
        + calibration.resequencing.len()
        + calibration.drop_evidence.len()) as u64;
    c.split_packets += clean.len() as u64;
    let conns = rec.time(Layer::Split, || Connection::split(&clean));
    c.split_connections += conns.len() as u64;
    let connections = conns
        .iter()
        .map(|conn| traced_connection(rec, c, vantage, conn, item))
        .collect();
    let report = AnalysisReport {
        connections,
        calibration,
    };
    let text = if mode.batch {
        rec.close();
        // Batch mode never renders per item: render outside the timing,
        // for the equivalence check only.
        report.render()
    } else {
        let text = rec.time(Layer::Render, || report.render());
        rec.close();
        c.render_bytes += text.len() as u64;
        text
    };
    Ok(text)
}

/// Sorted `*.pcap` paths of a directory, as the CLI expands it.
fn corpus_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "pcap"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .pcap files", dir.display()));
    }
    Ok(paths)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the traced driver over `work/corpus`, writes `work/spans.tsv`
/// (and, for batch workloads, `work/census.txt`), and returns the
/// per-layer metrics and checks as one JSON object.
pub fn run(workload: Workload, work: &Path, min_seconds: f64) -> Result<String, String> {
    let mode = Mode::of(workload);
    let paths = corpus_paths(&work.join("corpus"))?;
    let items = paths.len();

    // Traced passes: at least one, more while the budget lasts. Every
    // pass must count exactly the same work.
    let mut rec = Recorder::with_capacity(items * 64 * 4);
    let mut counters: Option<Counters> = None;
    let mut counters_repeat = true;
    let mut renders = Vec::new();
    let mut passes = 0usize;
    let started = stopwatch();
    while passes == 0 || (passes < MAX_PASSES && started.elapsed().as_secs_f64() < min_seconds) {
        let mut c = Counters {
            replay_packets_by_item: vec![0; items],
            ..Counters::default()
        };
        let mut pass_renders = Vec::with_capacity(items);
        for (item, path) in paths.iter().enumerate() {
            pass_renders.push(traced_item(&mut rec, &mut c, &mode, path, item)?);
        }
        match &counters {
            None => {
                counters = Some(c);
                renders = pass_renders;
            }
            Some(first) => counters_repeat &= *first == c,
        }
        passes += 1;
    }
    let c = counters.expect("at least one pass");

    // Untraced pass: the program's own entry point, timed per item with no
    // spans, and the equivalence check against the traced renders.
    let mut untraced_ns = 0u64;
    let mut equivalent = 0usize;
    for (path, traced) in paths.iter().zip(&renders) {
        let mut scratch = Counters::default();
        let t0 = stopwatch();
        let trace = ingest(path, mode.salvage, &mut scratch)?;
        let report = mode.analyzer(&trace).analyze(&trace);
        let text = if mode.batch {
            untraced_ns += t0.elapsed().as_nanos() as u64;
            report.render()
        } else {
            let text = report.render();
            untraced_ns += t0.elapsed().as_nanos() as u64;
            text
        };
        if text == *traced {
            equivalent += 1;
        }
    }

    // Batch workloads print one census: time CorpusReport::render on the
    // library's own corpus run, and keep the census so the harness can
    // compare it with the CLI's stdout.
    let (render_ns_per_item, render_bytes) = if mode.batch {
        let config = CorpusConfig {
            jobs: 1,
            vantage: mode.vantage.unwrap_or(Vantage::Unknown),
            degrade: if mode.salvage {
                DegradePolicy::Salvage
            } else {
                DegradePolicy::Skip
            },
            ..CorpusConfig::default()
        };
        let report = analyze_corpus(MemorySource::from_pcap_files(paths.clone()), &config);
        let mut samples = Vec::with_capacity(RENDER_REPS);
        let mut census = String::new();
        for _ in 0..RENDER_REPS {
            let t0 = stopwatch();
            census = std::hint::black_box(report.render());
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        std::fs::write(work.join("census.txt"), &census).map_err(|e| e.to_string())?;
        (quantile(&samples, 0.5) / items as f64, census.len() as u64)
    } else {
        (0.0, c.render_bytes)
    };

    std::fs::write(work.join("spans.tsv"), rec.dump()).map_err(|e| e.to_string())?;

    // Self time per layer, averaged over passes.
    let own = rec.self_times();
    let mut layer_ns = [0f64; Layer::COUNT];
    let mut replay_ns_by_item = vec![0f64; items];
    let mut item_samples = Vec::with_capacity(items * passes);
    let mut item_total = 0f64;
    for (span, &ns) in rec.spans().iter().zip(&own) {
        layer_ns[span.layer as usize] += ns as f64 / passes as f64;
        match span.layer {
            Layer::Item => {
                item_samples.push(span.duration());
                item_total += span.duration() as f64 / passes as f64;
            }
            Layer::Replay => replay_ns_by_item[span.item as usize] += ns as f64 / passes as f64,
            _ => {}
        }
    }
    let ns = |layer: Layer| layer_ns[layer as usize];
    let render_ns = if mode.batch {
        render_ns_per_item
    } else {
        ratio(ns(Layer::Render), items as f64)
    };

    // Replay cost per packet on the biggest items over the smallest.
    let replayed: Vec<(u64, f64)> = c
        .replay_packets_by_item
        .iter()
        .zip(&replay_ns_by_item)
        .filter(|(&p, _)| p > 0)
        .map(|(&p, &t)| (p, t))
        .collect();
    let growth = match (
        replayed.iter().map(|r| r.0).max(),
        replayed.iter().map(|r| r.0).min(),
    ) {
        (Some(max), Some(min)) => {
            let pooled = |keep: &dyn Fn(u64) -> bool| {
                let (p, t) = replayed
                    .iter()
                    .filter(|r| keep(r.0))
                    .fold((0u64, 0f64), |acc, r| (acc.0 + r.0, acc.1 + r.1));
                ratio(t, p as f64)
            };
            ratio(pooled(&|p| p * 2 >= max), pooled(&|p| p <= min * 2))
        }
        _ => 0.0,
    };

    let other_frac = ratio(ns(Layer::Item), item_total);
    let metrics: Vec<(&str, f64)> = vec![
        (
            "ingest.ns_per_packet",
            ratio(ns(Layer::Ingest), c.ingest_records as f64),
        ),
        ("ingest.records", c.ingest_records as f64),
        ("ingest.bytes", c.ingest_bytes as f64),
        (
            "ingest.salvage.bytes_skipped",
            c.salvage_bytes_skipped as f64,
        ),
        (
            "vantage.ns_per_packet",
            ratio(ns(Layer::Vantage), c.vantage_packets as f64),
        ),
        ("vantage.calls", c.vantage_calls as f64),
        (
            "calibrate.ns_per_packet",
            ratio(ns(Layer::Calibrate), c.calibrate_packets as f64),
        ),
        ("calibrate.findings", c.calibrate_findings as f64),
        (
            "split.ns_per_packet",
            ratio(ns(Layer::Split), c.split_packets as f64),
        ),
        ("split.connections", c.split_connections as f64),
        (
            "sender_replay.ns_per_packet",
            ratio(ns(Layer::Replay), c.replay_packets as f64),
        ),
        ("sender_replay.calls", c.replay_calls as f64),
        ("sender_replay.packets", c.replay_packets as f64),
        ("sender_replay.growth", growth),
        (
            "fingerprint.rank_ns_per_conn",
            ratio(ns(Layer::Fingerprint), c.fingerprinted_conns as f64),
        ),
        (
            "fingerprint.close_frac",
            ratio(c.close_fits as f64, c.candidates as f64),
        ),
        (
            "receiver.ns_per_packet",
            ratio(ns(Layer::Receiver), c.receiver_packets as f64),
        ),
        (
            "receiver_fp.ns_per_packet",
            ratio(ns(Layer::ReceiverFp), c.receiver_fp_packets as f64),
        ),
        ("receiver.acks", c.receiver_acks as f64),
        (
            "handshake.ns_per_conn",
            ratio(ns(Layer::Handshake), c.conns as f64),
        ),
        ("stats.ns_per_conn", ratio(ns(Layer::Stats), c.conns as f64)),
        ("render.ns_per_item", render_ns),
        ("render.bytes", render_bytes as f64),
        ("item.p50_ms", quantile(&item_samples, 0.5) / 1e6),
        ("item.p90_ms", quantile(&item_samples, 0.9) / 1e6),
        ("item.samples", item_samples.len() as f64),
        (
            "trace.overhead_frac",
            ratio(item_total, untraced_ns as f64) - 1.0,
        ),
        ("other.frac", other_frac),
    ];

    let mut out = String::from("{\"metrics\": {");
    for (n, (name, value)) in metrics.iter().enumerate() {
        let sep = if n == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    let _ = write!(
        out,
        "}}, \"checks\": {{\"items\": {items}, \"equivalent\": {equivalent}, \"coverage\": {}, \
         \"counters_repeat\": {counters_repeat}, \"passes\": {passes}, \"serial_item_s\": {}}}}}",
        1.0 - other_frac,
        untraced_ns as f64 / 1e9
    );
    Ok(out)
}
