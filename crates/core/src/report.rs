//! The one-call analyzer façade and its aggregate report.

use crate::calibrate::{calibrate_once, vote, Calibrated, CalibrationReport, Vantage};
use crate::fingerprint::{
    census_verdict, fingerprint, receiver_fits, CensusVerdict, FingerprintResult, FitClass,
    ReceiverFit,
};
use crate::handshake::{analyze_handshake, HandshakeAnalysis};
use crate::receiver::{analyze_receiver, AckClass, ReceiverAnalysis};
use std::io::Write as _;
use tcpa_obs::Span;
use tcpa_trace::{Connection, Duration, Trace};

/// Everything tcpanaly concludes about one trace
/// ([`Calibrated::analyze`]).
#[derive(Debug)]
pub struct AnalysisReport {
    /// Per-connection results, in first-seen order.
    pub connections: Vec<ConnectionReport>,
    /// Trace-level calibration findings (§3).
    pub calibration: CalibrationReport,
}

/// Results for a single connection.
#[derive(Debug)]
pub struct ConnectionReport {
    /// The connection's endpoints, rendered.
    pub description: String,
    /// Candidate implementations ranked by fit (§5, §6.1); empty if the
    /// connection carried no analyzable bulk data or was seen from the
    /// receiver.
    pub fingerprint: Vec<FingerprintResult>,
    /// Receiver-side analysis (§7, §9), when data flowed.
    pub receiver: Option<ReceiverAnalysis>,
    /// Receiver-side implementation candidates, consistent first (only
    /// from a receiver vantage).
    pub receiver_fingerprint: Vec<ReceiverFit>,
    /// Connection-establishment (SYN retry) analysis.
    pub handshake: Option<HandshakeAnalysis>,
    /// Trace-derived accounting (packet/byte/retransmission counts).
    pub stats: Option<tcpa_trace::ConnStats>,
}

impl ConnectionReport {
    /// The best-fitting implementation name, if any candidate was close.
    pub fn best_fit(&self) -> Option<&'static str> {
        self.fingerprint
            .first()
            .filter(|r| r.fit == FitClass::Close)
            .map(|r| r.name)
    }
}

/// The analyzer façade: calibrate, split, fingerprint, analyze.
#[derive(Debug, Default)]
pub struct Analyzer {
    pub(crate) vantage: Vantage,
}

impl Analyzer {
    /// An analyzer that infers each trace's vantage point (§3.2).
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Declares the trace captured at the data sender.
    pub fn at_sender() -> Analyzer {
        Analyzer {
            vantage: Vantage::Sender,
        }
    }

    /// Declares the trace captured at the receiver.
    pub fn at_receiver() -> Analyzer {
        Analyzer {
            vantage: Vantage::Receiver,
        }
    }

    /// Infers the vantage point from the trace itself (§3.2): whichever
    /// endpoint answers its stimuli within sub-milliseconds is the one
    /// the filter sat beside. Falls back to unknown when ambiguous.
    ///
    /// This calibrates the trace; to go on and analyze it, use
    /// [`Analyzer::new`], which infers the vantage inside its own
    /// calibration pass.
    pub fn auto(trace: &Trace) -> Analyzer {
        Analyzer {
            vantage: Analyzer::new().calibrate(trace.clone()).vantage,
        }
    }

    /// The vantage this analyzer assumes.
    pub fn vantage(&self) -> Vantage {
        self.vantage
    }

    /// Calibrates a trace once (§3) under this analyzer's vantage. When
    /// that is unknown, the connections the calibration split vote on it
    /// (each by [`crate::calibrate::infer_vantage`]) before the drop
    /// checks run, and the result carries the vantage they settled on.
    ///
    /// The trace's records move into the calibrated connections.
    pub fn calibrate(&self, trace: Trace) -> Calibrated {
        self.calibrate_open(trace).0
    }

    /// [`Analyzer::calibrate`], with its `stage.calibrate` span left open.
    pub(crate) fn calibrate_open(&self, trace: Trace) -> (Calibrated, Span) {
        let vantage = |connections: &[Connection]| match self.vantage {
            Vantage::Unknown => vote(connections),
            fixed => fixed,
        };
        let ((), calibrated, span) = calibrate_once(trace, vantage, |_| ());
        (calibrated, span)
    }

    /// Runs the full pipeline on a trace.
    ///
    /// Every stage records a wall-clock span into the global
    /// [`tcpa_obs`] registry (and into the per-trace audit trail when
    /// one is active): `stage.dedup`, `stage.split` and `stage.calibrate`,
    /// then per connection `stage.fingerprint`, `stage.receiver`,
    /// `stage.receiver_fingerprint`, `stage.handshake`, `stage.stats`,
    /// all under the umbrella `analyze.total`.
    pub fn analyze(&self, trace: &Trace) -> AnalysisReport {
        let _total = tcpa_obs::span("analyze.total");
        self.calibrate(trace.clone()).analyze()
    }
}

impl Calibrated {
    /// Runs the per-connection stages on the calibrated connections under
    /// the calibrated vantage.
    pub fn analyze(&self) -> AnalysisReport {
        AnalysisReport {
            connections: self
                .connections
                .iter()
                .map(|conn| self.analyze_connection(conn))
                .collect(),
            calibration: self.report.clone(),
        }
    }

    /// What the census reads of the calibrated connections: each one's
    /// [`census_verdict`], in connection order, and no other stage. At a
    /// receiver vantage (§6.1) no connection is read and every verdict is
    /// the default, no close fit. Each verdict gets one `stage.fingerprint`
    /// span, chained from `span`, the open span of the stage before; the
    /// last open span is returned.
    pub fn census(&self, mut span: Span) -> (Vec<CensusVerdict>, Span) {
        if self.vantage == Vantage::Receiver {
            return (vec![CensusVerdict::default(); self.connections.len()], span);
        }
        let mut verdicts = Vec::with_capacity(self.connections.len());
        for conn in &self.connections {
            span = span.then("stage.fingerprint");
            span.note(format!("{} -> {}", conn.sender, conn.receiver));
            verdicts.push(census_verdict(conn));
        }
        (verdicts, span)
    }

    fn analyze_connection(&self, conn: &Connection) -> ConnectionReport {
        // The connection key rides on every per-connection span so the
        // exported trace can answer "which connection was this?". It is
        // the connection's first piece of work, so its first span times it.
        // The stages run back to back, each span starting where the last
        // one ends.
        let mut span = tcpa_obs::span("stage.fingerprint");
        let key = format!("{} -> {}", conn.sender, conn.receiver);
        span.note(key.as_str());
        let fingerprint = match self.vantage {
            // Sender behavior can only be judged from a vantage at or
            // near the sender (§6.1); from elsewhere, network delay
            // between filter and sender poisons the response delays.
            Vantage::Receiver => Vec::new(),
            _ => fingerprint(conn),
        };
        let span = span.then("stage.receiver");
        let receiver = match self.vantage {
            Vantage::Sender => None,
            _ => analyze_receiver(conn),
        };
        let span = span.then("stage.receiver_fingerprint");
        let receiver_fingerprint = match (self.vantage, &receiver) {
            (Vantage::Receiver, Some(analysis)) => receiver_fits(analysis),
            _ => Vec::new(),
        };
        let span = span.then("stage.handshake");
        let handshake = analyze_handshake(conn);
        let span = span.then("stage.stats");
        let stats = tcpa_trace::ConnStats::of(conn);
        drop(span);
        ConnectionReport {
            fingerprint,
            receiver,
            receiver_fingerprint,
            handshake,
            stats,
            description: key,
        }
    }
}

/// The census writer's single stdout choke point. Everything tcpanaly
/// prints to stdout — census tables, reports, usage — goes through this
/// one call, so the byte-stability contract has exactly one site to
/// audit (the `no-raw-eprintln` lint rejects print macros everywhere).
/// Diagnostics do NOT belong here; route them through the `tcpa_obs`
/// logger, which owns stderr.
///
/// The text is written and flushed at once, so a reader that has gone
/// away (a closed pipe) surfaces here as an error instead of a panic.
pub fn emit_stdout(text: &str) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())?;
    out.flush()
}

impl AnalysisReport {
    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let dash = |d: Option<Duration>| d.map_or_else(|| "-".to_string(), |d| d.to_string());
        let c = &self.calibration;
        out.push_str("== Calibration (§3) ==\n");
        out.push_str(&format!(
            "  measurement duplicates removed: {}\n  time travel instances: {}\n  resequencing evidence: {}\n  filter-drop evidence: {}\n",
            c.duplicates.len(),
            c.time_travel.len(),
            c.resequencing.len(),
            c.drop_evidence.len()
        ));
        if c.ordering_untrustworthy() {
            out.push_str("  !! event ordering untrustworthy; cause-and-effect suspect\n");
        }
        for conn in &self.connections {
            out.push_str(&format!("\n== Connection {} ==\n", conn.description));
            if let Some(st) = &conn.stats {
                out.push_str(&format!(
                    "  {} data pkts ({} retransmitted, {:.0}%), {} unique bytes in {}, goodput {:.1} KB/s\n",
                    st.data_packets,
                    st.retransmitted_packets,
                    100.0 * st.retransmission_ratio(),
                    st.unique_bytes,
                    st.elapsed(),
                    st.goodput() / 1000.0,
                ));
            }
            if conn.fingerprint.is_empty() {
                out.push_str("  (no sender-side fingerprint from this vantage)\n");
            }
            for r in conn.fingerprint.iter().take(6) {
                let delays = &r.analysis.response_delays;
                out.push_str(&format!(
                    "  {:<22} {:<18} issues {:>2}  delays p50 {} p90 {}\n",
                    r.name,
                    r.fit.to_string(),
                    r.analysis.issues.len(),
                    dash(delays.median()),
                    dash(delays.percentile(90.0)),
                ));
            }
            if let Some(rx) = &conn.receiver {
                out.push_str(&format!(
                    "  receiver: {} delayed / {} normal / {} stretch / {} dup / {} gratuitous acks; policy {:?}\n",
                    rx.count(AckClass::Delayed),
                    rx.count(AckClass::Normal),
                    rx.count(AckClass::Stretch),
                    rx.count(AckClass::Duplicate),
                    rx.count(AckClass::Gratuitous),
                    rx.policy,
                ));
                if !rx.corrupt_arrivals.is_empty() {
                    out.push_str(&format!(
                        "  inferred corrupt arrivals: {}\n",
                        rx.corrupt_arrivals.len()
                    ));
                }
            }
            if !conn.receiver_fingerprint.is_empty() {
                let consistent: Vec<&str> = conn
                    .receiver_fingerprint
                    .iter()
                    .filter(|f| f.consistent)
                    .map(|f| f.name)
                    .collect();
                out.push_str(&format!(
                    "  receiver-side consistent candidates: {}\n",
                    if consistent.is_empty() {
                        "(none)".to_string()
                    } else {
                        consistent.join(", ")
                    }
                ));
            }
            if let Some(h) = conn.handshake.as_ref().filter(|h| h.retries() > 0) {
                out.push_str(&format!(
                    "  handshake: {} SYN retries, initial RTO {}, backoff {:?}\n",
                    h.retries(),
                    dash(h.initial_rto),
                    h.shape
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpa_tcpsim::harness::{run_transfer, PathSpec};
    use tcpa_tcpsim::profiles;

    /// `auto` then `analyze` calibrates twice; the one-pass path infers
    /// the vantage inside its single calibration. Both must agree.
    #[test]
    fn auto_then_analyze_renders_like_the_one_pass_auto_path() {
        let out = run_transfer(
            profiles::reno(),
            profiles::reno(),
            &PathSpec::default(),
            32 * 1024,
            41,
        );
        let sender = out.sender_trace();
        let receiver = out.receiver_trace();
        let too_small: Trace = sender.records.iter().take(5).cloned().collect();
        for (trace, vantage) in [
            (&sender, Vantage::Sender),
            (&receiver, Vantage::Receiver),
            (&too_small, Vantage::Unknown),
        ] {
            let auto = Analyzer::auto(trace);
            assert_eq!(auto.vantage(), vantage);
            let one_pass = Analyzer::new().calibrate(trace.clone());
            assert_eq!(one_pass.vantage, vantage);
            assert_eq!(auto.analyze(trace).render(), one_pass.analyze().render());
        }
    }
}
