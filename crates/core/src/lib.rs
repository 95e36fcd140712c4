#![warn(missing_docs)]

//! `tcpanaly` — automated packet-trace analysis of TCP implementations.
//!
//! A Rust reproduction of the tool described in Vern Paxson, *Automated
//! Packet Trace Analysis of TCP Implementations*, SIGCOMM 1997. Given a
//! packet-filter trace of one bulk-transfer TCP connection, the analyzer:
//!
//! 1. **Calibrates the trace** ([`calibrate`]) — removes measurement
//!    duplicates (§3.1.2), detects timestamp "time travel" (§3.1.4),
//!    flags filter resequencing (§3.1.3), and runs the self-consistency
//!    checks that distinguish *packet-filter drops* from genuine network
//!    drops (§3.1.1).
//! 2. **Analyzes sender behavior** ([`sender`]) — replays the trace
//!    against a coded model of a candidate TCP implementation, computing
//!    *data liberations*, per-packet *response delays*, *window
//!    violations* and *lulls* (§6.1), and inferring implicit state: the
//!    sender window and unseen ICMP source-quench messages (§6.2).
//! 3. **Analyzes receiver behavior** ([`receiver`]) — tracks *ack
//!    obligations*, flags *gratuitous acks*, classifies acks as
//!    delayed / normal / stretch, and infers packet corruption from
//!    behavior when checksums cannot be verified (§7, §9).
//! 4. **Fingerprints the implementation** ([`fingerprint`]) — runs every
//!    known behavior profile against the trace and sorts them into
//!    *close*, *imperfect* and *clearly-incorrect* fits (§5, §6.1).
//!
//! At corpus scale, [`corpus`] shards many traces across worker threads
//! and merges the per-trace conclusions into a deterministic census
//! (the paper analyzed tens of thousands of traces this way).
//!
//! The per-implementation behavioral knowledge (the paper's 1,400 lines of
//! C++ subclasses) is shared with the endpoint simulators: it lives in
//! `tcpa-tcpsim`'s [`TcpConfig`](tcpa_tcpsim::TcpConfig) and pure
//! congestion rules, which this crate *replays* rather than executes.
//!
//! ```no_run
//! use tcpanaly::Analyzer;
//! use tcpa_trace::pcap_io;
//!
//! let (trace, _) = pcap_io::read_pcap(std::fs::File::open("conn.pcap")?)?;
//! let report = Analyzer::new().analyze(&trace);
//! println!("{}", report.render());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use tcpa_obs as obs;

pub mod calibrate;
pub mod corpus;
pub mod fingerprint;
pub mod handshake;
pub mod receiver;
pub mod report;
pub mod sender;

pub use calibrate::{CalibrationReport, Calibrator};
pub use corpus::{analyze_corpus, Census, CorpusConfig, CorpusReport, ItemOutcome, ItemReport};
pub use fingerprint::{FingerprintResult, FitClass};
pub use handshake::{analyze_handshake, BackoffShape, HandshakeAnalysis};
pub use receiver::{AckClass, ReceiverAnalysis};
pub use report::{AnalysisReport, Analyzer};
pub use sender::{IssueDetail, SenderAnalysis, SenderIssue};
