#![warn(missing_docs)]

//! `tcpa-trace` — the packet-trace data model shared by the simulators and
//! the analyzer.
//!
//! A [`Trace`] is the sequence of packets one
//! *measurement point* (a packet filter at some vantage point) recorded for
//! one or more TCP connections. This crate provides:
//!
//! * [`time`] — nanosecond [`Time`]/[`Duration`] newtypes. Signed, because
//!   packet-filter clocks really do run backwards (§3.1.4 "time travel").
//! * [`record`] — [`TraceRecord`], one captured TCP/IP packet, plus
//!   [`Trace`].
//! * [`conn`] — splitting a trace into [`Connection`]s and orienting each
//!   packet as data-sender → receiver or the reverse.
//! * [`stats`] — small summary-statistics helpers used throughout the
//!   analyzer (response-delay summaries, ack-delay histograms).
//! * [`plot`] — time/sequence-number plot extraction and ASCII rendering,
//!   the reproduction's stand-in for the paper's sequence plots.
//! * [`pcap_io`] — conversion between [`Trace`] and libpcap capture files,
//!   including salvage-mode ingest of damaged captures.
//! * [`mangle`] — seeded fault injection into capture bytes (the §3 error
//!   taxonomy at file level), for testing graceful degradation.
//! * [`source`] — corpus items ([`CorpusItem`]) and the item list
//!   ([`MemorySource`]) feeding the batch-analysis pipeline in `tcpanaly`.

pub mod conn;
pub mod connstats;
pub mod mangle;
pub mod pcap_io;
pub mod plot;
pub mod record;
pub mod source;
pub mod stats;
pub mod time;

pub use conn::{ConnKey, Connection, Dir, Endpoint};
pub use connstats::ConnStats;
pub use mangle::{FaultKind, InjectedFault, MangleSpec};
pub use pcap_io::IngestReport;
pub use record::{Trace, TraceRecord};
pub use source::{CorpusItem, LoadError, LoadMode, Loaded, MemorySource, TraceInput};
pub use stats::{Histogram, RunningMedian, Summary};
pub use time::{Duration, Time};
