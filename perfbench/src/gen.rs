//! Seeded corpus generator for the three workloads.
//!
//! One process, one seed, no timing: it simulates every transfer, writes
//! the pcaps, and writes `manifest.json` with the records each item must
//! yield, so a run can check the analyzer's packet totals against numbers
//! that were fixed before the analyzer saw the bytes. The shape of each
//! corpus (sizes, rates, which items lose packets or get damaged) depends
//! only on the item index; the seed varies simulation seeds, loss periods
//! and delay jitter, so runs on different seeds do the same amount of work
//! give or take a few percent.

use std::fmt::Write as _;
use std::path::Path;

use tcpa_filter::FilterConfig;
use tcpa_netsim::rng::SplitMix64;
use tcpa_netsim::LossModel;
use tcpa_tcpsim::harness::{run_transfer, PathSpec};
use tcpa_tcpsim::profiles::{all_profiles, reno, solaris_2_4, tahoe};
use tcpa_trace::mangle::{inject, FaultKind};
use tcpa_trace::{pcap_io, Duration, Trace};
use tcpa_wire::TsResolution;

use crate::Workload;

/// Census corpus size: 48 traces of each of the 22 profiles.
const CENSUS_ITEMS: usize = 22 * 48;
/// Receiver-forensics corpus size.
const RECEIVER_ITEMS: usize = 1440;
/// Long-flow transfer sizes: 100 KB doubling to 6.4 MB.
const LONG_FLOW_SIZES: usize = 7;

/// Bottleneck rates the census cycles through, 64 kb/s to 10 Mb/s.
const RATES: [u64; 6] = [64_000, 256_000, 1_544_000, 4_000_000, 10_000_000, 128_000];

/// One generated corpus item, as the manifest records it.
struct Item {
    file: String,
    records: usize,
    bytes: usize,
    damaged: bool,
}

/// Mixes the run seed with an item index into an independent stream.
fn item_rng(seed: u64, index: usize) -> SplitMix64 {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64();
    rng
}

fn to_pcap(trace: &Trace) -> Vec<u8> {
    pcap_io::write_pcap(trace, Vec::new(), TsResolution::Micro, 0).expect("pcap into a Vec")
}

/// Byte offsets of every record header in a well-formed little-endian
/// capture written by [`to_pcap`].
fn record_offsets(bytes: &[u8]) -> Vec<u64> {
    let mut offsets = Vec::new();
    let mut pos = 24usize;
    while pos + 16 <= bytes.len() {
        offsets.push(pos as u64);
        let incl = u32::from_le_bytes([
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]) as usize;
        pos += 16 + incl;
    }
    offsets
}

/// Damages a clean capture with one fault whose effect on the record
/// count is known: a bogus timestamp loses the one record it hits, and a
/// cut inside a record (header or data) keeps only the records before it.
/// Garbage splices and bogus lengths are left out: in about one injection
/// in 10^4 to 10^5 the salvage reader resynchronizes on a false header and
/// loses a different number of records, which would fail a correct run.
fn damage(bytes: &[u8], kind: FaultKind, seed: u64) -> (Vec<u8>, usize) {
    let offsets = record_offsets(bytes);
    let (mangled, fault) = inject(bytes, kind, seed).expect("clean capture hosts the fault");
    let expected = match kind {
        FaultKind::CorruptTimestamp => offsets.len() - 1,
        FaultKind::TruncatedRecordHeader | FaultKind::MidRecordEof => offsets
            .iter()
            .position(|&o| o == fault.offset)
            .expect("fault offset is a record header"),
        other => panic!("fault kind {other} has no predictable record count"),
    };
    (mangled, expected)
}

fn census_item(seed: u64, i: usize) -> (String, Trace) {
    let profiles = all_profiles();
    let mut rng = item_rng(seed, i);
    let cfg = profiles[i % profiles.len()].clone();
    let mut path = PathSpec {
        rate_bps: RATES[(i / 22) % RATES.len()],
        ..PathSpec::default()
    };
    path.one_way_delay =
        Duration::from_millis(5 + 40 * ((i / 132) % 4) as i64 + rng.next_below(10) as i64);
    // Periodic loss on 3 traces in 10: recovery is what separates the
    // profiles, and it is where replay does the most work.
    if (i / 22 + i) % 10 < 3 {
        path.loss_data = LossModel::Periodic(12 + rng.next_below(24));
    }
    let out = run_transfer(cfg.clone(), reno(), &path, 102_400, rng.next_u64());
    (format!("c{i:04}.pcap"), out.sender_trace())
}

fn long_flow_item(seed: u64, i: usize) -> (String, Trace) {
    let size_step = i / 2;
    let lossy = i % 2 == 1;
    let mut rng = item_rng(seed, i);
    // Solaris 2.4's replay cost swings by 2x with the loss period, which
    // would make the seed, not the code, move the figures: lossy traces
    // alternate Reno and Tahoe, whose cost is flat across periods.
    let cfg = if lossy {
        [tahoe(), reno()][size_step % 2].clone()
    } else {
        [reno(), solaris_2_4(), tahoe()][size_step % 3].clone()
    };
    let mut path = PathSpec::default();
    if lossy {
        path.loss_data = LossModel::Periodic(40 + rng.next_below(20));
    }
    let bytes = 102_400u64 << size_step;
    let out = run_transfer(cfg, reno(), &path, bytes, rng.next_u64());
    (
        format!("l{size_step}-{}.pcap", if lossy { "loss" } else { "clean" }),
        out.sender_trace(),
    )
}

/// A receiver-vantage capture; some pass through a measurement-error
/// filter preset (duplication, resequencing, time travel).
fn receiver_item(seed: u64, i: usize) -> (String, Trace) {
    let profiles = all_profiles();
    let mut rng = item_rng(seed, i);
    let sender = profiles[(i * 7) % profiles.len()].clone();
    let receiver = profiles[i % profiles.len()].clone();
    let mut path = PathSpec {
        rate_bps: RATES[(i / 22) % 4 + 1],
        ..PathSpec::default()
    };
    path.one_way_delay = Duration::from_millis(10 + 20 * (i % 4) as i64 + rng.next_below(5) as i64);
    if i % 4 == 1 {
        path.loss_data = LossModel::Periodic(15 + rng.next_below(20));
    }
    let bytes = 16_384 + 16_800 * (i % 6) as u64;
    let out = run_transfer(sender, receiver, &path, bytes, rng.next_u64());
    let filter = match i % 8 {
        1 => Some(FilterConfig::irix_duplicating()),
        3 => Some(FilterConfig::solaris_resequencing()),
        5 => Some(FilterConfig::time_travelling(out.finished_at)),
        _ => None,
    };
    let trace = match filter {
        Some(cfg) => tcpa_filter::apply(&out.receiver_tap, &cfg, rng.next_u64()).0,
        None => out.receiver_trace(),
    };
    (format!("r{i:04}.pcap"), trace)
}

/// Writes the workload's corpus under `out/corpus`, its smallest item
/// under `out/smallest`, and `out/manifest.json`.
pub fn generate(workload: Workload, seed: u64, out: &Path) -> std::io::Result<()> {
    let corpus = out.join("corpus");
    let smallest_dir = out.join("smallest");
    std::fs::create_dir_all(&corpus)?;
    std::fs::create_dir_all(&smallest_dir)?;
    let count = match workload {
        Workload::Census => CENSUS_ITEMS,
        Workload::LongFlow => 2 * LONG_FLOW_SIZES,
        Workload::ReceiverForensics => RECEIVER_ITEMS,
    };
    let faults = [
        FaultKind::CorruptTimestamp,
        FaultKind::TruncatedRecordHeader,
        FaultKind::MidRecordEof,
    ];
    let mut items = Vec::with_capacity(count);
    for i in 0..count {
        let (file, trace) = match workload {
            Workload::Census => census_item(seed, i),
            Workload::LongFlow => long_flow_item(seed, i),
            Workload::ReceiverForensics => receiver_item(seed, i),
        };
        let mut bytes = to_pcap(&trace);
        let mut records = trace.len();
        // One receiver capture in five is damaged on disk.
        let damaged = workload == Workload::ReceiverForensics && i % 5 == 2;
        if damaged {
            let kind = faults[(i / 5) % faults.len()];
            (bytes, records) = damage(&bytes, kind, item_rng(seed, i).next_u64());
        }
        std::fs::write(corpus.join(&file), &bytes)?;
        items.push(Item {
            file,
            records,
            bytes: bytes.len(),
            damaged,
        });
    }
    let smallest = items
        .iter()
        .min_by_key(|item| (item.bytes, item.file.clone()))
        .expect("corpus is not empty");
    std::fs::copy(
        corpus.join(&smallest.file),
        smallest_dir.join(&smallest.file),
    )?;
    std::fs::write(
        out.join("manifest.json"),
        manifest(workload, seed, &items, &smallest.file),
    )
}

fn manifest(workload: Workload, seed: u64, items: &[Item], smallest: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workload\": \"{}\",", workload.name());
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"records\": {},",
        items.iter().map(|i| i.records).sum::<usize>()
    );
    let _ = writeln!(
        out,
        "  \"damaged\": {},",
        items.iter().filter(|i| i.damaged).count()
    );
    let _ = writeln!(out, "  \"smallest\": \"{smallest}\",");
    let _ = writeln!(out, "  \"items\": [");
    for (n, item) in items.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"file\": \"{}\", \"records\": {}, \"bytes\": {}, \"damaged\": {}}}{}",
            item.file,
            item.records,
            item.bytes,
            item.damaged,
            if n + 1 < items.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
