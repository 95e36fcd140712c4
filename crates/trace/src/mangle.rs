//! Fault injection for capture files — the mangler.
//!
//! The paper's premise (§3) is that real measurement data is damaged:
//! packet filters drop, duplicate, resequence and mis-time records. The
//! *file-level* analogue is a capture that has been truncated, spliced,
//! or bit-rotted in transit — and an unattended corpus run must survive
//! it. This module deterministically injects that damage so the salvage
//! reader ([`crate::pcap_io::read_pcap_salvage_bytes`]) can be tested class
//! by class: every fault is tagged with a [`FaultKind`] and the byte offset
//! where it was applied.
//!
//! All injection is seeded and pure: the same input bytes, fault kind and
//! seed produce the same mangled bytes, so fixtures and property tests
//! are reproducible.

pub use tcpa_wire::pcap::FaultKind;
use tcpa_wire::pcap::{Layout, Records, MAX_INCL_LEN};

/// One fault the mangler applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The error class injected.
    pub kind: FaultKind,
    /// Byte offset (in the *mangled* output) where the damage starts.
    pub offset: u64,
}

/// Deterministic split-mix generator (the de-facto standard seeding PRNG;
/// self-contained so this crate stays dependency-free).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Writes `value` over the four bytes at `at`, in the capture's byte order.
fn put_u32(buf: &mut [u8], at: usize, layout: Layout, value: u32) {
    let bytes = if layout.swapped {
        value.to_be_bytes()
    } else {
        value.to_le_bytes()
    };
    buf[at..at + 4].copy_from_slice(&bytes);
}

/// Where one record of a capture sits: its header's byte offset and its
/// captured length.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: usize,
    len: usize,
}

/// The layout and record slots of a *well-formed* capture, read by the
/// strict walk. Returns `None` for anything else — the mangler only
/// damages intact files.
fn clean_records(bytes: &[u8]) -> Option<(Layout, Vec<Slot>)> {
    let mut walk = Records::strict(bytes).ok()?;
    let layout = walk.layout();
    let mut records = Vec::new();
    while let Some(rec) = walk.next_record() {
        records.push(Slot {
            offset: usize::try_from(rec.offset).ok()?,
            len: rec.data.len(),
        });
    }
    walk.finish().ok()?;
    Some((layout, records))
}

/// `true` for fault kinds that cut the file short (at most one such fault
/// is meaningful per file, and it must be the last damage applied).
fn is_truncating(kind: FaultKind) -> bool {
    matches!(
        kind,
        FaultKind::TruncatedGlobalHeader
            | FaultKind::TruncatedRecordHeader
            | FaultKind::MidRecordEof
    )
}

/// Applies one `kind` fault to `buf` targeting record `rec`, drawing any
/// free parameters (cut point, garbage length) from `rng`. Returns the
/// fault actually applied, or `None` when the record cannot host it
/// (e.g. a mid-record cut in an empty record).
fn apply(
    buf: &mut Vec<u8>,
    layout: Layout,
    rec: Slot,
    kind: FaultKind,
    rng: &mut SplitMix64,
) -> Option<InjectedFault> {
    let offset = match kind {
        FaultKind::TruncatedGlobalHeader => {
            let keep = 4 + rng.below(20) as usize; // magic survives, rest cut
            buf.truncate(keep);
            keep as u64
        }
        FaultKind::BadMagic => {
            put_u32(buf, 0, layout, 0x0bad_f00d);
            0
        }
        FaultKind::TruncatedRecordHeader => {
            let cut = rec.offset + 1 + rng.below(15) as usize;
            buf.truncate(cut);
            rec.offset as u64
        }
        FaultKind::MidRecordEof => {
            if rec.len < 2 {
                return None;
            }
            let cut = rec.offset + 16 + 1 + rng.below(rec.len as u64 - 1) as usize;
            buf.truncate(cut);
            rec.offset as u64
        }
        FaultKind::GarbageSplice => {
            let len = 16 + rng.below(240) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let at = rec.offset;
            buf.splice(at..at, garbage);
            at as u64
        }
        FaultKind::ZeroLength => {
            if rec.len == 0 {
                return None;
            }
            put_u32(buf, rec.offset + 8, layout, 0);
            rec.offset as u64
        }
        FaultKind::OversizedLength => {
            let bogus = MAX_INCL_LEN + 1 + rng.below(0x1000) as u32;
            put_u32(buf, rec.offset + 8, layout, bogus);
            rec.offset as u64
        }
        FaultKind::CorruptTimestamp => {
            let units = layout.resolution.units_per_sec();
            let room = u64::from(u32::MAX) - units;
            let bogus = (units + 1 + rng.below(room)) as u32;
            put_u32(buf, rec.offset + 4, layout, bogus);
            rec.offset as u64
        }
    };
    Some(InjectedFault { kind, offset })
}

/// Injects exactly one fault of `kind` into a clean capture, choosing the
/// target record and free parameters deterministically from `seed`.
///
/// Returns `None` when `bytes` is not a well-formed capture or has no
/// record able to host the fault.
pub fn inject(bytes: &[u8], kind: FaultKind, seed: u64) -> Option<(Vec<u8>, InjectedFault)> {
    let (layout, records) = clean_records(bytes)?;
    if records.is_empty() {
        return None;
    }
    let mut rng = SplitMix64::new(seed ^ (kind as u64).wrapping_mul(0x9e37_79b9));
    // Target a mid-corpus record so damage sits between good records
    // (truncations naturally target wherever they cut).
    let rec = records[rng.below(records.len() as u64) as usize];
    let mut out = bytes.to_vec();
    let fault = apply(&mut out, layout, rec, kind, &mut rng)?;
    Some((out, fault))
}

/// How to mangle a capture: which classes, how many faults, which seed.
#[derive(Debug, Clone)]
pub struct MangleSpec {
    /// Seed for every random choice (target records, cut points, garbage).
    pub seed: u64,
    /// Number of faults to inject (best effort: faults that cannot be
    /// hosted are skipped, and at most one truncating fault applies).
    pub faults: usize,
    /// The classes to draw from.
    pub kinds: Vec<FaultKind>,
}

impl Default for MangleSpec {
    fn default() -> MangleSpec {
        MangleSpec {
            seed: 0x7c9a_0001,
            faults: 1,
            kinds: FaultKind::ALL.to_vec(),
        }
    }
}

/// Injects up to `spec.faults` faults into a clean capture.
///
/// Non-truncating faults target distinct records, applied back-to-front so
/// earlier offsets stay valid; at most one truncating fault is kept and it
/// is applied at the highest-offset target, so every reported
/// [`InjectedFault`] survives into the returned bytes. Returns the input
/// unchanged (no faults) when it is not a well-formed capture.
pub fn mangle(bytes: &[u8], spec: &MangleSpec) -> (Vec<u8>, Vec<InjectedFault>) {
    let Some((layout, records)) = clean_records(bytes) else {
        return (bytes.to_vec(), Vec::new());
    };
    if records.is_empty() || spec.kinds.is_empty() || spec.faults == 0 {
        return (bytes.to_vec(), Vec::new());
    }
    let mut rng = SplitMix64::new(spec.seed);

    // Draw kinds; keep at most one truncating fault.
    let mut truncating: Option<FaultKind> = None;
    let mut in_place: Vec<FaultKind> = Vec::new();
    for _ in 0..spec.faults {
        let kind = spec.kinds[rng.below(spec.kinds.len() as u64) as usize];
        if is_truncating(kind) {
            truncating.get_or_insert(kind);
        } else {
            in_place.push(kind);
        }
    }

    // Assign distinct target records: a Fisher-Yates shuffle of indices.
    let mut order: Vec<usize> = (0..records.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    in_place.truncate(
        order
            .len()
            .saturating_sub(usize::from(truncating.is_some())),
    );

    // Plan: truncation targets the last record; in-place faults target
    // shuffled earlier records. Apply in descending offset order.
    let mut plan: Vec<(Slot, FaultKind)> = Vec::new();
    if let Some(kind) = truncating {
        let rec = if kind == FaultKind::TruncatedGlobalHeader {
            records[0] // ignored by apply; header damage has no record target
        } else {
            records[records.len() - 1]
        };
        plan.push((rec, kind));
    }
    let reserved = usize::from(truncating.is_some());
    for (kind, &idx) in in_place.iter().zip(
        order
            .iter()
            .filter(|&&i| i + reserved < records.len() || reserved == 0),
    ) {
        plan.push((records[idx], *kind));
    }
    plan.sort_by_key(|p| std::cmp::Reverse(p.0.offset));

    let mut out = bytes.to_vec();
    let mut faults: Vec<InjectedFault> = Vec::new();
    for (rec, kind) in plan {
        // A global-header truncation wipes the whole record stream; it is
        // only applied alone.
        if kind == FaultKind::TruncatedGlobalHeader && !faults.is_empty() {
            continue;
        }
        let before = out.len();
        if let Some(fault) = apply(&mut out, layout, rec, kind, &mut rng) {
            // A splice inserts bytes at its offset, shifting every fault
            // already applied (they all sit at higher offsets).
            let inserted = out.len().saturating_sub(before) as u64;
            if inserted > 0 {
                for prior in &mut faults {
                    if prior.offset > fault.offset {
                        prior.offset += inserted;
                    }
                }
            }
            faults.push(fault);
            if kind == FaultKind::TruncatedGlobalHeader {
                break;
            }
        }
    }
    faults.sort_by_key(|f| f.offset);
    (out, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap_io::{read_pcap_salvage_bytes, write_pcap};
    use crate::record::test_util::rec;
    use crate::record::Trace;
    use tcpa_wire::{TcpFlags, TsResolution};

    fn clean_capture() -> Vec<u8> {
        let trace: Trace = vec![
            rec(0, 1, 2, TcpFlags::SYN, 100, 0, 0),
            rec(5, 2, 1, TcpFlags::SYN | TcpFlags::ACK, 900, 0, 101),
            rec(10, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 101, 512, 901),
            rec(15, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 613, 512, 901),
            rec(20, 2, 1, TcpFlags::ACK, 901, 0, 1125),
        ]
        .into_iter()
        .collect();
        write_pcap(&trace, Vec::new(), TsResolution::Micro, 0).expect("vec write")
    }

    #[test]
    fn inject_is_deterministic() {
        let clean = clean_capture();
        for kind in FaultKind::ALL {
            let a = inject(&clean, kind, 42).expect("fault applies");
            let b = inject(&clean, kind, 42).expect("fault applies");
            assert_eq!(a, b, "{kind}: same seed must give same bytes");
        }
    }

    #[test]
    fn every_kind_damages_the_file() {
        let clean = clean_capture();
        let (_, clean_report) = read_pcap_salvage_bytes(&clean);
        assert!(clean_report.is_clean());
        for kind in FaultKind::ALL {
            let (mangled, fault) = inject(&clean, kind, 7).expect("fault applies");
            assert_eq!(fault.kind, kind);
            assert_ne!(mangled, clean, "{kind}: output must differ");
            let (_, report) = read_pcap_salvage_bytes(&mangled);
            assert!(!report.is_clean(), "{kind}: salvage must notice the damage");
            assert!(
                report.records <= clean_report.records + 1,
                "{kind}: salvage must not invent records"
            );
        }
    }

    #[test]
    fn mangle_reports_offsets_into_the_output() {
        let clean = clean_capture();
        let spec = MangleSpec {
            seed: 99,
            faults: 3,
            kinds: vec![
                FaultKind::GarbageSplice,
                FaultKind::CorruptTimestamp,
                FaultKind::ZeroLength,
            ],
        };
        let (mangled, faults) = mangle(&clean, &spec);
        assert!(!faults.is_empty());
        for f in &faults {
            assert!(
                (f.offset as usize) < mangled.len(),
                "{f:?} points outside the output"
            );
        }
        // Deterministic for the same spec.
        let (mangled2, faults2) = mangle(&clean, &spec);
        assert_eq!(mangled, mangled2);
        assert_eq!(faults, faults2);
    }

    #[test]
    fn mangle_on_garbage_input_is_a_no_op() {
        let garbage = vec![1u8, 2, 3, 4, 5];
        let (out, faults) = mangle(&garbage, &MangleSpec::default());
        assert_eq!(out, garbage);
        assert!(faults.is_empty());
    }
}
