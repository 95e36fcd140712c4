//! Property-based tests for the wire codecs: every valid value must
//! round-trip emit → parse unchanged, checksums must verify, and the
//! decoders must never panic on arbitrary bytes.

use proptest::prelude::*;
use tcpa_wire::{
    checksum, EthernetRepr, IpProtocol, Ipv4Addr, Ipv4Repr, MacAddr, SeqNum, TcpFlags, TcpRepr,
};

fn arb_ipv4_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_tcp_repr() -> impl Strategy<Value = TcpRepr> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u8..64,
        any::<u16>(),
        prop_oneof![Just(None), any::<u16>().prop_map(Some)],
    )
        .prop_map(|(sp, dp, seq, ack, flags, window, mss)| TcpRepr {
            src_port: sp,
            dst_port: dp,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags: TcpFlags(flags),
            window,
            urgent: 0,
            mss,
        })
}

/// The RFC 1071 definition, one big-endian 16-bit word at a time.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

proptest! {
    #[test]
    fn tcp_round_trips(repr in arb_tcp_repr(), payload in proptest::collection::vec(any::<u8>(), 0..256),
                       src in arb_ipv4_addr(), dst in arb_ipv4_addr()) {
        let mut buf = Vec::new();
        repr.emit(src, dst, &payload, &mut buf);
        prop_assert!(TcpRepr::verify_checksum(src, dst, &buf));
        let (parsed, got_payload) = TcpRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got_payload, &payload[..]);
    }

    #[test]
    fn tcp_detects_any_single_bit_flip(repr in arb_tcp_repr(),
                                       payload in proptest::collection::vec(any::<u8>(), 1..128),
                                       src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
                                       flip in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        repr.emit(src, dst, &payload, &mut buf);
        let idx = flip.index(buf.len());
        buf[idx] ^= 1 << bit;
        // A single bit flip is always caught by the ones'-complement sum.
        prop_assert!(!TcpRepr::verify_checksum(src, dst, &buf));
    }

    #[test]
    fn ipv4_round_trips(src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
                        ident in any::<u16>(), ttl in 1u8..=255,
                        payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let repr = Ipv4Repr {
            src, dst,
            protocol: IpProtocol::Tcp,
            ttl, ident,
            payload_len: payload.len(),
        };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&payload);
        let (parsed, got) = Ipv4Repr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn ethernet_round_trips(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), et in any::<u16>(),
                            payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let repr = EthernetRepr { dst: MacAddr(dst), src: MacAddr(src), ethertype: et.into() };
        let mut buf = Vec::new();
        repr.emit(&mut buf);
        buf.extend_from_slice(&payload);
        let (parsed, got) = EthernetRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(got, &payload[..]);
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = TcpRepr::parse(&bytes);
        let _ = Ipv4Repr::parse(&bytes);
        let _ = EthernetRepr::parse(&bytes);
    }

    #[test]
    fn checksum_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                            cut in any::<proptest::sample::Index>()) {
        let split = cut.index(data.len() + 1) & !1; // even split point
        let mut inc = checksum::Checksum::new();
        inc.add_bytes(&data[..split]);
        inc.add_bytes(&data[split..]);
        prop_assert_eq!(inc.finish(), checksum::checksum(&data));
    }

    #[test]
    fn checksum_matches_per_word_reference(data in proptest::collection::vec(any::<u8>(), 0..4104),
                                           start in 0usize..8,
                                           fill in 0u8..3,
                                           cut in any::<proptest::sample::Index>()) {
        // `fill` 1 and 2 replace the bytes with all-0x00 and all-0xff.
        let data: Vec<u8> = match fill {
            1 => vec![0x00; data.len()],
            2 => vec![0xff; data.len()],
            _ => data,
        };
        // An unaligned start offset, leaving any length 0..4096, odd or
        // even.
        let slice = data.get(start..).unwrap_or(&[]);
        let slice = &slice[..slice.len().min(4096)];
        prop_assert_eq!(checksum::checksum(slice), reference_checksum(slice));
        let split = cut.index(slice.len() + 1) & !1; // even split point
        let mut inc = checksum::Checksum::new();
        inc.add_bytes(&slice[..split]);
        inc.add_bytes(&slice[split..]);
        prop_assert_eq!(inc.finish(), reference_checksum(slice));
    }

    #[test]
    fn seqnum_ordering_is_antisymmetric(a in any::<u32>(), d in 1u32..0x7fff_ffff) {
        let x = SeqNum(a);
        let y = x + d;
        prop_assert!(x.before(y));
        prop_assert!(y.after(x));
        prop_assert!(!y.before(x));
        prop_assert_eq!(y - x, i64::from(d));
        prop_assert_eq!(x - y, -i64::from(d));
    }

    #[test]
    fn seqnum_window_membership(base in any::<u32>(), len in 1u32..1_000_000, off in any::<u32>()) {
        let lo = SeqNum(base);
        let p = lo + (off % (len * 2));
        let inside = (p - lo) < i64::from(len);
        prop_assert_eq!(p.in_window(lo, len), inside);
    }

    #[test]
    fn seqnum_max_min_consistent(a in any::<u32>(), d in 0u32..0x7fff_ffff) {
        let x = SeqNum(a);
        let y = x + d;
        prop_assert_eq!(x.max(y), y);
        prop_assert_eq!(x.min(y), x);
    }
}
