//! The Internet checksum (RFC 1071) used by IPv4, TCP and ICMP.
//!
//! The checksum is the 16-bit ones'-complement of the ones'-complement sum
//! of the data, taken in big-endian 16-bit words with an implicit zero pad
//! byte when the length is odd.
//!
//! Byte slices are summed a native-endian 8-byte word at a time into a
//! `u64`, then folded to 16 bits and byte-swapped once (RFC 1071 §2: the
//! sum is byte-order independent, so a swap of the folded sum equals the
//! sum of swapped words).

/// Incremental ones'-complement accumulator.
///
/// Sections of a packet (pseudo-header, header, payload) can be folded in
/// one after another; [`Checksum::finish`] produces the final checksum
/// field value.
///
/// ```
/// use tcpa_wire::checksum::Checksum;
/// let mut ck = Checksum::new();
/// ck.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
/// assert_eq!(ck.finish(), !0xddf2u16);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    /// Ones'-complement sum of big-endian words, with end-around carry.
    sum: u64,
}

impl Checksum {
    /// Creates an accumulator with a zero running sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a byte slice into the running sum. Odd-length slices are
    /// padded with a zero byte, per RFC 1071; callers must therefore only
    /// pass odd-length slices as the *final* section.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let native = data
            .chunks(BLOCK)
            .fold(0, |sum, block| add_carry(sum, sum_block(block)));
        self.add_u16(u16::from_be(fold(native)));
    }

    /// Folds one big-endian 16-bit word into the running sum.
    pub fn add_u16(&mut self, word: u16) {
        self.sum = add_carry(self.sum, u64::from(word));
    }

    /// Folds a 32-bit value as two 16-bit words.
    pub fn add_u32(&mut self, word: u32) {
        let [a, b, c, d] = word.to_be_bytes();
        self.add_u16(u16::from_be_bytes([a, b]));
        self.add_u16(u16::from_be_bytes([c, d]));
    }

    /// Reduces the running sum and returns the checksum field value
    /// (the complement of the folded sum).
    pub fn finish(self) -> u16 {
        !fold(self.sum)
    }
}

/// Bytes summed by [`sum_block`] at a time: 2^20 words add at most
/// 2^20 × 2 × (2^32 − 1) < 2^54, so a block's plain `u64` sum is exact.
const BLOCK: usize = 8 << 20;

/// The sum of a block's native-endian 8-byte words, each added as its two
/// 32-bit halves so no carry is lost. A trailing partial word is
/// zero-padded: an odd last byte then sits in the high half of its
/// big-endian 16-bit word, which is RFC 1071's pad.
fn sum_block(block: &[u8]) -> u64 {
    let halves = |bytes: [u8; 8]| {
        let word = u64::from_ne_bytes(bytes);
        (word & 0xffff_ffff) + (word >> 32)
    };
    let mut words = block.chunks_exact(8);
    let mut sum = 0;
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        sum += halves(bytes);
    }
    let mut tail = [0u8; 8];
    tail.iter_mut()
        .zip(words.remainder())
        .for_each(|(dst, src)| *dst = *src);
    sum + halves(tail)
}

/// Ones'-complement addition of two 64-bit words: the carry out of the
/// top bit wraps around into the bottom (it cannot carry again, since a
/// wrapped sum is at most `u64::MAX - 1`).
fn add_carry(a: u64, b: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u64::from(carry)
}

/// Folds a 64-bit ones'-complement sum to 16 bits, keeping the byte order
/// of its 16-bit lanes.
fn fold(sum: u64) -> u16 {
    let [a, b, c, d, e, f, g, h] = sum.to_be_bytes();
    let hi = u32::from_be_bytes([a, b, c, d]);
    let lo = u32::from_be_bytes([e, f, g, h]);
    let (sum, carry) = hi.overflowing_add(lo);
    let sum = sum + u32::from(carry);
    let [a, b, c, d] = sum.to_be_bytes();
    let (sum, carry) = u16::from_be_bytes([a, b]).overflowing_add(u16::from_be_bytes([c, d]));
    sum + u16::from(carry)
}

/// Computes the checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut ck = Checksum::new();
    ck.add_bytes(data);
    ck.finish()
}

/// Verifies a buffer whose checksum field is *included* in `data`.
///
/// A correct buffer folds to `0xffff` before complementing, i.e. the
/// computed checksum over the whole buffer is zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7 sum to ddf2
        // (after folding), so the checksum field is !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        assert_eq!(checksum(&[0xab, 0x00]), !0xab00);
    }

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        // Insert a checksum so the whole buffer verifies.
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_equals_contiguous() {
        let data: Vec<u8> = (0u16..200).map(|i| (i * 7) as u8).collect();
        let mut inc = Checksum::new();
        inc.add_bytes(&data[..100]);
        inc.add_bytes(&data[100..]);
        assert_eq!(inc.finish(), checksum(&data));
    }

    /// The RFC 1071 definition, one big-endian 16-bit word at a time.
    fn reference(data: &[u8]) -> u16 {
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

    #[test]
    fn word_sum_matches_per_word_reference() {
        // A deterministic pseudo-random buffer (SplitMix-style mixing).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4200)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        // Every length 0..4096 (odd ones included), each at a start
        // offset that cycles through the eight word alignments.
        for len in 0..4096 {
            let start = len % 8;
            let slice = &data[start..start + len];
            assert_eq!(checksum(slice), reference(slice), "start {start} len {len}");
        }
        for len in [0, 1, 2, 7, 8, 9, 63, 64, 65, 1500, 4095] {
            for fill in [0x00, 0xff] {
                let buf = vec![fill; len];
                assert_eq!(checksum(&buf), reference(&buf), "fill {fill:#x} len {len}");
            }
        }
        // Incremental: a split at any even point equals the whole.
        let whole = &data[3..3 + 301];
        for at in (0..=300).step_by(2) {
            let mut inc = Checksum::new();
            inc.add_bytes(&whole[..at]);
            inc.add_bytes(&whole[at..]);
            assert_eq!(inc.finish(), reference(whole), "split at {at}");
        }
    }

    #[test]
    fn large_slice_does_not_overflow() {
        // 128 Ki words of 0xffff: a u32 word sum overflows well before this.
        let data = vec![0xff; 256 * 1024];
        assert_eq!(checksum(&data), 0);
        assert_eq!(checksum(&data), reference(&data));
    }

    #[test]
    fn carry_folding_handles_saturation() {
        // 40 000 words of 0xffff forces multiple folds.
        let data = vec![0xff; 80_000];
        assert_eq!(checksum(&data), 0);
    }
}
