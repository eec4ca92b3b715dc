//! Counter-mode encryption (CME) for user data lines (§II-B).
//!
//! Each 64 B *counter block* covers 64 user data lines and holds one 64-bit
//! major counter plus 64 seven-bit minor counters — exactly one cache line.
//! Writing data line `i` increments minor counter `i`; the one-time pad
//! (OTP) for a line is derived from (key, line address, major, minor), so
//! no pad is ever reused for the same address. When a minor counter
//! overflows, the major counter increments, all minors reset to zero, and
//! the 64 covered lines must be re-encrypted ([`IncrementOutcome::Overflow`]).
//!
//! Counter blocks are the **leaf nodes of the SIT/BMT** (§II-D), which is
//! why this module lives in the crypto substrate: the integrity-tree crate
//! treats a packed [`CounterBlock`] line as leaf content.

use crate::siphash::WordHasher;
use crate::SecretKey;
use scue_util::obs::span;

/// Bytes per cache line / NVM line across the whole system.
pub const LINE_BYTES: usize = 64;

/// Minor counters per counter block — one per covered data line.
pub const MINORS_PER_BLOCK: usize = 64;

/// Width of a minor counter in bits.
pub const MINOR_BITS: u32 = 7;

/// Maximum value a 7-bit minor counter can hold before overflowing.
pub const MINOR_MAX: u8 = (1 << MINOR_BITS) - 1;

/// A 64-byte line of raw memory content.
pub type Line = [u8; LINE_BYTES];

/// What happened when a minor counter was incremented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor counter advanced; only this line's OTP changes.
    Bumped,
    /// The minor overflowed: the major counter advanced and *all* minors
    /// reset, so all 64 covered data lines must be re-encrypted before the
    /// counter block is persisted.
    Overflow,
}

/// Error raised when indexing a minor counter out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinorIndexError {
    index: usize,
}

impl std::fmt::Display for MinorIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "minor counter index {} out of range (max {})",
            self.index,
            MINORS_PER_BLOCK - 1
        )
    }
}

impl std::error::Error for MinorIndexError {}

/// A split-counter block: one 64-bit major counter + 64 seven-bit minors.
///
/// Packs to exactly one 64 B line via [`CounterBlock::to_line`] /
/// [`CounterBlock::from_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; MINORS_PER_BLOCK],
}

impl CounterBlock {
    /// A fresh counter block with all counters at zero.
    pub fn new() -> Self {
        Self {
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// Reads minor counter `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MinorIndexError`] if `index >= 64`.
    pub fn minor(&self, index: usize) -> Result<u8, MinorIndexError> {
        self.minors
            .get(index)
            .copied()
            .ok_or(MinorIndexError { index })
    }

    /// Increments minor counter `index`, handling overflow per §II-B.
    ///
    /// # Errors
    ///
    /// Returns [`MinorIndexError`] if `index >= 64`.
    pub fn increment(&mut self, index: usize) -> Result<IncrementOutcome, MinorIndexError> {
        let minor = self
            .minors
            .get_mut(index)
            .ok_or(MinorIndexError { index })?;
        if *minor == MINOR_MAX {
            self.major = self.major.wrapping_add(1);
            self.minors = [0; MINORS_PER_BLOCK];
            Ok(IncrementOutcome::Overflow)
        } else {
            *minor += 1;
            Ok(IncrementOutcome::Bumped)
        }
    }

    /// Overwrites minor counter `index` — recovery tooling (Osiris-style
    /// counter reconstruction) and attack injection need to materialise
    /// arbitrary counter states; normal operation only ever increments.
    ///
    /// # Errors
    ///
    /// Returns [`MinorIndexError`] if `index >= 64`; values are truncated
    /// to 7 bits.
    pub fn set_minor(&mut self, index: usize, value: u8) -> Result<(), MinorIndexError> {
        let minor = self
            .minors
            .get_mut(index)
            .ok_or(MinorIndexError { index })?;
        *minor = value & MINOR_MAX;
        Ok(())
    }

    /// Overwrites the major counter (recovery/attack tooling).
    pub fn set_major(&mut self, value: u64) {
        self.major = value;
    }

    /// Sum of all counters in the block, weighing one major-counter step as
    /// a full minor wrap. This is the quantity the SIT *dummy counter* and
    /// counter-summing recovery aggregate over leaf nodes; using the wrap
    /// weight keeps the sum monotonic across overflows.
    pub fn write_count(&self) -> u64 {
        let minor_sum: u64 = self.minors.iter().map(|&m| m as u64).sum();
        self.major
            .wrapping_mul((MINOR_MAX as u64) + 1)
            .wrapping_mul(MINORS_PER_BLOCK as u64)
            .wrapping_add(minor_sum)
    }

    /// Packs the block into a 64 B line: major counter in the first 8
    /// bytes (LE), then the 64 minors bit-packed at 7 bits each (56 bytes).
    pub fn to_line(&self) -> Line {
        let _span = span::enter("codec.encode");
        let mut line = [0u8; LINE_BYTES];
        line[..8].copy_from_slice(&self.major.to_le_bytes());
        pack_7bit(&self.minors, &mut line[8..]);
        line
    }

    /// Unpacks a block previously produced by [`CounterBlock::to_line`].
    pub fn from_line(line: &Line) -> Self {
        let _span = span::enter("codec.decode");
        let major = u64::from_le_bytes(line[..8].try_into().expect("8-byte slice"));
        let mut minors = [0u8; MINORS_PER_BLOCK];
        unpack_7bit(&line[8..], &mut minors);
        Self { major, minors }
    }
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Minors packed into one 56-bit word: 8 × 7 bits.
const MINORS_PER_WORD: usize = 8;

/// Bytes of one packed 56-bit word.
const WORD_BYTES: usize = 7;

/// Packs 64 seven-bit values into 56 bytes: value `i` occupies bits
/// `7i..7i+7` of the little-endian bit stream, so each run of 8 values
/// is one 56-bit little-endian word.
fn pack_7bit(values: &[u8; MINORS_PER_BLOCK], out: &mut [u8]) {
    let words = values.chunks_exact(MINORS_PER_WORD);
    for (group, bytes) in words.zip(out[..56].chunks_exact_mut(WORD_BYTES)) {
        let mut word = 0u64;
        for (j, &v) in group.iter().enumerate() {
            word |= ((v & MINOR_MAX) as u64) << (MINOR_BITS as usize * j);
        }
        bytes.copy_from_slice(&word.to_le_bytes()[..WORD_BYTES]);
    }
}

/// Inverse of [`pack_7bit`].
fn unpack_7bit(input: &[u8], out: &mut [u8; MINORS_PER_BLOCK]) {
    let words = input[..56].chunks_exact(WORD_BYTES);
    for (bytes, group) in words.zip(out.chunks_exact_mut(MINORS_PER_WORD)) {
        let mut le = [0u8; 8];
        le[..WORD_BYTES].copy_from_slice(bytes);
        let word = u64::from_le_bytes(le);
        for (j, slot) in group.iter_mut().enumerate() {
            *slot = ((word >> (MINOR_BITS as usize * j)) as u8) & MINOR_MAX;
        }
    }
}

/// Derives the 64 B one-time pad for (line address, major, minor).
///
/// Each 8-byte lane of the pad is an independent keyed hash so the pad has
/// full line width. Identical inputs always produce identical pads (that is
/// what makes decryption work); distinct (address, major, minor) triples
/// produce unrelated pads.
pub fn one_time_pad(key: &SecretKey, line_addr: u64, major: u64, minor: u8) -> Line {
    let _span = span::enter("hmac.compute");
    // Every lane hashes the same four leading words; absorb them once.
    let mut prefix = WordHasher::new(key);
    prefix.write_u64(0x4f54_5021); // domain tag "OTP!"
    prefix.write_u64(line_addr);
    prefix.write_u64(major);
    prefix.write_u64(minor as u64);
    let mut pad = [0u8; LINE_BYTES];
    for (lane, bytes) in pad.chunks_exact_mut(8).enumerate() {
        let mut h = prefix.clone();
        h.write_u64(lane as u64);
        bytes.copy_from_slice(&h.finish().to_le_bytes());
    }
    pad
}

/// Encrypts one data line by XOR with its OTP.
///
/// `minor_index` selects which of the block's 64 minors covers this line
/// (normally `line_addr % 64` within the block's coverage).
pub fn encrypt_line(
    key: &SecretKey,
    line_addr: u64,
    ctr: &CounterBlock,
    minor_index: usize,
    plaintext: &Line,
) -> Line {
    let minor = ctr.minors[minor_index % MINORS_PER_BLOCK];
    let pad = one_time_pad(key, line_addr, ctr.major, minor);
    xor_lines(plaintext, &pad)
}

/// Decrypts one data line; XOR with the same OTP as encryption.
pub fn decrypt_line(
    key: &SecretKey,
    line_addr: u64,
    ctr: &CounterBlock,
    minor_index: usize,
    ciphertext: &Line,
) -> Line {
    encrypt_line(key, line_addr, ctr, minor_index, ciphertext)
}

fn xor_lines(a: &Line, b: &Line) -> Line {
    let mut out = [0u8; LINE_BYTES];
    for i in 0..LINE_BYTES {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scue_util::prop::{self, collection, prelude::*};

    /// Reference bit-serial packer: one value at a time through a
    /// shifting accumulator.
    fn pack_7bit_bitserial(values: &[u8; MINORS_PER_BLOCK], out: &mut [u8]) {
        let mut acc: u32 = 0;
        let mut bits: u32 = 0;
        let mut byte = 0usize;
        for &v in values {
            acc |= ((v & MINOR_MAX) as u32) << bits;
            bits += MINOR_BITS;
            while bits >= 8 {
                out[byte] = (acc & 0xff) as u8;
                acc >>= 8;
                bits -= 8;
                byte += 1;
            }
        }
        assert_eq!(bits, 0, "64 * 7 bits is a whole number of bytes");
    }

    /// Reference bit-serial unpacker, inverse of [`pack_7bit_bitserial`].
    fn unpack_7bit_bitserial(input: &[u8], out: &mut [u8; MINORS_PER_BLOCK]) {
        let mut acc: u32 = 0;
        let mut bits: u32 = 0;
        let mut byte = 0usize;
        for slot in out.iter_mut() {
            while bits < MINOR_BITS {
                acc |= (input[byte] as u32) << bits;
                bits += 8;
                byte += 1;
            }
            *slot = (acc & MINOR_MAX as u32) as u8;
            acc >>= MINOR_BITS;
            bits -= MINOR_BITS;
        }
    }

    /// Reference pad: every lane hashes all five words from a fresh state.
    fn one_time_pad_per_lane(key: &SecretKey, line_addr: u64, major: u64, minor: u8) -> Line {
        let mut pad = [0u8; LINE_BYTES];
        for lane in 0..(LINE_BYTES / 8) {
            let mut h = WordHasher::new(key);
            h.write_u64(0x4f54_5021);
            h.write_u64(line_addr);
            h.write_u64(major);
            h.write_u64(minor as u64);
            h.write_u64(lane as u64);
            pad[lane * 8..(lane + 1) * 8].copy_from_slice(&h.finish().to_le_bytes());
        }
        pad
    }

    /// Minors drawn to hit both ends of the 7-bit range often: 0, 127
    /// and out-of-range bytes the packer must mask.
    fn minors_strategy() -> collection::VecStrategy<std::ops::RangeInclusive<u8>> {
        collection::vec(0u8..=255, MINORS_PER_BLOCK)
    }

    fn block_from(major: u64, raw: &[u8]) -> CounterBlock {
        let mut block = CounterBlock::new();
        block.set_major(major);
        for (i, &v) in raw.iter().enumerate() {
            // Fold the draw so 0 and MINOR_MAX each come up ~1 in 8.
            let v = match v % 8 {
                0 => 0,
                1 => MINOR_MAX,
                _ => v,
            };
            block.set_minor(i, v).expect("64 minors");
        }
        block
    }

    #[test]
    fn word_codec_matches_bitserial_reference() {
        prop::run(
            &ProptestConfig::with_cases(512),
            "word_codec_matches_bitserial_reference",
            &(any::<u64>(), minors_strategy(), any::<bool>()),
            |(major, raw, wrap)| {
                let mut block = block_from(major, &raw);
                if wrap {
                    // Drive minor 0 through its overflow: all minors reset
                    // and the major wraps from u64::MAX to 0.
                    block.set_major(u64::MAX);
                    block.set_minor(0, MINOR_MAX).expect("slot 0");
                    prop_assert_eq!(block.increment(0), Ok(IncrementOutcome::Overflow));
                    prop_assert_eq!(block.major(), 0);
                }
                let mut reference = [0u8; LINE_BYTES];
                reference[..8].copy_from_slice(&block.major().to_le_bytes());
                pack_7bit_bitserial(&block.minors, &mut reference[8..]);
                let line = block.to_line();
                prop_assert_eq!(line, reference);
                let mut minors = [0u8; MINORS_PER_BLOCK];
                unpack_7bit_bitserial(&line[8..], &mut minors);
                prop_assert_eq!(CounterBlock::from_line(&line).minors, minors);
                prop_assert_eq!(CounterBlock::from_line(&line), block);
                // Arbitrary bytes decode identically too (a torn or
                // tampered line is not a packer output).
                let mut noise = [0u8; LINE_BYTES];
                for (i, b) in noise.iter_mut().enumerate() {
                    *b = raw[i].wrapping_mul(31).wrapping_add(major as u8);
                }
                unpack_7bit_bitserial(&noise[8..], &mut minors);
                prop_assert_eq!(CounterBlock::from_line(&noise).minors, minors);
                Ok(())
            },
        );
    }

    #[test]
    fn shared_prefix_pad_matches_per_lane_reference() {
        prop::run(
            &ProptestConfig::with_cases(256),
            "shared_prefix_pad_matches_per_lane_reference",
            &(any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()),
            |(seed, addr, major, minor)| {
                let key = SecretKey::from_seed(seed);
                prop_assert_eq!(
                    one_time_pad(&key, addr, major, minor),
                    one_time_pad_per_lane(&key, addr, major, minor)
                );
                Ok(())
            },
        );
    }

    #[test]
    fn fresh_block_is_zero() {
        let b = CounterBlock::new();
        assert_eq!(b.major(), 0);
        assert_eq!(b.write_count(), 0);
        for i in 0..MINORS_PER_BLOCK {
            assert_eq!(b.minor(i).unwrap(), 0);
        }
    }

    #[test]
    fn increment_bumps_single_minor() {
        let mut b = CounterBlock::new();
        assert_eq!(b.increment(5).unwrap(), IncrementOutcome::Bumped);
        assert_eq!(b.minor(5).unwrap(), 1);
        assert_eq!(b.minor(4).unwrap(), 0);
        assert_eq!(b.write_count(), 1);
    }

    #[test]
    fn minor_overflow_resets_all_and_bumps_major() {
        let mut b = CounterBlock::new();
        for _ in 0..MINOR_MAX {
            assert_eq!(b.increment(0).unwrap(), IncrementOutcome::Bumped);
        }
        assert_eq!(b.minor(0).unwrap(), MINOR_MAX);
        b.increment(1).unwrap();
        assert_eq!(b.increment(0).unwrap(), IncrementOutcome::Overflow);
        assert_eq!(b.major(), 1);
        assert_eq!(b.minor(0).unwrap(), 0);
        assert_eq!(b.minor(1).unwrap(), 0);
    }

    #[test]
    fn write_count_monotonic_across_overflow() {
        let mut b = CounterBlock::new();
        let mut last = 0;
        for _ in 0..(MINOR_MAX as usize + 5) {
            b.increment(0).unwrap();
            let wc = b.write_count();
            assert!(wc > last, "write_count must be strictly monotonic");
            last = wc;
        }
        assert_eq!(b.major(), 1);
    }

    #[test]
    fn out_of_range_minor_errors() {
        let mut b = CounterBlock::new();
        assert!(b.minor(64).is_err());
        assert!(b.increment(64).is_err());
        let msg = b.increment(99).unwrap_err().to_string();
        assert!(msg.contains("99"));
    }

    #[test]
    fn line_roundtrip_exact() {
        let mut b = CounterBlock::new();
        b.major = 0xDEAD_BEEF_CAFE_F00D;
        for i in 0..MINORS_PER_BLOCK {
            b.minors[i] = (i as u8 * 3) & MINOR_MAX;
        }
        let line = b.to_line();
        assert_eq!(CounterBlock::from_line(&line), b);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = SecretKey::from_seed(11);
        let mut ctr = CounterBlock::new();
        ctr.increment(7).unwrap();
        let plain = [0x5Au8; LINE_BYTES];
        let cipher = encrypt_line(&key, 0xABCD, &ctr, 7, &plain);
        assert_ne!(cipher, plain);
        assert_eq!(decrypt_line(&key, 0xABCD, &ctr, 7, &cipher), plain);
    }

    #[test]
    fn otp_changes_with_counter() {
        let key = SecretKey::from_seed(11);
        let a = one_time_pad(&key, 0x1000, 0, 1);
        let b = one_time_pad(&key, 0x1000, 0, 2);
        let c = one_time_pad(&key, 0x1000, 1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn otp_changes_with_address() {
        let key = SecretKey::from_seed(11);
        let a = one_time_pad(&key, 0x1000, 3, 1);
        let b = one_time_pad(&key, 0x1040, 3, 1);
        assert_ne!(a, b, "different lines must never share a pad");
    }

    #[test]
    fn stale_counter_decryption_garbles() {
        let key = SecretKey::from_seed(11);
        let mut ctr = CounterBlock::new();
        ctr.increment(0).unwrap();
        let plain = [1u8; LINE_BYTES];
        let cipher = encrypt_line(&key, 0, &ctr, 0, &plain);
        ctr.increment(0).unwrap(); // counter advanced after encryption
        assert_ne!(decrypt_line(&key, 0, &ctr, 0, &cipher), plain);
    }
}
