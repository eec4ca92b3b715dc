//! From-scratch SipHash-2-4 — the keyed 64-bit hash underlying every MAC.
//!
//! SipHash-2-4 (Aumasson & Bernstein) is a keyed pseudorandom function with
//! a 128-bit key and 64-bit output. The secure-memory papers model the hash
//! unit as an opaque block with a fixed latency (40 cycles by default); for
//! the *functional* layer of this reproduction we need a real keyed hash so
//! that tampered counters and replayed nodes genuinely fail verification.
//! SipHash is small enough to implement and verify from scratch and is a
//! cryptographically sound MAC for 64-bit tags.
//!
//! The implementation below is written directly from the SipHash paper
//! (2 compression rounds per message block, 4 finalization rounds) and is
//! checked against the reference test vectors in the unit tests.

use crate::SecretKey;

/// Internal SipHash state (v0..v3).
#[derive(Clone, Copy)]
struct State {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl State {
    fn new(key: &SecretKey) -> Self {
        Self {
            v0: key.k0() ^ 0x736f_6d65_7073_6575,
            v1: key.k1() ^ 0x646f_7261_6e64_6f6d,
            v2: key.k0() ^ 0x6c79_6765_6e65_7261,
            v3: key.k1() ^ 0x7465_6462_7974_6573,
        }
    }

    #[inline]
    fn sip_round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.sip_round();
        self.sip_round();
        self.v0 ^= m;
    }

    #[inline]
    fn finalize(mut self) -> u64 {
        self.v2 ^= 0xff;
        self.sip_round();
        self.sip_round();
        self.sip_round();
        self.sip_round();
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// Computes SipHash-2-4 of `data` under `key`, returning the 64-bit tag.
///
/// # Example
///
/// ```
/// use scue_crypto::{SecretKey, siphash::siphash24};
///
/// let key = SecretKey::from_seed(1);
/// let a = siphash24(&key, b"hello");
/// let b = siphash24(&key, b"hellp");
/// assert_ne!(a, b);
/// ```
pub fn siphash24(key: &SecretKey, data: &[u8]) -> u64 {
    let mut state = State::new(key);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        state.compress(m);
    }
    // Final block: remaining bytes plus the message length in the top byte.
    let rem = chunks.remainder();
    let mut last = (data.len() as u64 & 0xff) << 56;
    for (i, &b) in rem.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    state.compress(last);
    state.finalize()
}

/// A streaming SipHash-2-4 hasher for callers that assemble the message
/// from multiple fields without allocating.
///
/// Fields are fed as little-endian 64-bit words; this is how the MAC
/// helpers in [`crate::hmac`] bind addresses, counters and payloads
/// together. The word-stream framing means the hasher is *not*
/// byte-stream-compatible with [`siphash24`]; it defines its own
/// (fixed-width) message encoding, which is unambiguous because every
/// field is exactly one word.
///
/// # Example
///
/// ```
/// use scue_crypto::{SecretKey, siphash::WordHasher};
///
/// let key = SecretKey::from_seed(1);
/// let mut h = WordHasher::new(&key);
/// h.write_u64(0xdead_beef);
/// h.write_u64(42);
/// let tag = h.finish();
/// assert_ne!(tag, 0);
/// ```
#[derive(Clone)]
pub struct WordHasher {
    state: State,
    words: u64,
}

impl WordHasher {
    /// Starts a new word-stream hash under `key`.
    pub fn new(key: &SecretKey) -> Self {
        Self {
            state: State::new(key),
            words: 0,
        }
    }

    /// Feeds one 64-bit word.
    pub fn write_u64(&mut self, word: u64) {
        self.state.compress(word);
        self.words += 1;
    }

    /// Feeds a slice of 64-bit words.
    pub fn write_all(&mut self, words: &[u64]) {
        for &w in words {
            self.write_u64(w);
        }
    }

    /// Completes the hash, folding in the word count so that messages of
    /// different lengths never collide trivially.
    pub fn finish(mut self) -> u64 {
        let count = self.words;
        self.state.compress(count.wrapping_shl(56) | count);
        self.state.finalize()
    }

    /// Completes [`LANES`] one-word extensions of this hash at once:
    /// lane `i` is `{ let mut h = self.clone(); h.write_u64(i); h.finish() }`.
    ///
    /// This is how a 64 B line is derived from one shared prefix (the
    /// one-time pad, the simulator's store contents). On x86-64 hosts
    /// with AVX-512F the eight lanes run side by side in one vector
    /// kernel; elsewhere they run one after another. Both give the same
    /// words.
    ///
    /// # Example
    ///
    /// ```
    /// use scue_crypto::{SecretKey, siphash::WordHasher};
    ///
    /// let mut prefix = WordHasher::new(&SecretKey::from_seed(1));
    /// prefix.write_u64(7);
    /// let lanes = prefix.finish_lanes();
    /// let mut h = prefix.clone();
    /// h.write_u64(3);
    /// assert_eq!(lanes[3], h.finish());
    /// ```
    // The one unsafe site outside `scue_util::obs::alloc`: the call
    // into the AVX-512 instantiation of the lane kernel.
    #[allow(unsafe_code)]
    pub fn finish_lanes(&self) -> [u64; LANES] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `finish_lanes_avx512` needs only AVX-512F, which
            // `is_x86_feature_detected!` just confirmed on this CPU.
            return unsafe { finish_lanes_avx512(self.state, self.words) };
        }
        self.finish_lanes_per_lane()
    }

    /// The portable path of [`Self::finish_lanes`] and its reference:
    /// one clone of the hasher per lane.
    fn finish_lanes_per_lane(&self) -> [u64; LANES] {
        std::array::from_fn(|lane| {
            let mut h = self.clone();
            h.write_u64(lane as u64);
            h.finish()
        })
    }
}

/// Words produced by one [`WordHasher::finish_lanes`] call: one per
/// 8-byte slice of a 64 B line.
pub const LANES: usize = 8;

/// One SipHash state word across all [`LANES`] lanes.
type LaneWord = [u64; LANES];

/// The AVX-512F instantiation of [`finish_lanes_soa`]: each lane-wise
/// step compiles to one `vpaddq`/`vpxorq`/`vprolq` on a zmm register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn finish_lanes_avx512(state: State, words: u64) -> [u64; LANES] {
    finish_lanes_soa(state, words)
}

/// The lane math of [`WordHasher::finish_lanes`], structure-of-arrays:
/// every lane starts from `state` (a prefix of `words` words), absorbs
/// its own index, then the word count `words + 1`, and is finalized.
/// State word `vN` of all lanes sits in one [`LaneWord`], so each step
/// of a SipHash round is one element-wise operation over the lanes.
#[inline(always)]
fn finish_lanes_soa(state: State, words: u64) -> [u64; LANES] {
    #[inline(always)]
    fn add(a: &mut LaneWord, b: &LaneWord) {
        for (a, b) in a.iter_mut().zip(b) {
            *a = a.wrapping_add(*b);
        }
    }
    #[inline(always)]
    fn xor(a: &mut LaneWord, b: &LaneWord) {
        for (a, b) in a.iter_mut().zip(b) {
            *a ^= *b;
        }
    }
    #[inline(always)]
    fn rotl(a: &mut LaneWord, n: u32) {
        for a in a.iter_mut() {
            *a = a.rotate_left(n);
        }
    }
    #[inline(always)]
    fn sip_round(v: &mut [LaneWord; 4]) {
        let [v0, v1, v2, v3] = v;
        add(v0, v1);
        rotl(v1, 13);
        xor(v1, v0);
        rotl(v0, 32);
        add(v2, v3);
        rotl(v3, 16);
        xor(v3, v2);
        add(v0, v3);
        rotl(v3, 21);
        xor(v3, v0);
        add(v2, v1);
        rotl(v1, 17);
        xor(v1, v2);
        rotl(v2, 32);
    }
    #[inline(always)]
    fn compress(v: &mut [LaneWord; 4], m: &LaneWord) {
        xor(&mut v[3], m);
        sip_round(v);
        sip_round(v);
        xor(&mut v[0], m);
    }

    let mut v = [
        [state.v0; LANES],
        [state.v1; LANES],
        [state.v2; LANES],
        [state.v3; LANES],
    ];
    compress(&mut v, &std::array::from_fn(|lane| lane as u64));
    let count = words + 1;
    compress(&mut v, &[count.wrapping_shl(56) | count; LANES]);
    xor(&mut v[2], &[0xff; LANES]);
    for _ in 0..4 {
        sip_round(&mut v);
    }
    let [v0, v1, v2, v3] = v;
    std::array::from_fn(|lane| v0[lane] ^ v1[lane] ^ v2[lane] ^ v3[lane])
}

impl std::fmt::Debug for WordHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordHasher")
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key from the SipHash paper: 0x0f0e...0100.
    fn reference_key() -> SecretKey {
        SecretKey::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908)
    }

    /// The SipHash-2-4 reference test vectors (first 8 of the 64 in the
    /// paper's appendix), for inputs 0x00, 0x0001, 0x000102, ...
    #[test]
    fn matches_reference_vectors() {
        const EXPECTED: [u64; 8] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
        ];
        let key = reference_key();
        let data: Vec<u8> = (0..8).collect();
        for (len, expected) in EXPECTED.iter().enumerate() {
            assert_eq!(
                siphash24(&key, &data[..len]),
                *expected,
                "vector for length {len}"
            );
        }
    }

    #[test]
    fn empty_input_matches_vector() {
        // EXPECTED[0] above is the empty-string vector.
        assert_eq!(siphash24(&reference_key(), &[]), 0x726f_db47_dd0e_0e31);
    }

    #[test]
    fn different_keys_give_different_tags() {
        let a = siphash24(&SecretKey::from_seed(1), b"payload");
        let b = siphash24(&SecretKey::from_seed(2), b"payload");
        assert_ne!(a, b);
    }

    #[test]
    fn word_hasher_is_deterministic() {
        let key = SecretKey::from_seed(3);
        let mut h1 = WordHasher::new(&key);
        h1.write_all(&[1, 2, 3]);
        let mut h2 = WordHasher::new(&key);
        h2.write_all(&[1, 2, 3]);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn word_hasher_length_extension_differs() {
        let key = SecretKey::from_seed(3);
        let mut h1 = WordHasher::new(&key);
        h1.write_all(&[1, 2]);
        let mut h2 = WordHasher::new(&key);
        h2.write_all(&[1, 2, 0]);
        assert_ne!(
            h1.finish(),
            h2.finish(),
            "a trailing zero word must change the tag"
        );
    }

    /// Every lane of `finish_lanes`, and of the lane kernel run on the
    /// host's baseline instruction set, equals its own clone-and-finish.
    /// Prefixes of 0–8 words cover the pad's 4-word prefix, the store
    /// content's 2-word prefix and the count word `finish` folds in.
    #[test]
    fn finish_lanes_matches_per_lane_reference() {
        use scue_util::prop::{self, collection, prelude::*};
        prop::run(
            &ProptestConfig::with_cases(512),
            "finish_lanes_matches_per_lane_reference",
            &(
                any::<u64>(),
                any::<u64>(),
                collection::vec(any::<u64>(), 0..=8),
            ),
            |(k0, k1, prefix)| {
                let mut h = WordHasher::new(&SecretKey::new(k0, k1));
                h.write_all(&prefix);
                let reference = h.finish_lanes_per_lane();
                prop_assert_eq!(h.finish_lanes(), reference);
                prop_assert_eq!(finish_lanes_soa(h.state, h.words), reference);
                Ok(())
            },
        );
    }

    #[test]
    fn word_hasher_order_sensitive() {
        let key = SecretKey::from_seed(4);
        let mut h1 = WordHasher::new(&key);
        h1.write_all(&[1, 2]);
        let mut h2 = WordHasher::new(&key);
        h2.write_all(&[2, 1]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
