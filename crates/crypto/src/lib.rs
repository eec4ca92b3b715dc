//! Security primitives for the SCUE secure-NVM stack.
//!
//! This crate provides the cryptographic substrate that every other layer of
//! the reproduction builds on:
//!
//! * [`siphash`] — a from-scratch SipHash-2-4 implementation used as the
//!   keyed hash underlying every MAC in the system. The paper treats the
//!   hash unit as an opaque fixed-latency block; functionally we only need a
//!   keyed 64-bit MAC that deterministically detects the attacks the
//!   evaluation injects, which SipHash provides.
//! * [`hmac`] — helpers that bind MACs to the *things the paper MACs*: SIT
//!   nodes (address + own counters + parent counter, Fig. 4), BMT child
//!   groups, and user data lines.
//! * [`cme`] — counter-mode encryption: split major/minor counter blocks
//!   (one 64-bit major + 64 seven-bit minors per 64 B line, §II-B), one-time
//!   pad generation, line encryption/decryption and minor-counter overflow
//!   handling.
//! * [`engine`] — the *timing* model of the hash unit: a configurable
//!   20/40/80/160-cycle latency (Table II) with parallel (SIT) or serial
//!   (BMT) branch computation.
//!
//! # Example
//!
//! ```
//! use scue_crypto::{SecretKey, cme::CounterBlock, cme};
//!
//! let key = SecretKey::from_seed(7);
//! let mut ctr = CounterBlock::new();
//! ctr.increment(3).unwrap();
//!
//! let plain = [0xABu8; 64];
//! let cipher = cme::encrypt_line(&key, 0x1000, &ctr, 3, &plain);
//! let back = cme::decrypt_line(&key, 0x1000, &ctr, 3, &cipher);
//! assert_eq!(plain, back);
//! assert_ne!(plain, cipher);
//! ```

// `deny` rather than `forbid`: `siphash::WordHasher::finish_lanes` calls
// its AVX-512 lane kernel after runtime detection, under a single
// scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cme;
pub mod engine;
pub mod hmac;
pub mod siphash;

/// A 128-bit secret key kept in the on-chip domain.
///
/// In the threat model (§II-A) the processor, caches and memory controller
/// are trusted; the key never leaves that domain, so attackers cannot forge
/// MACs. All MAC and OTP derivations in this crate take the key explicitly
/// so tests can model multiple machines / key loss.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey {
    k0: u64,
    k1: u64,
}

impl SecretKey {
    /// Creates a key from two raw 64-bit halves.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1 }
    }

    /// Derives a deterministic key from a small seed (for tests and
    /// reproducible experiments).
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into two independent halves.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let k0 = next();
        let k1 = next();
        Self { k0, k1 }
    }

    /// First key half.
    pub fn k0(&self) -> u64 {
        self.k0
    }

    /// Second key half.
    pub fn k1(&self) -> u64 {
        self.k1
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material, even in debug logs.
        f.write_str("SecretKey(<redacted>)")
    }
}

impl Default for SecretKey {
    fn default() -> Self {
        Self::from_seed(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(SecretKey::from_seed(42), SecretKey::from_seed(42));
        assert_ne!(SecretKey::from_seed(42), SecretKey::from_seed(43));
    }

    #[test]
    fn debug_redacts_key_material() {
        let key = SecretKey::from_seed(1);
        let s = format!("{key:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains(&format!("{:x}", key.k0())));
    }

    #[test]
    fn halves_are_independent() {
        let key = SecretKey::from_seed(9);
        assert_ne!(key.k0(), key.k1());
    }
}
