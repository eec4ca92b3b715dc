//! A fixed multiplicative hasher for maps keyed by simulator addresses.
//!
//! The sparse NVM image, the ECC sideband, the pre-write journal, the
//! program-visible memory and BMF's nvMC are hash maps keyed by line
//! addresses or leaf indices that the simulator derives from its own
//! traffic. On those keys std's SipHash-1-3 with a random seed spends
//! more time hashing than the map spends probing. [`FixedState`] folds
//! each 64-bit word into the state with one rotate, one xor and one
//! multiply (the FxHash step), which spreads dense integer keys across
//! both the low bits hashbrown indexes with and the top bits it tags with.
//!
//! The hasher is unkeyed, so keys crafted to collide degrade a map to a
//! linear scan. Use it only for keys the program produces, or keys from
//! outside the program that were checked against a bound first (the
//! durable-image reopen path rejects out-of-range sideband addresses and
//! nvMC leaf indices before they reach a map). A fixed hasher also makes
//! iteration order repeatable from run to run: code that serializes or
//! counts must still sort, because that order is an accident of the hash.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier of the FxHash step (rustc's `FxHasher`, 64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher [`FixedState`] builds; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher {
    hash: u64,
}

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`BuildHasher`] producing [`FixedHasher`]s: the same key hashes the
/// same in every map and every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    #[inline]
    fn build_hasher(&self) -> FixedHasher {
        FixedHasher::default()
    }
}

/// A `HashMap` over [`FixedState`]; construct with `FixedHashMap::default()`.
pub type FixedHashMap<K, V> = HashMap<K, V, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: std::hash::Hash>(value: T) -> u64 {
        FixedState.hash_one(value)
    }

    #[test]
    fn same_key_same_hash_in_every_map() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
    }

    #[test]
    fn dense_keys_spread_over_low_and_top_bits() {
        // 1024 consecutive addresses must land in distinct low-10-bit
        // buckets (the multiplier is odd, so the map is a bijection) and
        // use many distinct 7-bit top tags.
        let mut low = std::collections::BTreeSet::new();
        let mut top = std::collections::BTreeSet::new();
        for key in 0u64..1024 {
            let h = hash_of(key);
            low.insert(h & 1023);
            top.insert(h >> 57);
        }
        assert_eq!(low.len(), 1024);
        assert!(top.len() > 100, "{} distinct top tags", top.len());
    }

    #[test]
    fn byte_writes_fold_every_chunk() {
        let mut a = FixedHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FixedHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FixedHashMap<u64, u64> = FixedHashMap::default();
        for k in 0..1000 {
            map.insert(k * 64, k);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(999 * 64)), Some(&999));
        assert_eq!(map.get(&1), None);
    }
}
