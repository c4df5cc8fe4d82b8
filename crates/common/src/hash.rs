//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! Hot paths in the engine (grid lookups in the baselines, cell-id maps,
//! cluster registries) hash small integer keys millions of times per run.
//! `std`'s SipHash is needlessly slow there; this is the Fx algorithm used
//! by rustc (a multiply-xor mix), implemented locally so the workspace does
//! not need an extra dependency: every dependency is vendored for offline
//! builds, and a dozen lines do not justify another. HashDoS resistance is
//! irrelevant: all keys are internal ids, never attacker-controlled.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash algorithm (64-bit golden-ratio-ish constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx hasher state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Creates an empty [`FxHashMap`].
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// Creates an empty [`FxHashSet`].
pub fn fx_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrips_integer_keys() {
        let mut m: FxHashMap<u64, &str> = fx_map();
        m.insert(1, "a");
        m.insert(u64::MAX, "b");
        m.insert(0, "c");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&u64::MAX), Some(&"b"));
        assert_eq!(m.get(&0), Some(&"c"));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn set_deduplicates() {
        let mut s: FxHashSet<u32> = fx_set();
        for x in [1u32, 2, 2, 3, 1] {
            s.insert(x);
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn hasher_is_deterministic_within_process() {
        let hash = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn hasher_mixes_byte_streams() {
        let mut a = FxHasher::default();
        a.write(b"hello world!!");
        let mut b = FxHasher::default();
        b.write(b"hello world!?");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tuple_keys_work() {
        let mut m: FxHashMap<(i64, i64), u32> = fx_map();
        m.insert((3, -4), 7);
        m.insert((-3, 4), 9);
        assert_eq!(m[&(3, -4)], 7);
        assert_eq!(m[&(-3, 4)], 9);
    }
}
