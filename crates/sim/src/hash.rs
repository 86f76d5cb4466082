//! An unseeded multiply-rotate hasher for hot-path maps with small keys.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random seed. That guards a server against hash flooding; the simulator
//! hashes only keys it made itself (message ids, endpoint addresses), so it
//! pays SipHash's cost for nothing. [`FastHasher`] folds each word into the
//! state as `(state.rotate_left(5) ^ word) * K` — the step of rustc's
//! `FxHasher` — which costs a rotate, a xor and a multiply per field.
//!
//! It has no seed: the same inserts build the same table, and so iterate in
//! the same order, in every process. That order is still an accident of the
//! hash, not a contract. Where iteration order reaches an output, sort or
//! use an ordered map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of `FxHasher` (a 64-bit golden-ratio-derived constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Folds a byte at a time. The simulator's keys are made of `u8`,
    /// `u16` and `u64` fields, which fold in one step each below; any
    /// other integer arrives here as its bytes.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` on [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// The function is pinned: a change to it must update these values
    /// on purpose.
    #[test]
    fn fixed_keys_hash_to_pinned_values() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), K);
        // A tuple folds its fields in order: (node, msg id).
        assert_eq!(
            hash_of((3u16, 42u64)),
            ((3u64.wrapping_mul(K)).rotate_left(5) ^ 42).wrapping_mul(K)
        );
        assert_eq!(hash_of((3u16, 42u64)), 0xc958_75be_6be5_8664);
        assert_eq!(hash_of((1u16, 2u8, 3u64)), 0xfdcb_2688_e076_0126);
        // Byte strings fold a byte at a time; `str` adds its 0xff
        // terminator.
        assert_eq!(hash_of("omx"), 0xdd84_78da_e9eb_97d2);
    }

    #[test]
    fn same_inserts_iterate_identically() {
        let build = || {
            let mut m: FastMap<(u16, u64), u32> = FastMap::default();
            for i in 0..1000u64 {
                m.insert(((i % 17) as u16, i * 31), i as u32);
            }
            for i in (0..1000u64).step_by(3) {
                m.remove(&(((i % 17) as u16), i * 31));
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()));
        assert_eq!(a.len(), 666);
    }
}
