//! The kernel's sanctioned hashing: a fast, seed-free hasher for event
//! ids and small integer keys, and the two map aliases built on it.

use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic hasher for [`crate::event::EventId`] keys
/// (Fibonacci-style multiply-mix — the keys are already well distributed,
/// SipHash's DoS resistance buys nothing on internal maps and costs ~3×
/// per lookup).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // EventId hashes as one u32 + one u64 write; fold anything else
        // byte-wise for correctness.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `BuildHasher` for every [`IdHashMap`] and [`IdHashSet`] (the
/// lazy-cancellation key filter, the model checker's visited set and
/// shadow map).
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

/// The sanctioned hash map for kernel code: seed-free, so iteration can
/// never diverge between runs (clippy `disallowed-types` enforces that
/// every kernel map is either ordered or built on this).
#[allow(clippy::disallowed_types)]
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, IdHashBuilder>;

/// The sanctioned hash set for kernel code — see [`IdHashMap`].
#[allow(clippy::disallowed_types)]
pub type IdHashSet<T> = std::collections::HashSet<T, IdHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;

    #[test]
    fn id_hasher_spreads_sequential_ids() {
        use std::hash::BuildHasher;
        let b = IdHashBuilder::default();
        let mut seen = std::collections::HashSet::new();
        for src in 0..8u32 {
            for seq in 0..64u64 {
                seen.insert(b.hash_one(EventId { src, seq }));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "no collisions on a small dense id set");
    }
}
