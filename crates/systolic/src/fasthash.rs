//! A fast non-cryptographic hasher for the plan cache.
//!
//! Every layer of every run looks its [`PlanKey`](crate::sim::PlanKey) up —
//! a handful of small integers the program built itself, never outside
//! input — so a Fibonacci-multiply mix is sufficient and several times
//! cheaper than the default SipHash.

use std::hash::Hasher;

/// Multiply-mix hasher specialized for integer keys.
#[derive(Debug, Default, Clone)]
pub struct FastHasher(u64);

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(SEED);
        self.0 = x ^ (x >> 29);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_spread() {
        // Consecutive addresses must not collapse to one bucket: check the
        // low bits of the hashes differ.
        use std::hash::Hash;
        let mut lows = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = FastHasher::default();
            i.hash(&mut h);
            lows.insert(h.finish() & 0x3F);
        }
        assert!(
            lows.len() > 32,
            "only {} distinct low-6-bit values",
            lows.len()
        );
    }
}
