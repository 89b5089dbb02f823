//! Replacement policies for set-associative arrays.
//!
//! The paper's TLBs use LRU (§III-E); FIFO and a deterministic pseudo-random
//! policy are provided for ablation. [`SetAssocTlb`](crate::SetAssocTlb)
//! keeps LRU and FIFO sets in recency or insertion order, so both evict the
//! last way; only [`ReplacementPolicy::Random`] draws a victim.

/// Which way of a full set to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the paper's choice).
    #[default]
    Lru,
    /// Evict the oldest-inserted way regardless of use.
    Fifo,
    /// Evict a pseudo-random way (deterministic xorshift stream).
    Random,
}

/// The deterministic victim stream of [`ReplacementPolicy::Random`]: an
/// xorshift64* generator with a fixed seed.
#[derive(Debug, Clone)]
pub(crate) struct VictimRng(u64);

impl VictimRng {
    pub(crate) fn new() -> Self {
        Self(0x9e37_79b9_7f4a_7c15)
    }

    /// The next victim way of a full set of `ways` ways.
    pub(crate) fn way(&mut self, ways: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % ways as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = VictimRng::new();
        let mut b = VictimRng::new();
        for _ in 0..100 {
            let va = a.way(8);
            assert_eq!(va, b.way(8));
            assert!(va < 8);
        }
    }
}
