//! Deterministic, clonable random number generator for LP state.
//!
//! Every LP owns a private RNG stream whose state is saved and restored by
//! the rollback machinery (a random draw made while processing an event must
//! be reproduced identically when the event is re-executed). We implement
//! xoshiro256** seeded through SplitMix64 — golden-value tests and
//! cross-runtime determinism need a fixed algorithm.

use serde::{Deserialize, Serialize};

/// SplitMix64 step — used for seeding and as a cheap one-shot mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The high 53 bits of `r` as a uniform `f64` in `[0, 1)`.
#[inline]
pub fn unit_f64(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256** generator with full `Clone`/`Eq` state, suitable for
/// inclusion in rollback snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed from a single `u64` via SplitMix64 (never yields the all-zero
    /// state, which xoshiro cannot escape).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent stream for LP `lp` under experiment seed `seed`.
    ///
    /// Streams for distinct `(seed, lp)` pairs are decorrelated by mixing the
    /// LP index through SplitMix64 before seeding.
    pub fn for_lp(seed: u64, lp: crate::ids::LpId) -> Self {
        let mut sm = seed ^ 0xA076_1D64_78BD_642F;
        let a = splitmix64(&mut sm);
        let mut sm2 = a ^ (lp.0 as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
        DetRng::seed_from_u64(splitmix64(&mut sm2))
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the high 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, bound)` (Lemire's method, bound > 0).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Widening multiply rejection-free approximation is fine here: the
        // bias for bound << 2^64 is far below anything observable by the
        // simulation models.
        let m = (self.next_u64() as u128).wrapping_mul(bound as u128);
        (m >> 64) as u64
    }

    /// Exponentially distributed draw with the given mean (inverse CDF).
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 - u in (0, 1] avoids ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LpId;

    #[test]
    fn deterministic_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = DetRng::seed_from_u64(7);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn distinct_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lp_streams_differ() {
        let mut a = DetRng::for_lp(9, LpId(0));
        let mut b = DetRng::for_lp(9, LpId(1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn below_hits_every_residue() {
        let mut r = DetRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut r = DetRng::seed_from_u64(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
