//! Counter-based deterministic randomness for injection decisions.
//!
//! A fault decision must be reproducible from `(seed, site, step)`
//! alone — independent of thread interleaving, call order, and how many
//! other sites queried the injector before this one. A stateful RNG
//! cannot give that, so decisions hash their coordinates instead
//! (SplitMix64 as the mixer, FNV-1a to fold the site name in).

use sfn_rng::{fnv1a, splitmix64};

/// Mixes a decision's coordinates into one hash.
pub fn decision_hash(seed: u64, spec_index: usize, site: &str, step: u64) -> u64 {
    let mut h = seed;
    h = splitmix64(h ^ (spec_index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    h = splitmix64(h ^ fnv1a(site.as_bytes()));
    splitmix64(h ^ step.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Maps a hash to a uniform draw in `[0, 1)` (53 mantissa bits).
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = decision_hash(42, 1, "projector/M7", 10);
        let b = decision_hash(42, 1, "projector/M7", 10);
        assert_eq!(a, b);
    }

    #[test]
    fn coordinates_decorrelate() {
        let base = decision_hash(42, 1, "projector/M7", 10);
        assert_ne!(base, decision_hash(43, 1, "projector/M7", 10), "seed");
        assert_ne!(base, decision_hash(42, 2, "projector/M7", 10), "spec");
        assert_ne!(base, decision_hash(42, 1, "projector/M8", 10), "site");
        assert_ne!(base, decision_hash(42, 1, "projector/M7", 11), "step");
    }

    #[test]
    fn unit_draws_are_in_range_and_roughly_uniform() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit_f64(decision_hash(7, 0, "site", i));
            assert!((0.0..1.0).contains(&u), "{u}");
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from uniform");
    }
}
