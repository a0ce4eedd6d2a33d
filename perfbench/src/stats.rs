//! Order statistics and the small helpers every workload shares.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// The tail a sample can support: the highest percentile that still has
/// at least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. 96.0 for p96.
    pub percentile: f64,
    pub value: f64,
    /// Sample count the percentile was taken from.
    pub samples: usize,
}

/// Sorted ascending, the element at index `i` has `n - 1 - i` samples
/// beyond it, so the highest usable index is `n - 1 - beyond`. `None`
/// when the sample is too small to have such an element.
pub fn tail(v: &[f64], beyond: usize) -> Option<Tail> {
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let i = n - 1 - beyond;
    Some(Tail {
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        value: s[i],
        samples: n,
    })
}

/// FNV-1a over a byte string: the pinned artifact's content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own input generator, so a change to the
/// program's RNG cannot change the benchmark's inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        // 90 has exactly ten values (91..=100) beyond it; 91 has nine.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let big: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = tail(&big, 10).unwrap();
        assert_eq!(t.value, 989.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_more_samples_than_it_keeps_beyond() {
        assert!(tail(&[1.0; 10], 10).is_none());
        let t = tail(&[3.0; 11], 10).unwrap();
        assert_eq!(t.value, 3.0);
        assert!(t.percentile > 9.0 && t.percentile < 10.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut r = SplitMix::new(1);
        let u: Vec<f64> = (0..20_000).map(|_| r.unit()).collect();
        assert!(u.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!((mean(&u) - 0.5).abs() < 0.01);
    }
}
