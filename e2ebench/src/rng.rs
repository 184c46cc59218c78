//! The benchmark's own seeded generator, so that inputs depend only on
//! `--seed` and never on the program under test.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// SplitMix64 (Steele, Lea and Flood).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), as an `i64` for SQL literals.
    pub fn below(&mut self, n: i64) -> i64 {
        let n = n.max(1) as u64;
        (self.next_u64() % n) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `0..n` by inverse CDF: value 0 is the most frequent.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> i64 {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.cdf.len().saturating_sub(1)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_favours_low_values() {
        let z = Zipf::new(50, 1.2);
        let mut r = Rng::new(1);
        let draws: Vec<i64> = (0..10_000).map(|_| z.sample(&mut r)).collect();
        let zeros = draws.iter().filter(|&&v| v == 0).count();
        let last = draws.iter().filter(|&&v| v == 49).count();
        assert!(draws.iter().all(|&v| (0..50).contains(&v)));
        assert!(zeros > 2_000 && last < 100, "zeros {zeros}, last {last}");
    }
}
