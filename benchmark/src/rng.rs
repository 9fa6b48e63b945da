//! The seeded generator behind every workload's inputs: SplitMix64, so the
//! same `--seed` gives byte-identical inputs on every host.

/// SplitMix64 (Steele, Lea & Flood): one `u64` of state, full period.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent generator for sub-stream `k` of this seed.
    pub fn fork(&self, k: u64) -> Rng {
        let mut r = Rng(self.0 ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next()).collect::<Vec<_>>();
        assert_eq!(draw(Rng::new(7)), draw(Rng::new(7)));
        assert_ne!(draw(Rng::new(7)), draw(Rng::new(8)));
        assert_ne!(draw(Rng::new(7).fork(0)), draw(Rng::new(7).fork(1)));
    }

    #[test]
    fn range_and_shuffle_stay_in_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!((-4..=4).contains(&r.range(-4, 4)));
            assert!((0.0..1.0).contains(&r.unit()));
        }
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
