//! Bench-owned randomness and hashing, so that inputs depend on
//! `--seed` and on nothing a later PR may change.

use dnnspmv_sparse::CooMatrix;

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A Zipf stream over ranks `0..n` with exponent `s`: rank `r` is drawn
/// with probability proportional to `1 / (r + 1)^s`.
pub fn zipf_stream(n: usize, s: f64, len: usize, seed: u64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(total);
    }
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c <= u).min(n - 1) as u32
        })
        .collect()
}

/// FNV-1a64, byte by byte.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u32s(&mut self, v: &[u32]) {
        for x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Shape, pattern and value bits of one matrix.
    pub fn matrix(&mut self, m: &CooMatrix<f32>) {
        self.u64(m.nrows() as u64);
        self.u64(m.ncols() as u64);
        self.u64(m.nnz() as u64);
        self.u32s(m.row_indices());
        self.u32s(m.col_indices());
        for v in m.values() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_function_of_its_seed() {
        let a = zipf_stream(200, 1.1, 4096, 7);
        assert_eq!(a, zipf_stream(200, 1.1, 4096, 7));
        assert_ne!(a, zipf_stream(200, 1.1, 4096, 8));
        assert!(a.iter().all(|&r| r < 200));
        // Rank 0 is the most frequent and the head carries the mass.
        let count = |r: u32| a.iter().filter(|&&x| x == r).count();
        assert!(count(0) > count(1) && count(1) > count(20));
        let head = a.iter().filter(|&&x| x < 20).count();
        assert!(
            head * 2 > a.len(),
            "top tenth of ranks drew {head} of {}",
            a.len()
        );
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn rng_range_stays_inside() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let v = r.range(48, 256);
            assert!((48..=256).contains(&v));
        }
    }
}
