//! The benchmark's only source of randomness: SplitMix64, seeded from the
//! command line, so one seed always yields the same inputs on every host.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, and good enough for
/// picking inputs and arrival gaps.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A child generator whose stream depends only on `self`'s seed and
    /// `stream`, so adding a draw to one workload part never shifts another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut child = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponentially distributed gap in seconds for a Poisson process
    /// of `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}
