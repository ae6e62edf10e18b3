//! Deterministic random number generation.
//!
//! The evaluation must be bit-reproducible across platforms, so the crate
//! ships its own generator — xoshiro256++ seeded through SplitMix64 — and
//! the distribution samplers used by the paper's models (uniform, normal,
//! truncated normal, exponential, Pareto). All samplers consume the stream
//! in a fixed order, so a seed uniquely determines every simulation run.

/// A xoshiro256++ pseudo-random generator.
///
/// # Examples
///
/// ```
/// use oasis_sim::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64's increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step used to expand a 64-bit seed into the generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++'s output function; it reads state words 0 and 3 only.
#[inline]
fn output(s0: u64, s3: u64) -> u64 {
    s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
}

/// The top 53 bits of `x` as a uniform double in `[0, 1)`.
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// The first [`next_f64`](SimRng::next_f64) draw of
    /// [`SimRng::new(seed)`](SimRng::new), without building the generator.
    ///
    /// The first xoshiro256++ output reads only state words 0 and 3, and
    /// SplitMix64 derives each word from the seed alone, so two of the
    /// four seeding steps suffice. For per-item streams that draw once.
    #[inline]
    pub fn first_f64(seed: u64) -> f64 {
        // Seeding step k starts from the seed advanced k increments.
        let (mut at0, mut at3) = (seed, seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(3)));
        unit_f64(output(splitmix64(&mut at0), splitmix64(&mut at3)))
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each model its own stream so that adding draws to one
    /// model does not perturb another.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        let a = self.next_u64();
        SimRng::new(a ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = output(self.s[0], self.s[3]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method: unbiased and fast.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal draw (Box–Muller; consumes two uniforms).
    pub fn std_normal(&mut self) -> f64 {
        // Avoid u == 0 which would send ln(u) to -inf.
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (core::f64::consts::TAU * v).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Normal draw truncated (by resampling) to `[lo, hi]`.
    ///
    /// Used for the Jettison idle working-set distribution, which must stay
    /// within (0, allocation]. Falls back to clamping after 64 rejections so
    /// pathological parameters cannot loop forever.
    pub fn truncated_normal(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        mean.clamp(lo, hi)
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Pareto draw with scale `x_min` and shape `alpha`.
    ///
    /// Heavy-tailed; models bursty idle-time page request clusters.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Geometric draw: number of failures before the first success with
    /// probability `p` per trial.
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Chooses a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_later_draws() {
        let mut parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        // Burn draws on one parent only; the forked children must agree.
        for _ in 0..10 {
            parent1.next_u64();
        }
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn first_f64_is_the_first_draw_of_a_fresh_generator() {
        let mut seeds = SimRng::new(17);
        let edge = [0, 1, u64::MAX, GOLDEN_GAMMA, GOLDEN_GAMMA.wrapping_neg()];
        for seed in edge.into_iter().chain((0..100_000).map(|_| seeds.next_u64())) {
            assert_eq!(
                SimRng::first_f64(seed).to_bits(),
                SimRng::new(seed).next_f64().to_bits(),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers_values() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = SimRng::new(4);
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(165.63, 91.38);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 165.63).abs() < 2.0, "mean {mean}");
        assert!((var.sqrt() - 91.38).abs() < 2.0, "std {}", var.sqrt());
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let x = rng.truncated_normal(165.63, 91.38, 1.0, 4096.0);
            assert!((1.0..=4096.0).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_pathological_params_clamp() {
        let mut rng = SimRng::new(6);
        // Mean far outside the window: resampling fails, clamping kicks in.
        let x = rng.truncated_normal(10_000.0, 0.001, 0.0, 1.0);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(8);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(234.0)).sum::<f64>() / n as f64;
        assert!((mean - 234.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn geometric_mean_close_to_expectation() {
        let mut rng = SimRng::new(10);
        let p = 0.25;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.geometric(p) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p;
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(12);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = SimRng::new(13);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
