//! Exact float-to-integer rounding without a libm call.
//!
//! Byte and microsecond quantities are rounded from `f64` on every
//! simulated transfer, fetch and energy charge. `f64::round` is a call
//! into libm on a baseline x86-64 target; [`round_u64`] computes the
//! same value with a truncating conversion and one comparison.

/// `x.round() as u64`, bit for bit: halves round away from zero, values
/// below one half (negatives and NaN included) give 0, and values past
/// `u64::MAX` saturate.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    if x.is_nan() || x < 0.5 {
        return 0;
    }
    // From 2^52 up every finite `f64` is an integer already.
    if x >= 4_503_599_627_370_496.0 {
        return x as u64;
    }
    let t = x as i64;
    // `x - t` is the exact fractional part below 2^52.
    t as u64 + u64::from(x - t as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn reference(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn matches_round_at_the_edges() {
        let half_below = 0.5f64.next_down();
        for x in [
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.5,
            -0.5,
            -0.0,
            0.0,
            half_below,
            0.5,
            0.5f64.next_up(),
            1.5,
            2.5,
            2.5f64.next_down(),
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_993.0,
            1.8e19,
            2.0e19,
            f64::MAX,
        ] {
            assert_eq!(round_u64(x), reference(x), "x = {x:e}");
        }
    }

    #[test]
    fn matches_round_on_random_values() {
        let mut rng = SimRng::new(11);
        for _ in 0..200_000 {
            // Random bit patterns cover every exponent; scaled uniforms
            // and near-halves cover the ranges the simulator rounds.
            let bits = f64::from_bits(rng.next_u64());
            let scaled = rng.next_f64() * 10f64.powi(rng.index(20) as i32);
            let half = (rng.below(1 << 40) as f64 + 0.5) * if rng.chance(0.5) { 1.0 } else { -1.0 };
            for x in [bits, scaled, half, half.next_up(), half.next_down()] {
                assert_eq!(round_u64(x), reference(x), "x = {x:e} ({:#x})", x.to_bits());
            }
        }
    }
}
