//! Seeded input generation. Everything the program under test receives
//! is made here, before set-up, from the run's `--seed` alone; the
//! generators are local copies of the paper's processes so that a change
//! to the repository's simulators cannot change the benchmark's inputs.

use std::f64::consts::{FRAC_PI_2, PI};

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform on `(0, 1)`.
    pub fn open_uniform(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }
}

/// Weight of the uniform part and jump location of the paper's
/// sine–uniform marginal.
const SINE_UNIFORM_WEIGHT: f64 = 0.7;
const SINE_CUTOFF: f64 = 0.7;

fn sine_uniform_cdf(x: f64) -> f64 {
    let w = SINE_UNIFORM_WEIGHT;
    if x <= 0.0 {
        0.0
    } else if x >= 1.0 {
        1.0
    } else if x <= SINE_CUTOFF {
        w * x + (1.0 - w) * (1.0 - (FRAC_PI_2 * x / SINE_CUTOFF).cos())
    } else {
        w * x + (1.0 - w)
    }
}

fn sine_uniform_pdf(x: f64) -> f64 {
    let w = SINE_UNIFORM_WEIGHT;
    let scale = FRAC_PI_2 / SINE_CUTOFF;
    if x <= SINE_CUTOFF {
        w + (1.0 - w) * scale * (scale * x).sin()
    } else {
        w
    }
}

/// Inverse of the sine–uniform cdf: closed form above the jump,
/// safeguarded Newton below it (the density there is at least 0.7, so
/// Newton converges in a handful of steps).
pub fn sine_uniform_quantile(u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    let at_cut = sine_uniform_cdf(SINE_CUTOFF);
    if u >= at_cut {
        return ((u - (1.0 - SINE_UNIFORM_WEIGHT)) / SINE_UNIFORM_WEIGHT).min(1.0);
    }
    let (mut lo, mut hi) = (0.0_f64, SINE_CUTOFF);
    let mut x = u.clamp(lo, hi);
    for _ in 0..40 {
        let f = sine_uniform_cdf(x) - u;
        if f.abs() < 1e-15 {
            break;
        }
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        let next = x - f / sine_uniform_pdf(x);
        x = if next > lo && next < hi {
            next
        } else {
            0.5 * (lo + hi)
        };
    }
    x
}

/// Case 2 of the paper: the time-reversed logistic-map chain, uniformised
/// through the arcsine law and mapped onto the sine–uniform marginal.
pub fn case2_expanding_map(n: usize, rng: &mut Rng) -> Vec<f64> {
    let invariant_quantile = |u: f64| (FRAC_PI_2 * u).sin().powi(2);
    let invariant_cdf = |y: f64| 2.0 / PI * y.clamp(0.0, 1.0).sqrt().asin();
    let mut y = invariant_quantile(rng.open_uniform());
    let mut orbit = Vec::with_capacity(n);
    for _ in 0..n {
        orbit.push(sine_uniform_quantile(invariant_cdf(y)));
        y = 4.0 * y * (1.0 - y);
        // Floating-point orbits can collapse onto the fixed point 0;
        // restart from the invariant law, which leaves the marginal intact.
        if !(1e-15..=1.0 - 1e-15).contains(&y) {
            y = invariant_quantile(rng.open_uniform());
        }
    }
    // The Markov chain of the paper runs the expanding map backwards.
    orbit.reverse();
    orbit
}

fn triangular_cdf(s: f64) -> f64 {
    if s <= 0.0 {
        0.0
    } else if s <= 1.0 {
        0.5 * s * s
    } else if s <= 2.0 {
        1.0 - 0.5 * (2.0 - s) * (2.0 - s)
    } else {
        1.0
    }
}

/// Uniformised Case 3 path: the non-causal moving average
/// `Y_t = Σ_j a_j ξ_{t−j}`, `a_j = (1/3)·2^{−|j|}`, `ξ` Bernoulli(1/2),
/// pushed through its exact marginal cdf (that of `(U + U′ + ξ)/3`).
pub fn case3_uniform(n: usize, rng: &mut Rng) -> Vec<f64> {
    const PAD: usize = 64;
    let xi: Vec<f64> = (0..n + 2 * PAD)
        .map(|_| (rng.next_u64() >> 63) as f64)
        .collect();
    // Two one-sided geometric sums, each by its own recursion.
    let mut left = vec![0.0; xi.len()];
    for t in 1..xi.len() {
        left[t] = 0.5 * (left[t - 1] + xi[t - 1]);
    }
    let mut right = vec![0.0; xi.len()];
    for t in (0..xi.len() - 1).rev() {
        right[t] = 0.5 * (right[t + 1] + xi[t + 1]);
    }
    (PAD..PAD + n)
        .map(|t| {
            let y = (xi[t] + left[t] + right[t]) / 3.0;
            0.5 * triangular_cdf(3.0 * y) + 0.5 * triangular_cdf(3.0 * y - 1.0)
        })
        .collect()
}

/// Case 3 on the sine–uniform marginal (the `fresh_serve` column).
pub fn case3_noncausal_ma(n: usize, rng: &mut Rng) -> Vec<f64> {
    case3_uniform(n, rng)
        .into_iter()
        .map(sine_uniform_quantile)
        .collect()
}

/// Correlated pairs `y = x + noise mod 1` with `x` the uniformised Case 3
/// path (dependent in time) and uniform noise of half-width `noise`.
pub fn noisy_diagonal_pairs(n: usize, noise: f64, rng: &mut Rng) -> Vec<(f64, f64)> {
    let xs = case3_uniform(n, rng);
    xs.into_iter()
        .map(|x| {
            let y = (x + noise * (2.0 * rng.uniform() - 1.0)).rem_euclid(1.0);
            (x, y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_inverts_the_cdf() {
        for i in 0..=1000 {
            let u = i as f64 / 1000.0;
            let x = sine_uniform_quantile(u);
            assert!((sine_uniform_cdf(x) - u).abs() < 1e-12, "u = {u}");
        }
    }

    #[test]
    fn generators_repeat_for_a_seed() {
        let a = case2_expanding_map(1000, &mut Rng::new(7));
        let b = case2_expanding_map(1000, &mut Rng::new(7));
        assert_eq!(a, b);
        let c = case3_noncausal_ma(1000, &mut Rng::new(7));
        assert!(c.iter().all(|x| (0.0..=1.0).contains(x)));
    }
}
