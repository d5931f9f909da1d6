//! Poisson-point-process arrival emulation within a configuration slot.
//!
//! The paper emulates slice traffic inside each 15-minute configuration
//! interval by generating user-request timestamps from a Poisson point
//! process at the trace's arrival rate (§7.1): inter-arrival times are
//! exponential with mean `1 / rate`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Draws a standard-normal sample using the Box–Muller transform.
///
/// Shared with the trace generator's log-normal noise; kept here so the crate
/// has no dependency beyond `rand`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A Poisson point process over a fixed-length interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonArrivals {
    /// Mean arrival rate in events per second.
    rate: f64,
    /// Interval length in seconds.
    duration: f64,
}

impl PoissonArrivals {
    /// Creates an arrival process with the given rate (events/s) over a slot
    /// of `duration` seconds.
    ///
    /// # Panics
    /// Panics if the rate is negative or the duration is not positive.
    pub fn new(rate: f64, duration: f64) -> Self {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "rate must be finite and non-negative"
        );
        assert!(duration > 0.0, "duration must be positive");
        Self { rate, duration }
    }

    /// The configured rate (events per second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Expected number of arrivals in the slot.
    pub fn expected_count(&self) -> f64 {
        self.rate * self.duration
    }

    /// Samples the arrival timestamps (seconds from the start of the slot),
    /// in increasing order.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        if self.rate == 0.0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.expected_count().ceil() as usize);
        let mut t = 0.0;
        loop {
            // Exponential inter-arrival with mean 1/rate.
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / self.rate;
            if t >= self.duration {
                break;
            }
            out.push(t);
        }
        out
    }

    /// Samples only the number of arrivals in the slot (a Poisson draw).
    ///
    /// For large expected counts (> 50) a Gaussian approximation is used;
    /// this is what the RDC slice (up to 90 000 arrivals per slot) relies on.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lambda = self.expected_count();
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 50.0 {
            let z = standard_normal(rng);
            let v = lambda + lambda.sqrt() * z;
            return v.round().max(0.0) as u64;
        }
        // Knuth's algorithm for small lambda.
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // safety valve; unreachable for lambda <= 50
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_rate_produces_no_arrivals() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p = PoissonArrivals::new(0.0, 900.0);
        assert!(p.sample(&mut rng).is_empty());
        assert_eq!(p.sample_count(&mut rng), 0);
    }

    #[test]
    fn arrivals_are_sorted_and_within_the_slot() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = PoissonArrivals::new(2.0, 100.0);
        let times = p.sample(&mut rng);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (0.0..100.0).contains(&t)));
    }

    #[test]
    fn empirical_mean_count_matches_expectation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = PoissonArrivals::new(5.0, 60.0); // expect 300
        let n_trials = 200;
        let total: usize = (0..n_trials).map(|_| p.sample(&mut rng).len()).sum();
        let mean = total as f64 / n_trials as f64;
        assert!(
            (mean - 300.0).abs() < 15.0,
            "empirical mean {mean} should be close to 300"
        );
    }

    #[test]
    fn sample_count_matches_expectation_for_large_lambda() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = PoissonArrivals::new(100.0, 900.0); // expect 90 000
        let mean: f64 = (0..100)
            .map(|_| p.sample_count(&mut rng) as f64)
            .sum::<f64>()
            / 100.0;
        assert!((mean - 90_000.0).abs() / 90_000.0 < 0.01);
    }

    #[test]
    fn sample_count_matches_expectation_for_small_lambda() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = PoissonArrivals::new(0.01, 300.0); // expect 3
        let mean: f64 = (0..5_000)
            .map(|_| p.sample_count(&mut rng) as f64)
            .sum::<f64>()
            / 5_000.0;
        assert!(
            (mean - 3.0).abs() < 0.15,
            "empirical mean {mean} should be near 3"
        );
    }

    #[test]
    fn standard_normal_has_roughly_unit_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean} should be near 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} should be near 1");
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_is_rejected() {
        let _ = PoissonArrivals::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_is_rejected() {
        let _ = PoissonArrivals::new(-1.0, 10.0);
    }
}
