//! Diurnal traffic-trace synthesis.
//!
//! A [`TrafficTrace`] is a sequence of per-slot mean arrival rates
//! (users per second) for one slice. Traces are produced by a
//! [`TraceGenerator`] from a [`DiurnalTraceConfig`] describing the diurnal
//! envelope and noise level, then scaled so the busiest slot hits the
//! configured peak rate — mirroring how the paper rescales the Telecom
//! Italia traces to the testbed's capacity.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::SLOTS_PER_DAY;

/// Configuration of the synthetic diurnal traffic envelope for one slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalTraceConfig {
    /// Peak arrival rate in users per second; the busiest slot of the
    /// generated trace equals this value exactly.
    pub peak_rate: f64,
    /// Fraction of the peak that persists at the quietest time of day
    /// (0 = the trace dips to zero at night, 1 = flat traffic).
    pub base_fraction: f64,
    /// Relative strength of the 12-hour harmonic (second diurnal peak,
    /// typically a morning and an evening busy hour). 0 disables it.
    pub second_harmonic: f64,
    /// Hour of day (0–24) at which the main diurnal peak occurs.
    pub peak_hour: f64,
    /// Standard deviation of the multiplicative log-normal noise applied to
    /// every slot (0 disables noise).
    pub noise_std: f64,
    /// Relative weekend attenuation applied when generating traces longer
    /// than one day (0 = weekends identical to weekdays).
    pub weekend_dip: f64,
}

impl DiurnalTraceConfig {
    /// Profile for the mobile-AR slice: 5 users/s peak (paper §7.1),
    /// office-hours centred with a noticeable evening tail.
    pub fn mar_default() -> Self {
        Self {
            peak_rate: 5.0,
            base_fraction: 0.15,
            second_harmonic: 0.35,
            peak_hour: 14.0,
            noise_std: 0.12,
            weekend_dip: 0.25,
        }
    }

    /// Profile for the HD-video-streaming slice: 2 users/s peak, evening
    /// centred (streaming peaks after work hours).
    pub fn hvs_default() -> Self {
        Self {
            peak_rate: 2.0,
            base_fraction: 0.2,
            second_harmonic: 0.2,
            peak_hour: 20.0,
            noise_std: 0.15,
            weekend_dip: -0.15, // slightly *more* streaming on weekends
        }
    }

    /// Profile for the reliable-distant-control (IoT) slice: 100 users/s
    /// peak, nearly flat (machine-type traffic barely follows human rhythms).
    pub fn rdc_default() -> Self {
        Self {
            peak_rate: 100.0,
            base_fraction: 0.7,
            second_harmonic: 0.05,
            peak_hour: 11.0,
            noise_std: 0.05,
            weekend_dip: 0.05,
        }
    }

    /// Returns a copy with a different peak rate (used for the user-scaling
    /// experiment of Fig. 18).
    pub fn with_peak_rate(mut self, peak_rate: f64) -> Self {
        self.peak_rate = peak_rate;
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.peak_rate <= 0.0 {
            return Err(format!(
                "peak_rate must be positive, got {}",
                self.peak_rate
            ));
        }
        if !(0.0..=1.0).contains(&self.base_fraction) {
            return Err(format!(
                "base_fraction must be in [0, 1], got {}",
                self.base_fraction
            ));
        }
        if self.noise_std < 0.0 {
            return Err(format!(
                "noise_std must be non-negative, got {}",
                self.noise_std
            ));
        }
        if !(0.0..24.0).contains(&self.peak_hour) {
            return Err(format!(
                "peak_hour must be in [0, 24), got {}",
                self.peak_hour
            ));
        }
        Ok(())
    }
}

/// A per-slot arrival-rate trace (users per second) for one slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficTrace {
    rates: Vec<f64>,
    slot_seconds: f64,
}

impl TrafficTrace {
    /// Wraps an explicit rate sequence (e.g. loaded from a real dataset).
    ///
    /// # Panics
    /// Panics if any rate is negative or not finite.
    pub fn from_rates(rates: Vec<f64>, slot_seconds: f64) -> Self {
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "arrival rates must be finite and non-negative"
        );
        assert!(slot_seconds > 0.0, "slot duration must be positive");
        Self {
            rates,
            slot_seconds,
        }
    }

    /// Number of slots in the trace.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the trace has no slots.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Duration of one slot in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }

    /// Arrival rate (users/s) at slot `t`; the trace wraps around so that any
    /// slot index is valid (day after day repeats the same envelope, noise
    /// included).
    pub fn rate_at(&self, t: usize) -> f64 {
        assert!(!self.rates.is_empty(), "rate_at on an empty trace");
        self.rates[t % self.rates.len()]
    }

    /// The maximum rate over the trace.
    pub fn peak_rate(&self) -> f64 {
        self.rates.iter().cloned().fold(0.0, f64::max)
    }

    /// Immutable access to the raw per-slot rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Returns a copy with every rate multiplied by `scale` (a traffic
    /// regime shift: the diurnal shape is preserved, the volume changes).
    ///
    /// # Panics
    /// Panics if the scale is negative or not finite.
    pub fn scaled(&self, scale: f64) -> Self {
        assert!(
            scale >= 0.0 && scale.is_finite(),
            "traffic scale must be finite and non-negative"
        );
        Self {
            rates: self.rates.iter().map(|r| r * scale).collect(),
            slot_seconds: self.slot_seconds,
        }
    }
}

/// Generates [`TrafficTrace`]s from a [`DiurnalTraceConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceGenerator {
    config: DiurnalTraceConfig,
    slot_seconds: f64,
}

impl TraceGenerator {
    /// Creates a generator with the paper's 15-minute slots.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`DiurnalTraceConfig::validate`]).
    pub fn new(config: DiurnalTraceConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid trace configuration: {e}");
        }
        Self {
            config,
            slot_seconds: crate::SLOT_SECONDS,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &DiurnalTraceConfig {
        &self.config
    }

    /// Noise-free diurnal envelope value (in `[base_fraction, 1]`) at the
    /// given slot index.
    pub fn envelope(&self, slot: usize) -> f64 {
        let c = &self.config;
        let hour = (slot % SLOTS_PER_DAY) as f64 * 24.0 / SLOTS_PER_DAY as f64;
        let day = slot / SLOTS_PER_DAY;
        let phase = (hour - c.peak_hour) / 24.0 * std::f64::consts::TAU;
        // Main 24-hour component peaking at `peak_hour`, plus a 12-hour
        // harmonic producing a secondary busy period.
        let mut shape =
            0.5 * (1.0 + phase.cos()) + c.second_harmonic * 0.5 * (1.0 + (2.0 * phase).cos());
        shape /= 1.0 + c.second_harmonic;
        let mut v = c.base_fraction + (1.0 - c.base_fraction) * shape;
        // Weekend attenuation (days 5 and 6 of each week).
        if day % 7 >= 5 {
            v *= (1.0 - c.weekend_dip).max(0.0);
        }
        v.clamp(0.0, 2.0)
    }

    /// Generates a trace of `num_slots` slots, applying multiplicative
    /// log-normal noise and rescaling so the busiest slot equals the
    /// configured peak rate.
    pub fn generate<R: Rng + ?Sized>(&self, num_slots: usize, rng: &mut R) -> TrafficTrace {
        assert!(num_slots > 0, "a trace needs at least one slot");
        let c = &self.config;
        let mut rates: Vec<f64> = (0..num_slots)
            .map(|t| {
                let mut v = self.envelope(t);
                if c.noise_std > 0.0 {
                    let z = crate::arrivals::standard_normal(rng);
                    v *= (c.noise_std * z - 0.5 * c.noise_std * c.noise_std).exp();
                }
                v.max(0.0)
            })
            .collect();
        let peak = rates.iter().cloned().fold(0.0, f64::max).max(1e-12);
        let scale = c.peak_rate / peak;
        for r in &mut rates {
            *r *= scale;
        }
        TrafficTrace {
            rates,
            slot_seconds: self.slot_seconds,
        }
    }

    /// Generates the noise-free envelope trace (deterministic), rescaled to
    /// the peak rate. Useful for the model-based baseline, which assumes it
    /// knows the expected traffic.
    pub fn generate_mean(&self, num_slots: usize) -> TrafficTrace {
        assert!(num_slots > 0, "a trace needs at least one slot");
        let mut rates: Vec<f64> = (0..num_slots).map(|t| self.envelope(t)).collect();
        let peak = rates.iter().cloned().fold(0.0, f64::max).max(1e-12);
        let scale = self.config.peak_rate / peak;
        for r in &mut rates {
            *r *= scale;
        }
        TrafficTrace {
            rates,
            slot_seconds: self.slot_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_configs_are_valid() {
        for cfg in [
            DiurnalTraceConfig::mar_default(),
            DiurnalTraceConfig::hvs_default(),
            DiurnalTraceConfig::rdc_default(),
        ] {
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn generated_trace_peaks_at_configured_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for cfg in [
            DiurnalTraceConfig::mar_default(),
            DiurnalTraceConfig::hvs_default(),
            DiurnalTraceConfig::rdc_default(),
        ] {
            let peak = cfg.peak_rate;
            let trace = TraceGenerator::new(cfg).generate(2 * SLOTS_PER_DAY, &mut rng);
            assert!((trace.peak_rate() - peak).abs() < 1e-9);
            assert!(trace.rates().iter().all(|&r| r >= 0.0));
        }
    }

    #[test]
    fn envelope_peaks_near_configured_hour() {
        let gen = TraceGenerator::new(DiurnalTraceConfig::mar_default());
        let trace = gen.generate_mean(SLOTS_PER_DAY);
        let argmax = trace
            .rates()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let hour = argmax as f64 * 24.0 / SLOTS_PER_DAY as f64;
        assert!(
            (hour - 14.0).abs() < 1.5,
            "peak hour {hour} should be near 14:00"
        );
    }

    #[test]
    fn rdc_trace_is_flatter_than_mar_trace() {
        let mar =
            TraceGenerator::new(DiurnalTraceConfig::mar_default()).generate_mean(SLOTS_PER_DAY);
        let rdc =
            TraceGenerator::new(DiurnalTraceConfig::rdc_default()).generate_mean(SLOTS_PER_DAY);
        let ratio = |t: &TrafficTrace| {
            t.rates().iter().sum::<f64>() / t.rates().len() as f64 / t.peak_rate()
        };
        assert!(
            ratio(&rdc) > ratio(&mar),
            "machine-type traffic should be flatter"
        );
    }

    #[test]
    fn weekend_dip_reduces_weekend_traffic() {
        let gen = TraceGenerator::new(DiurnalTraceConfig::mar_default());
        let trace = gen.generate_mean(7 * SLOTS_PER_DAY);
        let weekday_mean: f64 =
            trace.rates()[..5 * SLOTS_PER_DAY].iter().sum::<f64>() / (5 * SLOTS_PER_DAY) as f64;
        let weekend_mean: f64 =
            trace.rates()[5 * SLOTS_PER_DAY..].iter().sum::<f64>() / (2 * SLOTS_PER_DAY) as f64;
        assert!(weekend_mean < weekday_mean);
    }

    #[test]
    fn trace_wraps_around() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let trace = TraceGenerator::new(DiurnalTraceConfig::hvs_default()).generate(96, &mut rng);
        assert_eq!(trace.rate_at(0), trace.rate_at(96));
        assert_eq!(trace.rate_at(5), trace.rate_at(96 + 5));
    }

    #[test]
    fn scaled_multiplies_every_rate_and_keeps_the_slot_duration() {
        let trace = TrafficTrace::from_rates(vec![1.0, 2.0, 4.0], 900.0);
        let surged = trace.scaled(1.5);
        assert_eq!(surged.rates(), &[1.5, 3.0, 6.0]);
        assert_eq!(surged.slot_seconds(), 900.0);
        assert_eq!(trace.scaled(0.0).peak_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "traffic scale must be finite")]
    fn negative_traffic_scale_is_rejected() {
        let _ = TrafficTrace::from_rates(vec![1.0], 900.0).scaled(-1.0);
    }

    #[test]
    fn generation_is_reproducible_with_the_same_seed() {
        let gen = TraceGenerator::new(DiurnalTraceConfig::mar_default());
        let a = gen.generate(96, &mut ChaCha8Rng::seed_from_u64(7));
        let b = gen.generate(96, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn mean_trace_is_noise_free_and_deterministic() {
        let gen = TraceGenerator::new(DiurnalTraceConfig::hvs_default());
        assert_eq!(gen.generate_mean(96), gen.generate_mean(96));
    }

    #[test]
    #[should_panic(expected = "invalid trace configuration")]
    fn invalid_config_panics() {
        let mut cfg = DiurnalTraceConfig::mar_default();
        cfg.peak_rate = -1.0;
        let _ = TraceGenerator::new(cfg);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rates_are_rejected() {
        let _ = TrafficTrace::from_rates(vec![1.0, -0.5], 900.0);
    }
}
