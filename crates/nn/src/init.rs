//! Weight initialization schemes.
//!
//! He initialization is used for ReLU trunks and Xavier/Glorot for
//! sigmoid/tanh output heads. Both draw from a uniform distribution whose
//! half-width is derived from the fan-in/fan-out of the layer.

use rand::Rng;

use crate::activation::Activation;

/// Initialization scheme for a dense layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// He (Kaiming) uniform initialization, suited to ReLU-family activations.
    HeUniform,
    /// Xavier (Glorot) uniform initialization, suited to sigmoid/tanh.
    XavierUniform,
}

impl Init {
    /// Chooses a sensible default scheme for the given activation.
    pub fn for_activation(act: Activation) -> Self {
        match act {
            Activation::Relu => Init::HeUniform,
            Activation::Sigmoid | Activation::Tanh | Activation::Identity => Init::XavierUniform,
        }
    }

    /// Samples a single weight for a layer with the given fan-in and fan-out.
    pub fn sample<R: Rng + ?Sized>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> f64 {
        match self {
            Init::HeUniform => {
                let limit = (6.0 / fan_in.max(1) as f64).sqrt();
                rng.gen_range(-limit..limit)
            }
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
                rng.gen_range(-limit..limit)
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
    fn he_uniform_stays_within_limit() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let limit = (6.0f64 / 64.0).sqrt();
        for _ in 0..1000 {
            let w = Init::HeUniform.sample(64, 32, &mut rng);
            assert!(w.abs() <= limit);
        }
    }

    #[test]
    fn xavier_uniform_stays_within_limit() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let limit = (6.0f64 / 96.0).sqrt();
        for _ in 0..1000 {
            let w = Init::XavierUniform.sample(64, 32, &mut rng);
            assert!(w.abs() <= limit);
        }
    }

    #[test]
    fn default_scheme_matches_activation_family() {
        assert_eq!(Init::for_activation(Activation::Relu), Init::HeUniform);
        assert_eq!(
            Init::for_activation(Activation::Sigmoid),
            Init::XavierUniform
        );
        assert_eq!(
            Init::for_activation(Activation::Identity),
            Init::XavierUniform
        );
    }

    #[test]
    fn samples_are_roughly_zero_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mean: f64 = (0..20_000)
            .map(|_| Init::HeUniform.sample(128, 64, &mut rng))
            .sum::<f64>()
            / 20_000.0;
        assert!(mean.abs() < 0.01);
    }
}
