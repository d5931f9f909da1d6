//! Micro-benchmarks of the neural-network substrate: forward and
//! forward+backward passes of the paper-sized (128×64×32) policy trunk and
//! of the Bayesian cost-value estimator.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use onslicing_nn::{
    Activation, BatchWorkspace, BayesianMlp, GaussianPolicy, Matrix, Mlp, PredictScratch,
};
use onslicing_slices::{ACTION_DIM, STATE_DIM};

fn bench_mlp(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut net = Mlp::onslicing_default(STATE_DIM, ACTION_DIM, Activation::Sigmoid, &mut rng);
    let x = vec![0.3; STATE_DIM];
    c.bench_function("mlp_forward_128x64x32", |b| {
        b.iter(|| std::hint::black_box(net.forward(&x)))
    });
    let batch = Matrix::from_vec(1, STATE_DIM, x.clone());
    let grad = Matrix::from_vec(1, ACTION_DIM, vec![1.0 / ACTION_DIM as f64; ACTION_DIM]);
    let mut ws = BatchWorkspace::new();
    c.bench_function("mlp_forward_backward_128x64x32", |b| {
        b.iter(|| {
            net.zero_grad();
            std::hint::black_box(net.forward_batch(&batch, &mut ws));
            net.backward_batch(&grad, &mut ws);
        })
    });
}

fn bench_policy_sample(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let policy = GaussianPolicy::new(STATE_DIM, ACTION_DIM, 0.1, &mut rng);
    let x = vec![0.3; STATE_DIM];
    c.bench_function("gaussian_policy_sample", |b| {
        b.iter(|| std::hint::black_box(policy.sample(&x, &mut rng)))
    });
}

fn bench_bayesian_predict(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let net = BayesianMlp::new(&[STATE_DIM, 64, 32, 1], &mut rng);
    let mut scratch = PredictScratch::new();
    let x = vec![0.3; STATE_DIM];
    c.bench_function("bayesian_predict_16_samples", |b| {
        b.iter(|| std::hint::black_box(net.predict_with(&x, 16, &mut rng, &mut scratch)))
    });
}

criterion_group!(
    benches,
    bench_mlp,
    bench_policy_sample,
    bench_bayesian_predict
);
criterion_main!(benches);
