//! Property-based tests (proptest) on the workspace's core invariants:
//! action algebra, cost bounds, simulator sanity, coordination feasibility
//! and modifier monotonicity.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use onslicing::core::{ActionModifier, ModifierConfig};
use onslicing::domains::DomainSet;
use onslicing::netsim::{NetworkConfig, NetworkSimulator};
use onslicing::nn::{Activation, BatchWorkspace, Matrix, Mlp};
use onslicing::slices::{Action, Sla, SliceKind, SliceState, ACTION_DIM, STATE_DIM};
use onslicing::traffic::PoissonArrivals;

/// Naive `O(n³)` reference product, the specification the tiled kernels are
/// checked against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn matrix_from_pool(rows: usize, cols: usize, pool: &[f64]) -> Matrix {
    Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec())
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop::collection::vec(0.0f64..=1.0, ACTION_DIM).prop_map(|v| Action::from_vec(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 9: the resource usage of any valid action stays within [0, 6] and
    /// the reward is its negation.
    #[test]
    fn action_usage_is_bounded_and_reward_is_negated(action in action_strategy()) {
        let usage = action.resource_usage();
        prop_assert!((0.0..=6.0).contains(&usage));
        prop_assert!((action.reward() + usage).abs() < 1e-12);
        prop_assert!((0.0..=100.0).contains(&action.resource_usage_percent()));
    }

    /// Round-tripping an action through its vector form is lossless.
    #[test]
    fn action_vector_round_trip(action in action_strategy()) {
        prop_assert_eq!(Action::from_vec(&action.to_vec()), action);
    }

    /// Eq. 10: the cost of any raw performance value is within [0, 1] for
    /// every slice kind.
    #[test]
    fn cost_is_always_a_probability(raw in 0.0f64..1.0e6, kind_idx in 0usize..3) {
        let sla = Sla::for_kind(SliceKind::ALL[kind_idx]);
        let cost = sla.cost_from_performance(raw);
        prop_assert!((0.0..=1.0).contains(&cost));
    }

    /// Every KPI the simulator produces passes its own validity checks and
    /// yields a finite observation vector, whatever the action and traffic.
    #[test]
    fn simulator_kpis_are_always_valid(
        action in action_strategy(),
        rate_scale in 0.0f64..=1.5,
        kind_idx in 0usize..3,
        seed in 0u64..50,
    ) {
        let kind = SliceKind::ALL[kind_idx];
        let sla = Sla::for_kind(kind);
        let mut sim = NetworkSimulator::new(NetworkConfig::testbed_default().with_seed(seed));
        let rate = rate_scale * kind.default_peak_users_per_second();
        let kpi = sim.step_slice(kind, &sla, &action, rate);
        prop_assert!(kpi.validate().is_ok(), "invalid KPI: {:?}", kpi.validate());
        let state = SliceState::from_kpi(&sla, 1, 96, rate_scale, &kpi, kpi.cost);
        prop_assert!(state.is_finite());
        prop_assert_eq!(state.to_vec().len(), STATE_DIM);
    }

    /// Projection always yields a feasible allocation and never increases any
    /// share.
    #[test]
    fn projection_is_feasible_and_contractive(
        actions in prop::collection::vec(action_strategy(), 1..6)
    ) {
        let domains = DomainSet::testbed_default();
        let mut projected = actions.clone();
        domains.project_in_place(&mut projected);
        prop_assert!(domains.is_feasible_slice(&projected));
        for (orig, proj) in actions.iter().zip(projected.iter()) {
            for (a, b) in orig.to_vec().iter().zip(proj.to_vec().iter()) {
                prop_assert!(*b <= a + 1e-12);
            }
        }
    }

    /// The action modifier (without noise) never increases resource usage and
    /// respects its retention floor.
    #[test]
    fn modifier_is_contractive_and_floored(
        action in action_strategy(),
        betas in prop::collection::vec(0.0f64..=2.0, 6),
    ) {
        let modifier = ActionModifier::new(ModifierConfig { retention_floor: 0.6, noise_std: 0.0 });
        let mut rng = rand::thread_rng();
        let betas_arr = [betas[0], betas[1], betas[2], betas[3], betas[4], betas[5]];
        let modified = modifier.modify(&action, &betas_arr, &mut rng);
        prop_assert!(modified.resource_usage() <= action.resource_usage() + 1e-12);
        for r in onslicing::slices::ResourceKind::ALL {
            let original = action.resource_share(r);
            let new = modified.resource_share(r);
            prop_assert!(new + 1e-12 >= 0.6 * original, "floor violated: {new} < 0.6 * {original}");
        }
    }

    /// The Eq. 14 dual update keeps every beta non-negative and raises a beta
    /// only when its resource is over-requested.
    #[test]
    fn dual_update_signs_are_correct(
        actions in prop::collection::vec(action_strategy(), 1..5)
    ) {
        let mut domains = DomainSet::testbed_default();
        let excess = domains.excess(&actions);
        let betas = domains.update_coordination_slice(&actions);
        for (i, beta) in betas.iter().enumerate() {
            prop_assert!(*beta >= 0.0);
            if excess[i] <= 0.0 {
                prop_assert!(*beta == 0.0, "beta grew for a feasible resource");
            }
        }
    }

    /// The register-tiled `matmul_into` matches the naive reference on
    /// random shapes, including empty and 1×N edge cases (every ragged-edge
    /// code path of the kernel is hit across the shape range).
    #[test]
    fn tiled_matmul_matches_naive_reference(
        m in 0usize..9,
        k in 0usize..21,
        n in 0usize..40,
        pool in prop::collection::vec(-2.0f64..2.0, 9 * 21 + 21 * 40),
    ) {
        let a = matrix_from_pool(m, k, &pool);
        let b = matrix_from_pool(k, n, &pool[9 * 21..]);
        let reference = naive_matmul(&a, &b);
        let mut tiled = Matrix::default();
        a.matmul_into(&b, &mut tiled);
        prop_assert_eq!((tiled.rows(), tiled.cols()), (m, n));
        for i in 0..m {
            for j in 0..n {
                prop_assert!(
                    (tiled.get(i, j) - reference.get(i, j)).abs() < 1e-12,
                    "({i},{j}): tiled {} vs naive {}", tiled.get(i, j), reference.get(i, j)
                );
            }
        }
        // The tiled transposed-A gradient kernel against the same reference:
        // aᵀ·b with a reinterpreted as (k × m).
        if m > 0 && k > 0 && n > 0 {
            let d = matrix_from_pool(k, m, &pool);
            let mut grad = Matrix::zeros(m, n);
            d.matmul_tn_acc_into(&b, &mut grad);
            let reference = naive_matmul(&d.transpose(), &b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!(
                        (grad.get(i, j) - reference.get(i, j)).abs() < 1e-12,
                        "tn ({i},{j}): {} vs {}", grad.get(i, j), reference.get(i, j)
                    );
                }
            }
        }
    }

    /// Poisson arrival timestamps are sorted and strictly inside the slot,
    /// whatever the rate, duration and seed.
    #[test]
    fn poisson_arrivals_are_sorted_and_within_the_slot(
        rate in 0.0f64..=20.0,
        duration in 1.0f64..=300.0,
        seed in 0u64..64,
    ) {
        let p = PoissonArrivals::new(rate, duration);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let times = p.sample(&mut rng);
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted");
        prop_assert!(times.iter().all(|&t| (0.0..duration).contains(&t)),
            "timestamps must fall within [0, {duration})");
    }

    /// The empirical mean arrival count matches `rate · duration` (a 5-sigma
    /// band around the Poisson expectation, so the property is sharp without
    /// being flaky).
    #[test]
    fn poisson_counts_match_rate_times_duration_in_expectation(
        rate in 0.5f64..=10.0,
        duration in 5.0f64..=60.0,
        seed in 0u64..16,
    ) {
        let p = PoissonArrivals::new(rate, duration);
        prop_assert!((p.expected_count() - rate * duration).abs() < 1e-12);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trials = 150usize;
        let total: usize = (0..trials).map(|_| p.sample(&mut rng).len()).sum();
        let mean = total as f64 / trials as f64;
        let lambda = rate * duration;
        // The mean of `trials` Poisson(λ) draws has std sqrt(λ / trials).
        let tolerance = 5.0 * (lambda / trials as f64).sqrt() + 0.5;
        prop_assert!(
            (mean - lambda).abs() <= tolerance,
            "empirical mean {mean} should be within {tolerance} of λ = {lambda}"
        );
    }

    /// The batched MLP forward matches the per-sample forward elementwise to
    /// 1e-12 on random inputs (the batched path must be a pure reshaping of
    /// the computation, not an approximation).
    #[test]
    fn forward_batch_matches_per_sample_forward(
        pool in prop::collection::vec(-3.0f64..3.0, 6 * STATE_DIM),
        seed in 0u64..32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = Mlp::onslicing_default(STATE_DIM, ACTION_DIM, Activation::Sigmoid, &mut rng);
        let batch = matrix_from_pool(6, STATE_DIM, &pool);
        let mut ws = BatchWorkspace::new();
        let batched = net.forward_batch(&batch, &mut ws);
        for b in 0..6 {
            let per_sample = net.forward(batch.row(b));
            for (x, y) in batched.row(b).iter().zip(per_sample.iter()) {
                prop_assert!((x - y).abs() < 1e-12, "row {b}: batched {x} vs per-sample {y}");
            }
        }
    }
}
