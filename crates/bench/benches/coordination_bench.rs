//! Micro-benchmarks of the distributed coordination machinery: one Eq. 14
//! dual update across all domains, one action modification, and a full
//! coordination round for 3 and 27 slices.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use onslicing_core::{ActionModifier, ModifierConfig};
use onslicing_domains::DomainSet;
use onslicing_slices::Action;

fn bench_dual_update(c: &mut Criterion) {
    let mut domains = DomainSet::testbed_default();
    let requests = vec![Action::uniform(0.5); 3];
    c.bench_function("domain_set_dual_update_3_slices", |b| {
        b.iter(|| std::hint::black_box(domains.update_coordination_slice(&requests)))
    });
}

fn bench_modifier(c: &mut Criterion) {
    let modifier = ActionModifier::new(ModifierConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let action = Action::uniform(0.6);
    let betas = [0.2; 6];
    c.bench_function("action_modifier_single_action", |b| {
        b.iter(|| std::hint::black_box(modifier.modify(&action, &betas, &mut rng)))
    });
}

fn bench_coordination_round(c: &mut Criterion) {
    let modifier = ActionModifier::new(ModifierConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for num_slices in [3usize, 27] {
        let mut domains = DomainSet::testbed_default();
        let originals = vec![Action::uniform(0.6); num_slices];
        c.bench_function(&format!("coordination_round_{num_slices}_slices"), |b| {
            b.iter(|| {
                let betas = domains.update_coordination_slice(&originals);
                let modified: Vec<Action> = originals
                    .iter()
                    .map(|a| modifier.modify(a, &betas, &mut rng))
                    .collect();
                std::hint::black_box(domains.is_feasible_slice(&modified))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_dual_update,
    bench_modifier,
    bench_coordination_round
);
criterion_main!(benches);
