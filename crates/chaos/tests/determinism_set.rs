//! The generated set CI's cross-process determinism gate runs
//! (`chaos_fuzz --cases 12 --seed 7 --trace-out`, at the default pool
//! width, at `RAYON_NUM_THREADS=1` and at `=3`, then `cmp`) is the only
//! cross-process pool-width comparison of *generated* multi-cell fleets;
//! the Scenario trace gate compares the three fleet built-ins at the same
//! three widths. This test
//! keeps that coverage from drifting away with the generator: the set must
//! hold a multi-cell fleet, and one of them must migrate in its reference
//! run.

use onslicing_chaos::{chaos_case, ChaosCase};
use onslicing_fleet::ElasticFleet;
use proptest::generate_case;
use rand::{SeedableRng, Xoshiro256PlusPlus};

#[test]
fn the_ci_determinism_set_holds_a_multi_cell_fleet_that_migrates() {
    let strategy = chaos_case();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
    let cases: Vec<ChaosCase> = (0..12)
        .map(|_| generate_case(&strategy, &mut rng))
        .collect();
    let multi_cell: Vec<_> = (0..cases.len()).filter(|&i| cases[i].cells > 1).collect();
    assert!(!multi_cell.is_empty(), "no multi-cell case in the set");
    let migrates = |i: &usize| {
        let case = &cases[*i];
        let outcome = ElasticFleet::run(case.scenario.clone(), case.fleet_config());
        !outcome.unwrap().report.migrations.is_empty()
    };
    assert!(
        multi_cell.iter().any(migrates),
        "no reference run migrates among multi-cell cases {multi_cell:?}"
    );
}
