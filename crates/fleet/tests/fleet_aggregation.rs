//! Property tests for the fleet aggregation math.
//!
//! The fleet report is a *derived* artifact: every aggregate must equal the
//! value recomputed from the concatenated per-cell samples. The cells here
//! are synthetic (random reports/traces/latencies), so the properties pin
//! the aggregation math itself — independently of how expensive a real
//! cell run is — including an independent reimplementation of the
//! nearest-rank percentile.

use onslicing_fleet::{aggregate_fleet, CellOutcome};
use onslicing_replay::{EpisodeTelemetry, SliceSlotTelemetry, SlotTelemetry, TelemetryTrace};
use onslicing_scenario::{derive_cell_seed, ScenarioConfig, ScenarioReport, SliceReport};
use onslicing_slices::SliceKind;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Independent nearest-rank percentile (sort, ceil-rank, clamp) — must
/// agree with the production implementation the aggregator uses.
fn reference_percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Builds one synthetic cell outcome with internally consistent counters.
fn synthetic_cell(cell: u32, rng: &mut ChaCha8Rng) -> CellOutcome {
    let kinds = [SliceKind::Mar, SliceKind::Hvs, SliceKind::Rdc];
    let num_slices = rng.gen_range(1..5usize);
    let total_slots = rng.gen_range(1..20usize);
    let mut slots = Vec::new();
    for slot in 0..total_slots {
        let slices = (0..num_slices)
            .map(|i| SliceSlotTelemetry {
                id: i as u32,
                kind: kinds[i % 3],
                cost: rng.gen_range(0.0..0.4),
                reward: rng.gen_range(-1.0..1.0),
                usage_percent: rng.gen_range(0.0..100.0),
                performance_score: rng.gen_range(0.0..2.0),
                lambda: rng.gen_range(0.0..3.0),
                used_baseline: rng.gen_range(0..2) == 0,
            })
            .collect();
        slots.push(SlotTelemetry { slot, slices });
    }
    let mut slice_reports = Vec::new();
    let mut episodes_list = Vec::new();
    for i in 0..num_slices {
        let episodes = rng.gen_range(0..4usize);
        let violations = if episodes == 0 {
            0
        } else {
            rng.gen_range(0..episodes + 1)
        };
        for e in 0..episodes {
            episodes_list.push(EpisodeTelemetry {
                slot: e * 4,
                slice: i as u32,
                kind: kinds[i % 3],
                avg_cost: rng.gen_range(0.0..0.3),
                avg_usage_percent: rng.gen_range(0.0..100.0),
                violated: e < violations,
                switched_to_baseline: false,
            });
        }
        slice_reports.push(SliceReport {
            id: i as u32,
            kind: kinds[i % 3],
            admitted_at_slot: 0,
            torn_down_at_slot: None,
            episodes,
            violations,
            policy_updates: episodes,
            switched_episodes: 0,
            avg_cost: rng.gen_range(0.0..0.3),
            avg_usage_percent: rng.gen_range(0.0..100.0),
        });
    }
    let slice_episodes: usize = slice_reports.iter().map(|s| s.episodes).sum();
    let violations: usize = slice_reports.iter().map(|s| s.violations).sum();
    let slice_slots = num_slices * total_slots;
    // The engine's cheap fold: mean of the per-slice-slot costs.
    let slot_cost_sum: f64 = slots
        .iter()
        .flat_map(|s| s.slices.iter())
        .map(|s| s.cost)
        .sum();
    let report = ScenarioReport {
        scenario: "synthetic".to_string(),
        seed: u64::from(cell),
        total_slots,
        slice_slots,
        peak_concurrent_slices: num_slices,
        events_applied: 0,
        admissions_denied: 0,
        events_skipped: 0,
        slice_episodes,
        sla_violation_percent: if slice_episodes > 0 {
            100.0 * violations as f64 / slice_episodes as f64
        } else {
            0.0
        },
        avg_cost: rng.gen_range(0.0..0.3),
        avg_slot_cost: slot_cost_sum / slice_slots as f64,
        avg_slot_usage_percent: rng.gen_range(0.0..100.0),
        avg_coordination_rounds: rng.gen_range(1.0..4.0),
        slices: slice_reports,
    };
    let trace = TelemetryTrace {
        format_version: onslicing_replay::TRACE_FORMAT_VERSION,
        scenario: "synthetic".to_string(),
        seed: u64::from(cell),
        start_slot: 0,
        total_slots,
        slots,
        episodes: episodes_list,
        migrations: Vec::new(),
        summaries: Vec::new(),
    };
    let slot_latencies_ms = (0..total_slots)
        .map(|_| rng.gen_range(0.01..50.0))
        .collect();
    CellOutcome {
        cell,
        seed: u64::from(cell),
        report,
        trace,
        slot_latencies_ms,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fleet_aggregates_equal_recomputation_from_concatenated_samples(
        master in 0u64..1_000_000,
        num_cells in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(master);
        let cells: Vec<CellOutcome> = (0..num_cells)
            .map(|i| synthetic_cell(i as u32, &mut rng))
            .collect();
        let wall = rng.gen_range(1.0..1_000.0);
        let report = aggregate_fleet("synthetic", master, &cells, wall);

        // Counter sums are exact.
        let episodes: usize = cells.iter().map(|c| c.report.slice_episodes).sum();
        let violations: usize = cells
            .iter()
            .flat_map(|c| c.report.slices.iter())
            .map(|s| s.violations)
            .sum();
        let slots: usize = cells.iter().map(|c| c.report.slice_slots).sum();
        prop_assert_eq!(report.slice_episodes, episodes);
        prop_assert_eq!(report.violations, violations);
        prop_assert_eq!(report.slice_slots, slots);
        prop_assert_eq!(report.cells, num_cells);

        // Fleet SLA-violation % equals the ratio over the concatenated
        // episode population (not the mean of per-cell percentages).
        let expected_violation = if episodes > 0 {
            100.0 * violations as f64 / episodes as f64
        } else {
            0.0
        };
        prop_assert!((report.sla_violation_percent - expected_violation).abs() < 1e-9);

        // Episode-weighted mean cost.
        let expected_cost = if episodes > 0 {
            cells
                .iter()
                .map(|c| c.report.avg_cost * c.report.slice_episodes as f64)
                .sum::<f64>()
                / episodes as f64
        } else {
            0.0
        };
        prop_assert!((report.avg_cost - expected_cost).abs() < 1e-9);

        // Percentiles equal the nearest-rank percentile of the
        // concatenated per-cell samples.
        let all_costs: Vec<f64> = cells
            .iter()
            .flat_map(|c| c.trace.slots.iter())
            .flat_map(|s| s.slices.iter())
            .map(|s| s.cost)
            .collect();
        // The slot-slot-weighted fold of the cells' avg_slot_cost equals
        // the mean of the concatenated samples.
        let mean_slot_cost = all_costs.iter().sum::<f64>() / all_costs.len() as f64;
        prop_assert!((report.avg_slot_cost - mean_slot_cost).abs() < 1e-9);
        for (got, q) in [
            (report.cost_p50, 50.0),
            (report.cost_p90, 90.0),
            (report.cost_p99, 99.0),
        ] {
            prop_assert!((got - reference_percentile(&all_costs, q)).abs() < 1e-12);
        }

        // Throughput: the machine rate divides by the fleet wall clock.
        prop_assert!(
            (report.slice_slots_per_second - slots as f64 / (wall / 1_000.0)).abs() < 1e-6
        );

        // The per-cell breakdown preserves cell order and per-cell counts.
        prop_assert_eq!(report.cells_detail.len(), num_cells);
        for (i, detail) in report.cells_detail.iter().enumerate() {
            prop_assert_eq!(detail.cell, i as u32);
            prop_assert_eq!(detail.slice_slots, cells[i].report.slice_slots);
            prop_assert_eq!(detail.episodes, cells[i].report.slice_episodes);
        }
    }

    #[test]
    fn cell_seeds_are_pairwise_distinct_and_stable(
        master in 0u64..u64::MAX / 2,
        num_cells in 2usize..64,
    ) {
        // The seed every fleet cell is built with (`ElasticFleet::new` calls
        // exactly this per cell).
        let config = ScenarioConfig { seed: master, ..ScenarioConfig::default() };
        let cell_seeds =
            || (0..num_cells as u32).map(|i| config.for_cell(i).seed).collect::<Vec<u64>>();
        let seeds = cell_seeds();
        for (i, a) in seeds.iter().enumerate() {
            prop_assert_eq!(*a, derive_cell_seed(master, i as u32));
            for b in &seeds[i + 1..] {
                prop_assert!(a != b, "cells {i} shares a seed within master {master}");
            }
        }
        // Stable: a second derivation yields the identical seed vector.
        prop_assert_eq!(seeds, cell_seeds());
    }
}
