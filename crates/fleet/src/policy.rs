//! The balance policies: deterministic migration strategies
//! [`crate::rebalance`] plans with.
//!
//! A [`BalancePolicy`] picks at most one `(source, target)` cell pair per
//! planning step from a [`BalanceSignals`] snapshot — pre-computed,
//! deterministic per-cell signals (load scores, eligibility masks, traffic
//! forecasts, windowed cost rates). The policies share one selection
//! skeleton and differ only in the per-cell score they feed it. One is
//! selected through [`crate::BalancerConfig::policy`]; an unknown name is a
//! configuration error that lists the known set. The historical
//! selection rule is `greedy` and stays the default.
//!
//! ## Determinism contract
//!
//! Every signal in [`BalanceSignals`] is a pure function of simulated state
//! (enforced shares, closed-episode SLA counts, deterministic arrival
//! traces, deterministic slot costs). [`BalancePolicy::plan_move`] is a pure
//! function of the snapshot — no interior state, clocks, or randomness — so
//! a fleet's migration schedule is byte-identical across thread counts and
//! across checkpoint/resume.

use serde::{DeError, Deserialize, Serialize, Value};

/// The deterministic per-cell signals one planning step sees. Index `i`
/// throughout refers to cell `i` of the fleet.
#[derive(Debug, Clone)]
pub struct BalanceSignals {
    /// The classic load score per cell: worst-resource utilization plus the
    /// weighted per-window SLA-violation rate plus the virtual load of
    /// same-boundary pending admissions.
    pub loads: Vec<f64>,
    /// Whether each cell may give up a slice (it holds more than the
    /// configured minimum).
    pub can_source: Vec<bool>,
    /// Whether each cell passes its own admission check right now (pending
    /// same-boundary grants reserved).
    pub can_target: Vec<bool>,
    /// Mean normalized traffic each cell's slices will see over the next
    /// rebalancing window, from their deterministic arrival traces.
    pub forecast: Vec<f64>,
    /// Per-slice-slot cost each cell accrued since the previous window
    /// boundary (deterministic simulated cost, not wall clock).
    pub window_cost: Vec<f64>,
    /// The configured minimum score gap that justifies a migration
    /// (`f64::INFINITY` in forced-noop mode — policies must compare with a
    /// strict `<` so the infinite threshold cleanly suppresses every move).
    pub min_load_gap: f64,
}

impl BalanceSignals {
    /// Picks the `(source, target)` pair by a per-cell score: source is the
    /// highest-scored eligible cell, target the lowest-scored other cell
    /// that passes admission, ties breaking toward the lower index, and the
    /// pair only stands if the score gap clears `min_load_gap`. This is the
    /// shared selection skeleton; policies differ in the score they feed it.
    fn pick_by_score(&self, score: impl Fn(usize) -> f64) -> Option<(usize, usize)> {
        let cells = self.loads.len();
        let mut source: Option<usize> = None;
        for i in 0..cells {
            if !self.can_source[i] {
                continue;
            }
            if source.is_none_or(|s| score(i) > score(s)) {
                source = Some(i);
            }
        }
        let src = source?;
        let mut target: Option<usize> = None;
        for i in 0..cells {
            if i == src || !self.can_target[i] {
                continue;
            }
            if target.is_none_or(|t| score(i) < score(t)) {
                target = Some(i);
            }
        }
        let dst = target?;
        // `<` (not a negated `>=`) so an infinite threshold — the
        // forced-noop mode — compares cleanly and always suppresses.
        if score(src) - score(dst) < self.min_load_gap {
            return None;
        }
        Some((src, dst))
    }
}

/// Weight of the next-window traffic forecast in the predictive score. The
/// forecast is a normalized per-slice mean in roughly `[0, 2]`, the same
/// scale as the utilization term, so unit weight lets a clearly approaching
/// peak outvote a mildly loaded present.
const FORECAST_WEIGHT: f64 = 1.0;

/// Weight of the relative window-cost term in the cost-aware score. The
/// term is the cell's deviation from the fleet-mean window cost in mean
/// units (≈ ±1 for a 2× spread), so half weight keeps utilization primary
/// while letting a persistently expensive cell tip the selection.
const COST_WEIGHT: f64 = 0.5;

/// A deterministic migration strategy. Serialized as its name (`greedy`,
/// `predictive`, `cost-aware`), the key `config.toml` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// The original rule: move from the most loaded cell to the least
    /// loaded admissible one whenever the load gap clears the threshold.
    Greedy,
    /// Plans on where load is *about to be*: blends the deterministic
    /// traffic forecast for the next window into the load score, so a cell
    /// whose diurnal peak is approaching sheds slices before the peak
    /// arrives instead of after its SLA already burned.
    Predictive,
    /// Optimizes the fleet's `avg_slot_cost`, not just SLA%: cells whose
    /// recent per-slice-slot cost runs above the fleet mean score higher,
    /// so slices drain from expensive cells toward cheap ones even when raw
    /// utilization alone would not justify a move.
    CostAware,
}

impl BalancePolicy {
    /// Every balance policy, in catalogue order; `greedy` first.
    pub const ALL: [BalancePolicy; 3] = [
        BalancePolicy::Greedy,
        BalancePolicy::Predictive,
        BalancePolicy::CostAware,
    ];

    /// The name used in configuration files, traces and status replies.
    pub fn name(self) -> &'static str {
        match self {
            BalancePolicy::Greedy => "greedy",
            BalancePolicy::Predictive => "predictive",
            BalancePolicy::CostAware => "cost-aware",
        }
    }

    /// Plans one move over `signals`; `None` ends the round.
    pub fn plan_move(self, signals: &BalanceSignals) -> Option<(usize, usize)> {
        match self {
            BalancePolicy::Greedy => signals.pick_by_score(|i| signals.loads[i]),
            BalancePolicy::Predictive => {
                signals.pick_by_score(|i| signals.loads[i] + FORECAST_WEIGHT * signals.forecast[i])
            }
            BalancePolicy::CostAware => {
                let n = signals.window_cost.len();
                let mean = signals.window_cost.iter().sum::<f64>() / n.max(1) as f64;
                let relative_cost = |i: usize| {
                    if mean > 0.0 {
                        (signals.window_cost[i] - mean) / mean
                    } else {
                        0.0
                    }
                };
                signals.pick_by_score(|i| signals.loads[i] + COST_WEIGHT * relative_cost(i))
            }
        }
    }
}

impl std::fmt::Display for BalancePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BalancePolicy {
    type Err = String;

    /// Parses a policy name; an unknown one is an error naming the known set
    /// (the startup-error contract for config files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown balance policy `{s}` (registered: {})",
                    names.join(", ")
                )
            })
    }
}

impl Serialize for BalancePolicy {
    fn serialize_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for BalancePolicy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::msg("expected a string for a balance policy name"))?;
        s.parse().map_err(DeError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals() -> BalanceSignals {
        BalanceSignals {
            loads: vec![0.9, 0.2, 0.5],
            can_source: vec![true, true, true],
            can_target: vec![true, true, true],
            forecast: vec![0.1, 0.1, 0.1],
            window_cost: vec![1.0, 1.0, 1.0],
            min_load_gap: 0.25,
        }
    }

    #[test]
    fn registry_resolves_every_name_and_rejects_unknown_ones() {
        // One row per policy, in catalogue order.
        let table = [
            (BalancePolicy::Greedy, "greedy"),
            (BalancePolicy::Predictive, "predictive"),
            (BalancePolicy::CostAware, "cost-aware"),
        ];
        assert_eq!(BalancePolicy::ALL, table.map(|(p, _)| p));
        for (policy, name) in table {
            assert_eq!(policy.name(), name);
            assert_eq!(policy.to_string(), name);
            assert_eq!(name.parse::<BalancePolicy>().unwrap(), policy);
        }
        assert_eq!(
            "round-robin".parse::<BalancePolicy>().unwrap_err(),
            "unknown balance policy `round-robin` (registered: greedy, predictive, cost-aware)"
        );
    }

    #[test]
    fn greedy_picks_extremes_and_respects_the_gap() {
        let s = signals();
        assert_eq!(BalancePolicy::Greedy.plan_move(&s), Some((0, 1)));
        let mut close = signals();
        close.loads = vec![0.5, 0.4, 0.45];
        assert_eq!(BalancePolicy::Greedy.plan_move(&close), None);
        let mut noop = signals();
        noop.min_load_gap = f64::INFINITY;
        assert_eq!(BalancePolicy::Greedy.plan_move(&noop), None);
    }

    #[test]
    fn eligibility_masks_constrain_both_ends() {
        let mut s = signals();
        s.can_source = vec![false, true, true];
        // Cell 0 is the most loaded but cannot source; cell 2 is next.
        assert_eq!(BalancePolicy::Greedy.plan_move(&s), Some((2, 1)));
        s.can_target = vec![false, false, false];
        assert_eq!(BalancePolicy::Greedy.plan_move(&s), None);
    }

    #[test]
    fn predictive_moves_ahead_of_a_forecast_peak() {
        let mut s = signals();
        // Present loads are level; cell 2's peak is approaching.
        s.loads = vec![0.5, 0.5, 0.5];
        s.forecast = vec![0.2, 0.2, 1.4];
        assert_eq!(BalancePolicy::Greedy.plan_move(&s), None);
        assert_eq!(BalancePolicy::Predictive.plan_move(&s), Some((2, 0)));
    }

    #[test]
    fn cost_aware_drains_the_expensive_cell() {
        let mut s = signals();
        s.loads = vec![0.5, 0.5, 0.5];
        s.window_cost = vec![4.0, 1.0, 1.0];
        assert_eq!(BalancePolicy::Greedy.plan_move(&s), None);
        assert_eq!(BalancePolicy::CostAware.plan_move(&s), Some((0, 1)));
    }

    #[test]
    fn policy_names_round_trip_through_serde() {
        for policy in BalancePolicy::ALL {
            let v = policy.serialize_value();
            assert_eq!(v, Value::Str(policy.name().to_string()));
            assert_eq!(BalancePolicy::from_value(&v).unwrap(), policy);
        }
        let bogus = Value::Str("bogus".to_string());
        assert!(BalancePolicy::from_value(&bogus)
            .unwrap_err()
            .0
            .contains("unknown balance policy"));
    }
}
