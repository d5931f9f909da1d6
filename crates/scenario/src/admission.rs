//! The admission check: decides whether the infrastructure can host one
//! more slice before an agent and environment are instantiated.
//!
//! The check is against *residual per-domain capacity*: for every shared
//! resource, the effective (possibly fault-degraded) capacity minus the
//! allocations the domain managers currently enforce must leave room for the
//! newcomer's claim plus a configurable headroom.
//!
//! **Policies.** The decision rule is an [`AdmissionPolicy`] value selected
//! through [`AdmissionConfig::policy`]; the rules differ only in what the
//! newcomer claims. The historical residual-capacity rule is `greedy` and
//! stays the default; an unknown name is a configuration error that lists
//! the known set. [`AdmissionConfig::evaluate_with_reserved`] is a pure
//! function of `(config, domains, reserved)`, so admission decisions — and
//! therefore traces — stay byte-identical across thread counts and
//! checkpoint/resume.

use serde::{DeError, Deserialize, Serialize, Value};

use onslicing_domains::DomainSet;
use onslicing_slices::ResourceKind;

/// A deterministic admission rule. Serialized as its name (`greedy`,
/// `cautious`), the key `config.json` and scenario files use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The original rule: the newcomer claims its estimated share.
    Greedy,
    /// The newcomer claims twice its estimated share, so one extra share
    /// stays free on every resource: the fleet can always absorb the *next*
    /// admission (or a migrated-in slice) without rejecting it at the brim.
    /// Trades peak packing density for slack under churn.
    Cautious,
}

impl AdmissionPolicy {
    /// Every admission policy, in catalogue order; `greedy` first.
    pub const ALL: [AdmissionPolicy; 2] = [AdmissionPolicy::Greedy, AdmissionPolicy::Cautious];

    /// The name used in configuration files and traces.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Greedy => "greedy",
            AdmissionPolicy::Cautious => "cautious",
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AdmissionPolicy {
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
                    "unknown admission policy `{s}` (registered: {})",
                    names.join(", ")
                )
            })
    }
}

impl Serialize for AdmissionPolicy {
    fn serialize_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for AdmissionPolicy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::msg("expected a string for an admission policy name"))?;
        s.parse().map_err(DeError)
    }
}

/// Tuning of the admission check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Estimated steady-state share of each resource a new slice needs.
    pub estimated_share: f64,
    /// Fraction of each resource's effective capacity kept free on top of
    /// the estimate (0.0 = admit up to the brim).
    pub headroom: f64,
    /// The decision rule to apply (default `greedy`).
    pub policy: AdmissionPolicy,
}

impl AdmissionConfig {
    /// Validates the tuning, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.estimated_share > 0.0 && self.estimated_share.is_finite()) {
            return Err(format!(
                "estimated share must be positive and finite, got {}",
                self.estimated_share
            ));
        }
        if !(0.0..1.0).contains(&self.headroom) {
            return Err(format!("headroom must be in [0, 1), got {}", self.headroom));
        }
        Ok(())
    }

    /// Checks whether one more slice fits on top of `reserved` capacity
    /// already pledged but not yet visible in the enforced allocations —
    /// typically `k × estimated_share` for `k` slices granted earlier in
    /// the same slot, whose agents only enforce from the next orchestration
    /// round on. Every resource's residual must cover the newcomer's claim
    /// (see [`AdmissionPolicy`]) plus headroom plus the reservation.
    pub fn evaluate_with_reserved(
        &self,
        domains: &DomainSet,
        reserved: f64,
    ) -> Result<(), AdmissionDenied> {
        let claim = match self.policy {
            AdmissionPolicy::Greedy => self.estimated_share,
            AdmissionPolicy::Cautious => 2.0 * self.estimated_share,
        };
        for resource in ResourceKind::ALL {
            let residual = domains.residual_capacity(resource);
            let required = claim + self.headroom * domains.capacity_of(resource) + reserved;
            if residual < required {
                return Err(AdmissionDenied {
                    resource,
                    residual,
                    required,
                });
            }
        }
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            estimated_share: 0.15,
            headroom: 0.0,
            policy: AdmissionPolicy::Greedy,
        }
    }
}

/// Why an admission request was denied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionDenied {
    /// The first resource that could not host the newcomer.
    pub resource: ResourceKind,
    /// Residual capacity of that resource at decision time.
    pub residual: f64,
    /// What the newcomer would have needed (claim + headroom + reserved).
    pub required: f64,
}

impl std::fmt::Display for AdmissionDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission denied: {} residual {:.3} < required {:.3}",
            self.resource.name(),
            self.residual,
            self.required
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_domains::{DomainKind, SliceId};
    use onslicing_slices::Action;

    fn config(estimated_share: f64, headroom: f64) -> AdmissionConfig {
        AdmissionConfig {
            estimated_share,
            headroom,
            ..Default::default()
        }
    }

    #[test]
    fn admits_while_residual_capacity_lasts() {
        let config = config(0.3, 0.0);
        let mut domains = DomainSet::testbed_default();
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
        for i in 0..3 {
            domains.create_slice(SliceId(i)).unwrap();
            domains.enforce(SliceId(i), Action::uniform(0.25)).unwrap();
        }
        // 0.75 enforced, 0.25 residual < 0.3 required.
        let denied = config.evaluate_with_reserved(&domains, 0.0).unwrap_err();
        assert!(denied.residual < denied.required);
        // Tearing a slice down frees its share again.
        domains.delete_slice(SliceId(0)).unwrap();
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
    }

    #[test]
    fn zero_residual_capacity_denies_even_the_smallest_newcomer() {
        // One slice enforces the entire infrastructure: residual is exactly
        // zero, so any positive estimated share must be denied — the check
        // must not admit "for free" on the ==0 boundary.
        let config = config(1e-9, 0.0);
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(0)).unwrap();
        domains.enforce(SliceId(0), Action::uniform(1.0)).unwrap();
        let denied = config.evaluate_with_reserved(&domains, 0.0).unwrap_err();
        assert!(denied.residual <= 0.0 + 1e-12);
        assert!(denied.required > 0.0);
        // Releasing the hog restores admissibility.
        domains.delete_slice(SliceId(0)).unwrap();
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
    }

    #[test]
    fn torn_down_slice_ids_can_be_recreated_at_the_domain_layer() {
        // The orchestrator never reuses ids, but the domain managers must
        // not be the reason why: delete followed by create of the same
        // SliceId is a clean slate, with no stale allocation attached.
        let config = AdmissionConfig::default();
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(3)).unwrap();
        domains.enforce(SliceId(3), Action::uniform(0.9)).unwrap();
        domains.delete_slice(SliceId(3)).unwrap();
        domains.create_slice(SliceId(3)).unwrap();
        // The re-created slice starts with nothing enforced, so the check
        // sees the full capacity again.
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
        // Double-create of a live id stays an error.
        assert!(domains.create_slice(SliceId(3)).is_err());
    }

    #[test]
    fn faults_shrink_the_admittable_capacity() {
        let config = config(0.4, 0.0);
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(0)).unwrap();
        domains.enforce(SliceId(0), Action::uniform(0.3)).unwrap();
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
        domains.set_domain_capacity_scale(DomainKind::Transport, 0.5);
        let denied = config.evaluate_with_reserved(&domains, 0.0).unwrap_err();
        assert_eq!(denied.resource, ResourceKind::TransportBandwidth);
    }

    #[test]
    fn headroom_reserves_extra_capacity() {
        let domains = DomainSet::testbed_default();
        assert!(config(0.5, 0.0)
            .evaluate_with_reserved(&domains, 0.0)
            .is_ok());
        assert!(config(0.5, 0.6)
            .evaluate_with_reserved(&domains, 0.0)
            .is_err());
    }

    #[test]
    fn invalid_headroom_is_rejected() {
        // The interval is half-open: a headroom of 1.0 would keep the whole
        // capacity free and deny everything.
        assert_eq!(
            config(0.1, 1.0).validate().unwrap_err(),
            "headroom must be in [0, 1), got 1"
        );
        assert!(config(0.1, 0.0).validate().is_ok());
    }

    #[test]
    fn same_slot_reservations_tighten_the_check() {
        // Residual 1.0, estimated share 0.4: two newcomers fit, a third —
        // with the first two's shares reserved — must not. Without the
        // reservation every one of them would see the full residual.
        let config = config(0.4, 0.0);
        let domains = DomainSet::testbed_default();
        assert!(config.evaluate_with_reserved(&domains, 0.0).is_ok());
        assert!(config.evaluate_with_reserved(&domains, 0.4).is_ok());
        let denied = config.evaluate_with_reserved(&domains, 0.8).unwrap_err();
        assert!((denied.required - 1.2).abs() < 1e-12);
    }

    #[test]
    fn unknown_admission_policy_is_a_startup_error_naming_the_registered_set() {
        let err = "permissive".parse::<AdmissionPolicy>().unwrap_err();
        assert_eq!(
            err,
            "unknown admission policy `permissive` (registered: greedy, cautious)"
        );
        let bogus = Value::Str("permissive".to_string());
        assert_eq!(AdmissionPolicy::from_value(&bogus).unwrap_err().0, err);
    }

    #[test]
    fn every_registered_admission_policy_resolves_by_name() {
        // One row per policy, in catalogue order: the name parses back to
        // the value and the serde form is the bare name.
        let table = [
            (AdmissionPolicy::Greedy, "greedy"),
            (AdmissionPolicy::Cautious, "cautious"),
        ];
        assert_eq!(AdmissionPolicy::ALL, table.map(|(p, _)| p));
        for (policy, name) in table {
            assert_eq!(policy.name(), name);
            assert_eq!(policy.to_string(), name);
            assert_eq!(name.parse::<AdmissionPolicy>().unwrap(), policy);
            let v = policy.serialize_value();
            assert_eq!(v, Value::Str(name.to_string()));
            assert_eq!(AdmissionPolicy::from_value(&v).unwrap(), policy);
        }
    }

    #[test]
    fn cautious_policy_denies_where_greedy_admits() {
        // Residual 1.0. Greedy needs 0.4; cautious doubles the estimate to
        // 0.8 + the same headroom — a newcomer that greedy admits with a
        // 0.3 reservation outstanding is denied by cautious.
        let greedy = config(0.4, 0.0);
        let cautious = AdmissionConfig {
            policy: AdmissionPolicy::Cautious,
            ..greedy
        };
        let domains = DomainSet::testbed_default();
        assert!(greedy.evaluate_with_reserved(&domains, 0.3).is_ok());
        let denied = cautious.evaluate_with_reserved(&domains, 0.3).unwrap_err();
        assert!((denied.required - 1.1).abs() < 1e-12);
        // With nothing reserved the testbed still has room for 2x 0.4.
        assert!(cautious.evaluate_with_reserved(&domains, 0.0).is_ok());
    }

    #[test]
    fn admission_config_keys_are_pinned_in_order() {
        // Part of every checkpoint's layout: a reordered or renamed field
        // is a format change.
        let Value::Obj(pairs) = AdmissionConfig::default().serialize_value() else {
            panic!("an admission config serializes to an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["estimated_share", "headroom", "policy"]);
    }

    #[test]
    fn admission_config_policy_field_round_trips_and_is_required() {
        // A `policy`-less config was only ever written by checkpoint
        // versions the version gate refuses: a missing field, not a silent
        // greedy.
        let mut legacy = AdmissionConfig::default().serialize_value();
        if let Value::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "policy");
        }
        let err = AdmissionConfig::from_value(&legacy).unwrap_err();
        assert!(err.0.contains("missing field `policy`"), "{}", err.0);
        // An explicit cautious selection round-trips...
        let cautious = AdmissionConfig {
            policy: AdmissionPolicy::Cautious,
            ..Default::default()
        };
        let back = AdmissionConfig::from_value(&cautious.serialize_value()).unwrap();
        assert_eq!(back.policy, AdmissionPolicy::Cautious);
        // ...and a misspelled one fails to parse.
        let mut bad = AdmissionConfig::default().serialize_value();
        if let Value::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "policy" {
                    *v = Value::Str("permissive".to_string());
                }
            }
        }
        let err = AdmissionConfig::from_value(&bad).unwrap_err();
        assert!(err.0.contains("unknown admission policy"), "{}", err.0);
    }

    #[test]
    fn try_new_reports_invalid_tuning_instead_of_panicking() {
        // `validate` is what the engine's constructors and both checkpoint
        // loaders run: invalid tuning is an error value.
        assert!(config(0.0, 0.0)
            .validate()
            .unwrap_err()
            .contains("estimated share"));
        assert!(config(0.1, 1.5)
            .validate()
            .unwrap_err()
            .contains("headroom"));
        assert!(AdmissionConfig::default().validate().is_ok());
    }
}
