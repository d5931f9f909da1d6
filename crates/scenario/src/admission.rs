//! The admission controller: decides whether the infrastructure can host
//! one more slice before an agent and environment are instantiated.
//!
//! The check is against *residual per-domain capacity*: for every shared
//! resource, the effective (possibly fault-degraded) capacity minus the
//! allocations the domain managers currently enforce must leave room for the
//! newcomer's estimated steady-state share plus a configurable headroom.
//!
//! **Policy registry.** The decision rule itself is pluggable: an
//! [`AdmissionPolicy`] is a named, deterministic strategy registered in
//! [`ADMISSION_POLICIES`] and selected by name through
//! [`AdmissionConfig::policy`]. The historical residual-capacity rule is the
//! `greedy` policy and stays the default; unknown names are configuration
//! errors that list the known set. Every policy must be a pure function of
//! `(config, domains, reserved)` so admission decisions — and therefore
//! traces — stay byte-identical across thread counts and checkpoint/resume.

use serde::{DeError, Deserialize, Serialize, Value};

use onslicing_domains::DomainSet;
use onslicing_slices::ResourceKind;

/// A named admission strategy: given the tuning, the live domain state and
/// the capacity already pledged this slot, decide whether one more slice
/// fits. Implementations must be pure functions of their arguments —
/// no interior state, clocks or randomness — so the decision is part of the
/// deterministic trace contract.
pub trait AdmissionPolicy: Sync {
    /// The registry name (`config.toml` / scenario key).
    fn name(&self) -> &'static str;
    /// One-line, human-readable summary for catalogues and status verbs.
    fn description(&self) -> &'static str;
    /// The decision itself; see [`AdmissionController::evaluate_with_reserved`].
    fn evaluate(
        &self,
        config: &AdmissionConfig,
        domains: &DomainSet,
        reserved: f64,
    ) -> Result<(), AdmissionDenied>;
}

/// The historical residual-capacity rule: admit whenever every resource's
/// residual covers the newcomer's estimated share plus headroom plus the
/// same-slot reservations. This is the repo's original hard-coded check,
/// unchanged, so selecting `greedy` through the registry is byte-identical
/// to the pre-registry behaviour.
struct GreedyAdmission;

impl AdmissionPolicy for GreedyAdmission {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn description(&self) -> &'static str {
        "admit while residual capacity covers share + headroom (original rule)"
    }

    fn evaluate(
        &self,
        config: &AdmissionConfig,
        domains: &DomainSet,
        reserved: f64,
    ) -> Result<(), AdmissionDenied> {
        for resource in ResourceKind::ALL {
            let residual = domains.residual_capacity(resource);
            let required =
                config.estimated_share + config.headroom * domains.capacity_of(resource) + reserved;
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

/// Like `greedy`, but keeps one extra newcomer's estimated share free on
/// every resource: the fleet can always absorb the *next* admission (or a
/// migrated-in slice) without rejecting it at the brim. Trades peak packing
/// density for slack under churn.
struct CautiousAdmission;

impl AdmissionPolicy for CautiousAdmission {
    fn name(&self) -> &'static str {
        "cautious"
    }

    fn description(&self) -> &'static str {
        "greedy plus one extra estimated share of slack kept free per resource"
    }

    fn evaluate(
        &self,
        config: &AdmissionConfig,
        domains: &DomainSet,
        reserved: f64,
    ) -> Result<(), AdmissionDenied> {
        for resource in ResourceKind::ALL {
            let residual = domains.residual_capacity(resource);
            let required = 2.0 * config.estimated_share
                + config.headroom * domains.capacity_of(resource)
                + reserved;
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

/// Every registered admission policy, in catalogue order. `greedy` first —
/// it is the default and the backwards-compatibility anchor.
pub static ADMISSION_POLICIES: [&'static dyn AdmissionPolicy; 2] =
    [&GreedyAdmission, &CautiousAdmission];

/// The registered admission-policy names, in catalogue order.
pub fn admission_policy_names() -> Vec<&'static str> {
    ADMISSION_POLICIES.iter().map(|p| p.name()).collect()
}

/// Looks up a registered admission policy; unknown names are errors that
/// name the known set (the startup-error contract for config files).
pub fn admission_policy_by_name(name: &str) -> Result<&'static dyn AdmissionPolicy, String> {
    ADMISSION_POLICIES
        .iter()
        .copied()
        .find(|p| p.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown admission policy `{name}` (registered: {})",
                admission_policy_names().join(", ")
            )
        })
}

/// An interned, copyable handle to a registered admission policy. Only
/// constructible through the registry, so a held name is always resolvable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicyName(&'static str);

impl AdmissionPolicyName {
    /// The default policy — the historical residual-capacity rule.
    pub const GREEDY: Self = Self("greedy");
    /// The slack-keeping variant.
    pub const CAUTIOUS: Self = Self("cautious");

    /// Interns a user-supplied name through the registry.
    pub fn parse(name: &str) -> Result<Self, String> {
        admission_policy_by_name(name).map(|p| Self(p.name()))
    }

    /// The registry name.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// The policy this name resolves to.
    pub fn policy(&self) -> &'static dyn AdmissionPolicy {
        admission_policy_by_name(self.0).expect("interned admission policy name is registered")
    }
}

impl Default for AdmissionPolicyName {
    fn default() -> Self {
        Self::GREEDY
    }
}

impl std::fmt::Display for AdmissionPolicyName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

// Serialized as the bare registry name; deserialization re-interns through
// the registry so unknown names fail with the known set listed.
impl Serialize for AdmissionPolicyName {
    fn serialize_value(&self) -> Value {
        Value::Str(self.0.to_string())
    }
}

impl Deserialize for AdmissionPolicyName {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::msg("expected a string for an admission policy name"))?;
        Self::parse(s).map_err(DeError)
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
    /// The registered decision rule to apply (default `greedy`).
    pub policy: AdmissionPolicyName,
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
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            estimated_share: 0.15,
            headroom: 0.0,
            policy: AdmissionPolicyName::GREEDY,
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
    /// What the newcomer would have needed (estimate + headroom).
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

/// The admission controller itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// Creates a controller, rejecting invalid tuning — the fallible
    /// constructor `Result`-returning callers (the scenario engine) use.
    pub fn try_new(config: AdmissionConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Creates a controller.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`AdmissionConfig::validate`]); use [`AdmissionController::try_new`]
    /// to handle user-supplied tuning gracefully.
    pub fn new(config: AdmissionConfig) -> Self {
        match Self::try_new(config) {
            Ok(controller) => controller,
            Err(e) => panic!("invalid admission config: {e}"),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Checks whether one more slice fits the current infrastructure.
    ///
    /// Equivalent to [`AdmissionController::evaluate_with_reserved`] with a
    /// zero reservation — correct only when nothing else was admitted since
    /// the domain managers last enforced allocations. Callers granting
    /// several admissions in one slot must carry the earlier grants'
    /// estimated shares as a reservation, or the same residual capacity is
    /// pledged multiple times.
    pub fn evaluate(&self, domains: &DomainSet) -> Result<(), AdmissionDenied> {
        self.evaluate_with_reserved(domains, 0.0)
    }

    /// Checks whether one more slice fits on top of `reserved` capacity
    /// already pledged but not yet visible in the enforced allocations —
    /// typically `k × estimated_share` for `k` slices granted earlier in
    /// the same slot, whose agents only enforce from the next orchestration
    /// round on.
    pub fn evaluate_with_reserved(
        &self,
        domains: &DomainSet,
        reserved: f64,
    ) -> Result<(), AdmissionDenied> {
        self.config
            .policy
            .policy()
            .evaluate(&self.config, domains, reserved)
    }

    /// The capacity one admitted-but-not-yet-enforced slice is assumed to
    /// pledge — what same-slot callers reserve per earlier grant.
    pub fn reserved_share_per_admission(&self) -> f64 {
        self.config.estimated_share
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onslicing_domains::{DomainKind, SliceId};
    use onslicing_slices::Action;

    #[test]
    fn admits_while_residual_capacity_lasts() {
        let controller = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.3,
            headroom: 0.0,
            ..Default::default()
        });
        let mut domains = DomainSet::testbed_default();
        assert!(controller.evaluate(&domains).is_ok());
        for i in 0..3 {
            domains.create_slice(SliceId(i)).unwrap();
            domains.enforce(SliceId(i), Action::uniform(0.25)).unwrap();
        }
        // 0.75 enforced, 0.25 residual < 0.3 required.
        let denied = controller.evaluate(&domains).unwrap_err();
        assert!(denied.residual < denied.required);
        // Tearing a slice down frees its share again.
        domains.delete_slice(SliceId(0)).unwrap();
        assert!(controller.evaluate(&domains).is_ok());
    }

    #[test]
    fn zero_residual_capacity_denies_even_the_smallest_newcomer() {
        // One slice enforces the entire infrastructure: residual is exactly
        // zero, so any positive estimated share must be denied — the
        // controller must not admit "for free" on the ==0 boundary.
        let controller = AdmissionController::new(AdmissionConfig {
            estimated_share: 1e-9,
            headroom: 0.0,
            ..Default::default()
        });
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(0)).unwrap();
        domains.enforce(SliceId(0), Action::uniform(1.0)).unwrap();
        let denied = controller.evaluate(&domains).unwrap_err();
        assert!(denied.residual <= 0.0 + 1e-12);
        assert!(denied.required > 0.0);
        // Releasing the hog restores admissibility.
        domains.delete_slice(SliceId(0)).unwrap();
        assert!(controller.evaluate(&domains).is_ok());
    }

    #[test]
    fn torn_down_slice_ids_can_be_recreated_at_the_domain_layer() {
        // The orchestrator never reuses ids, but the domain managers must
        // not be the reason why: delete followed by create of the same
        // SliceId is a clean slate, with no stale allocation attached.
        let controller = AdmissionController::new(AdmissionConfig::default());
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(3)).unwrap();
        domains.enforce(SliceId(3), Action::uniform(0.9)).unwrap();
        domains.delete_slice(SliceId(3)).unwrap();
        domains.create_slice(SliceId(3)).unwrap();
        // The re-created slice starts with nothing enforced, so the
        // controller sees the full capacity again.
        assert!(controller.evaluate(&domains).is_ok());
        // Double-create of a live id stays an error.
        assert!(domains.create_slice(SliceId(3)).is_err());
    }

    #[test]
    fn faults_shrink_the_admittable_capacity() {
        let controller = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.4,
            headroom: 0.0,
            ..Default::default()
        });
        let mut domains = DomainSet::testbed_default();
        domains.create_slice(SliceId(0)).unwrap();
        domains.enforce(SliceId(0), Action::uniform(0.3)).unwrap();
        assert!(controller.evaluate(&domains).is_ok());
        domains.set_domain_capacity_scale(DomainKind::Transport, 0.5);
        let denied = controller.evaluate(&domains).unwrap_err();
        assert_eq!(denied.resource, ResourceKind::TransportBandwidth);
    }

    #[test]
    fn headroom_reserves_extra_capacity() {
        let tight = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.5,
            headroom: 0.0,
            ..Default::default()
        });
        let cautious = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.5,
            headroom: 0.6,
            ..Default::default()
        });
        let domains = DomainSet::testbed_default();
        assert!(tight.evaluate(&domains).is_ok());
        assert!(cautious.evaluate(&domains).is_err());
    }

    #[test]
    #[should_panic(expected = "headroom must be in [0, 1)")]
    fn invalid_headroom_is_rejected() {
        let _ = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.1,
            headroom: 1.0,
            ..Default::default()
        });
    }

    #[test]
    fn same_slot_reservations_tighten_the_check() {
        // Residual 1.0, estimated share 0.4: two newcomers fit, a third —
        // with the first two's shares reserved — must not. Without the
        // reservation every one of them would see the full residual.
        let controller = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.4,
            headroom: 0.0,
            ..Default::default()
        });
        let domains = DomainSet::testbed_default();
        assert!(controller.evaluate_with_reserved(&domains, 0.0).is_ok());
        assert!(controller.evaluate_with_reserved(&domains, 0.4).is_ok());
        let denied = controller
            .evaluate_with_reserved(&domains, 0.8)
            .unwrap_err();
        assert!((denied.required - 1.2).abs() < 1e-12);
        assert_eq!(
            controller.reserved_share_per_admission(),
            controller.config().estimated_share
        );
    }

    #[test]
    fn unknown_admission_policy_is_a_startup_error_naming_the_registered_set() {
        let err = admission_policy_by_name("permissive")
            .map(|p| p.name())
            .unwrap_err();
        assert!(
            err.contains("unknown admission policy `permissive`"),
            "{err}"
        );
        for name in admission_policy_names() {
            assert!(err.contains(name), "error must name `{name}`: {err}");
        }
        assert!(AdmissionPolicyName::parse("permissive").is_err());
    }

    #[test]
    fn every_registered_admission_policy_resolves_by_name() {
        for policy in ADMISSION_POLICIES {
            let resolved = admission_policy_by_name(policy.name()).unwrap();
            assert_eq!(resolved.name(), policy.name());
            assert!(!policy.description().is_empty());
        }
    }

    #[test]
    fn cautious_policy_denies_where_greedy_admits() {
        // Residual 1.0. Greedy needs 0.4; cautious doubles the estimate to
        // 0.8 + the same headroom — a newcomer that greedy admits with a
        // 0.3 reservation outstanding is denied by cautious.
        let greedy = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.4,
            headroom: 0.0,
            policy: AdmissionPolicyName::GREEDY,
        });
        let cautious = AdmissionController::new(AdmissionConfig {
            estimated_share: 0.4,
            headroom: 0.0,
            policy: AdmissionPolicyName::CAUTIOUS,
        });
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
            policy: AdmissionPolicyName::CAUTIOUS,
            ..Default::default()
        };
        let back = AdmissionConfig::from_value(&cautious.serialize_value()).unwrap();
        assert_eq!(back.policy, AdmissionPolicyName::CAUTIOUS);
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
        assert!(AdmissionController::try_new(AdmissionConfig {
            estimated_share: 0.0,
            headroom: 0.0,
            ..Default::default()
        })
        .unwrap_err()
        .contains("estimated share"));
        assert!(AdmissionController::try_new(AdmissionConfig {
            estimated_share: 0.1,
            headroom: 1.5,
            ..Default::default()
        })
        .unwrap_err()
        .contains("headroom"));
        assert!(AdmissionController::try_new(AdmissionConfig::default()).is_ok());
    }
}
