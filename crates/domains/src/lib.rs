//! # onslicing-domains
//!
//! The radio (RDM), transport (TDM), core (CDM) and edge (EDM) domain
//! managers of the OnSlicing reproduction. On the real testbed they are REST
//! services wrapping FlexRAN, OpenDayLight, OpenAir-CN and Docker; here they
//! differ only in which resources they own ([`DomainKind::resources`]), so
//! one flat [`DomainSet`] holds all four — a nominal capacity and a step
//! size, one fault scale per domain, one `β_k` per resource — with the three
//! capabilities the paper relies on (§4):
//!
//! 1. **slice lifecycle** — create/adjust/delete a slice's virtual resources
//!    at sub-second (here: per-call) granularity, in the one slice registry
//!    the four managers share;
//! 2. **capacity accounting** — detect over-requests `Σ_i â_i,k > L_k` and
//!    either *project* all requests down (the baseline's method) or
//! 3. **parameter coordination** — update the dual variables `β_k` by
//!    sub-gradient ascent (Eq. 14) and hand them back to the agents' action
//!    modifiers.
//!
//! ## Parameter coordination (Eq. 14)
//!
//! `β_k` prices resource `k`: when the slices' (modified) requests
//! over-subscribe its effective capacity `L_k`, one round raises it by
//! `β_k ← [β_k + ε (Σ_i â_i,k − L_k)]⁺`, which pushes the agents' action
//! modifiers to request less; when the resource is under-subscribed, `β_k`
//! decays back toward zero. Requests that overshoot by at most 0.1 % count
//! as feasible: the dual ascent converges geometrically, so insisting on
//! exact feasibility would waste interactions on a vanishing sliver.
//! Warm-starting `β_k` from the previous slot is what keeps the number of
//! agent↔manager interactions per slot low (≈ 1.8 in Table 3 / Fig. 19).
//!
//! ```
//! use onslicing_domains::{DomainSet, SliceId};
//! use onslicing_slices::Action;
//!
//! let mut domains = DomainSet::testbed_default();
//! let a = SliceId(0);
//! let b = SliceId(1);
//! domains.create_slice(a).unwrap();
//! domains.create_slice(b).unwrap();
//!
//! // Two slices each asking for 70 % of every resource over-request the
//! // infrastructure; one coordination round raises the betas.
//! let requests = [Action::uniform(0.7), Action::uniform(0.7)];
//! assert!(!domains.is_feasible_slice(&requests));
//! let betas = domains.update_coordination_slice(&requests);
//! assert!(betas.iter().any(|&b| b > 0.0));
//! ```

pub mod set;

pub use set::DomainSet;

use serde::{Deserialize, Serialize};

use onslicing_slices::ResourceKind;

/// Identifier of a slice within the orchestration system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SliceId(pub u32);

impl std::fmt::Display for SliceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice-{}", self.0)
    }
}

/// The four technical domains of the end-to-end slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomainKind {
    /// Radio domain manager (FlexRAN / OAI eNB+gNB on the testbed).
    Radio,
    /// Transport domain manager (OpenDayLight + OpenFlow meters).
    Transport,
    /// Core domain manager (OpenAir-CN CUPS user plane).
    Core,
    /// Edge domain manager (Docker runtime updates).
    Edge,
}

impl DomainKind {
    /// All domains in the paper's order.
    pub const ALL: [DomainKind; 4] = [
        DomainKind::Radio,
        DomainKind::Transport,
        DomainKind::Core,
        DomainKind::Edge,
    ];

    /// Index of this domain in [`DomainKind::ALL`].
    fn index(self) -> usize {
        DomainKind::ALL
            .iter()
            .position(|d| *d == self)
            .expect("domain is in ALL")
    }

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Radio => "RDM",
            DomainKind::Transport => "TDM",
            DomainKind::Core => "CDM",
            DomainKind::Edge => "EDM",
        }
    }

    /// The shared resources this domain owns.
    ///
    /// CPU and RAM are owned by the edge domain manager: the paper co-locates
    /// each slice's SPGW-U with its edge server, so the CDM's user-plane
    /// compute is drawn from the same allocation (§6). The core domain owns
    /// no resource but still has a fault scale.
    pub fn resources(self) -> &'static [ResourceKind] {
        match self {
            DomainKind::Radio => &[ResourceKind::UplinkRadio, ResourceKind::DownlinkRadio],
            DomainKind::Transport => &[
                ResourceKind::TransportBandwidth,
                ResourceKind::TransportPath,
            ],
            DomainKind::Core => &[],
            DomainKind::Edge => &[ResourceKind::EdgeCpu, ResourceKind::EdgeRam],
        }
    }
}

/// What each domain manager owns — its resources, its fault scale, its
/// share of the slice lifecycle — checked through [`DomainSet`].
#[cfg(test)]
mod manager {
    mod tests {
        use crate::{DomainKind, DomainSet, SliceId};
        use onslicing_slices::{Action, ResourceKind};

        fn beta_for(set: &DomainSet, resource: ResourceKind) -> f64 {
            set.betas()[resource.index()]
        }

        /// Actions requesting `share` of both radio resources and nothing
        /// else.
        fn radio_only(share: f64) -> Action {
            Action {
                ul_bandwidth: share,
                dl_bandwidth: share,
                ..Action::zeros()
            }
        }

        #[test]
        fn domains_own_disjoint_resources_covering_all_six() {
            let mut seen = Vec::new();
            for d in DomainKind::ALL {
                for r in d.resources() {
                    assert!(!seen.contains(r), "{r:?} owned by two domains");
                    seen.push(*r);
                }
            }
            assert_eq!(seen.len(), ResourceKind::ALL.len());
        }

        #[test]
        fn slice_lifecycle_is_enforced() {
            let mut domains = DomainSet::testbed_default();
            let id = SliceId(1);
            assert!(domains.create_slice(id).is_ok());
            assert!(domains.create_slice(id).is_err());
            assert!(domains.enforce(id, Action::uniform(0.4)).is_ok());
            let radio = ResourceKind::UplinkRadio;
            assert!((domains.residual_capacity(radio) - 0.6).abs() < 1e-12);
            assert!(domains.delete_slice(id).is_ok());
            assert!(domains.delete_slice(id).is_err());
            assert!(domains.enforce(id, Action::zeros()).is_err());
            assert_eq!(domains.residual_capacity(radio), 1.0);
        }

        #[test]
        fn total_enforced_share_sums_over_slices() {
            let mut domains = DomainSet::testbed_default();
            for i in 0..3 {
                domains.create_slice(SliceId(i)).unwrap();
                domains.enforce(SliceId(i), Action::uniform(0.2)).unwrap();
            }
            let enforced = 1.0 - domains.residual_capacity(ResourceKind::EdgeCpu);
            assert!((enforced - 0.6).abs() < 1e-12);
        }

        #[test]
        fn feasibility_and_coordination_follow_the_owned_resources() {
            let mut set = DomainSet::testbed_default();
            let fits = [radio_only(0.4), radio_only(0.4)];
            let too_much = [radio_only(0.7), radio_only(0.7)];
            assert!(set.is_feasible_slice(&fits));
            assert!(!set.is_feasible_slice(&too_much));

            set.update_coordination_slice(&too_much);
            assert!(beta_for(&set, ResourceKind::UplinkRadio) > 0.0);
            assert!(beta_for(&set, ResourceKind::DownlinkRadio) > 0.0);
            // A radio over-request prices no edge resource.
            assert_eq!(beta_for(&set, ResourceKind::EdgeCpu), 0.0);
        }

        #[test]
        fn betas_warm_start_and_reset() {
            let mut set = DomainSet::testbed_default();
            set.set_beta(ResourceKind::TransportBandwidth, 0.4);
            assert_eq!(beta_for(&set, ResourceKind::TransportBandwidth), 0.4);
            // Only the named resource moved.
            assert_eq!(set.betas().iter().filter(|b| **b != 0.0).count(), 1);
            set.reset_betas();
            assert!(set.betas().iter().all(|b| *b == 0.0));
        }

        #[test]
        fn projection_only_touches_owned_resources() {
            let set = DomainSet::testbed_default();
            let request = Action {
                cpu: 0.4,
                ..radio_only(0.8)
            };
            let mut projected = [request, request];
            set.project_in_place(&mut projected);
            // Radio shares scaled to fit...
            let total_ul: f64 = projected.iter().map(|a| a.ul_bandwidth).sum();
            assert!((total_ul - 1.0).abs() < 1e-9);
            // ...but the CPU shares, which fit, are untouched.
            assert!(projected.iter().all(|a| a.cpu == 0.4));
        }

        #[test]
        fn capacity_scale_degrades_and_restores_every_owned_resource() {
            let mut set = DomainSet::testbed_default();
            assert_eq!(set.capacity_scale(DomainKind::Transport), 1.0);
            assert_eq!(set.capacity_of(ResourceKind::TransportBandwidth), 1.0);

            let healthy = [Action::uniform(0.4), Action::uniform(0.4)];
            assert!(set.is_feasible_slice(&healthy));
            set.set_domain_capacity_scale(DomainKind::Transport, 0.5);
            assert_eq!(set.capacity_scale(DomainKind::Transport), 0.5);
            assert!(!set.is_feasible_slice(&healthy));
            assert_eq!(set.capacity_of(ResourceKind::TransportPath), 0.5);
            assert_eq!(set.capacity_of(ResourceKind::EdgeCpu), 1.0);
            // The degraded capacity also feeds the dual update, and only the
            // transport resources are priced.
            set.update_coordination_slice(&healthy);
            assert!(beta_for(&set, ResourceKind::TransportBandwidth) > 0.0);
            assert_eq!(beta_for(&set, ResourceKind::UplinkRadio), 0.0);
            // Recovery restores the nominal capacity.
            set.set_domain_capacity_scale(DomainKind::Transport, 1.0);
            assert_eq!(set.capacity_of(ResourceKind::TransportPath), 1.0);
            assert!(set.is_feasible_slice(&healthy));
        }

        #[test]
        #[should_panic(expected = "capacity scale must be positive")]
        fn zero_capacity_scale_is_rejected() {
            DomainSet::testbed_default().set_domain_capacity_scale(DomainKind::Radio, 0.0);
        }

        #[test]
        fn core_domain_owns_no_shared_resources() {
            assert!(DomainKind::Core.resources().is_empty());
            let mut set = DomainSet::testbed_default();
            // A core fault is recorded but shrinks no shared resource.
            set.set_domain_capacity_scale(DomainKind::Core, 0.1);
            assert_eq!(set.capacity_scale(DomainKind::Core), 0.1);
            for r in ResourceKind::ALL {
                assert_eq!(set.capacity_of(r), 1.0);
            }
            let requests = vec![Action::uniform(0.15); 5];
            assert!(set.is_feasible_slice(&requests));
            set.update_coordination_slice(&requests);
            assert!(set.betas().iter().all(|b| *b == 0.0));
        }
    }
}

/// The parameter coordinator's Eq. 14 step, feasibility and projection on
/// one resource, checked through [`DomainSet`].
#[cfg(test)]
mod coordinator {
    mod tests {
        use crate::DomainSet;
        use onslicing_slices::{Action, ResourceKind};

        const UL: ResourceKind = ResourceKind::UplinkRadio;

        /// Unit capacity, step size 0.5.
        fn set() -> DomainSet {
            DomainSet::with_parameters(1.0, 0.5)
        }

        /// One action per share, requesting only uplink radio.
        fn ul(shares: &[f64]) -> Vec<Action> {
            shares
                .iter()
                .map(|s| Action {
                    ul_bandwidth: *s,
                    ..Action::zeros()
                })
                .collect()
        }

        fn beta(set: &DomainSet) -> f64 {
            set.betas()[UL.index()]
        }

        #[test]
        fn beta_starts_at_zero_and_stays_nonnegative() {
            let mut c = set();
            assert_eq!(beta(&c), 0.0);
            // Under-subscription cannot push beta below zero.
            c.update_coordination_slice(&ul(&[0.1, 0.2]));
            assert_eq!(beta(&c), 0.0);
        }

        #[test]
        fn over_request_raises_beta_by_eps_times_excess() {
            let mut c = set();
            let new_beta = c.update_coordination_slice(&ul(&[0.8, 0.6]))[UL.index()]; // excess 0.4
            assert!((new_beta - 0.2).abs() < 1e-12);
            // A second identical round keeps raising it.
            let again = c.update_coordination_slice(&ul(&[0.8, 0.6]))[UL.index()];
            assert!((again - 0.4).abs() < 1e-12);
        }

        #[test]
        fn beta_decays_once_requests_become_feasible() {
            let mut c = set();
            c.update_coordination_slice(&ul(&[0.9, 0.9])); // beta = 0.4
            c.update_coordination_slice(&ul(&[0.3, 0.3])); // excess -0.4 -> beta 0.2
            assert!((beta(&c) - 0.2).abs() < 1e-12);
            c.update_coordination_slice(&ul(&[0.1, 0.1]));
            assert!(beta(&c) < 0.2);
        }

        #[test]
        fn feasibility_check_matches_excess_sign() {
            let c = set();
            assert!(c.is_feasible_slice(&ul(&[0.5, 0.5])));
            // Within the 1e-3 tolerance, and just past it.
            assert!(c.is_feasible_slice(&ul(&[0.5009, 0.5])));
            assert!(!c.is_feasible_slice(&ul(&[0.51, 0.5])));
            assert!((c.excess(&ul(&[0.7, 0.5]))[UL.index()] - 0.2).abs() < 1e-12);
        }

        #[test]
        fn projection_scales_down_only_when_infeasible() {
            let c = set();
            let fits = ul(&[0.2, 0.3]);
            let mut projected = fits.clone();
            c.project_in_place(&mut projected);
            assert_eq!(projected, fits);
            let mut projected = ul(&[1.0, 1.0]);
            c.project_in_place(&mut projected);
            assert!(projected
                .iter()
                .all(|a| (a.ul_bandwidth - 0.5).abs() < 1e-12));
        }

        #[test]
        fn set_beta_clamps_negative_values() {
            let mut c = set();
            c.set_beta(UL, -3.0);
            assert_eq!(beta(&c), 0.0);
            c.set_beta(UL, 0.7);
            assert_eq!(beta(&c), 0.7);
        }

        #[test]
        #[should_panic(expected = "capacity must be positive")]
        fn zero_capacity_is_rejected() {
            let _ = DomainSet::with_parameters(0.0, 0.1);
        }
    }
}
