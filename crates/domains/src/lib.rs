//! # onslicing-domains
//!
//! Domain managers for the OnSlicing reproduction: the radio (RDM), transport
//! (TDM), core (CDM) and edge (EDM) domain managers that virtualize the
//! infrastructure, enforce per-resource capacity constraints, and run the
//! *parameter coordinator* of the distributed coordination mechanism
//! (paper §4, Eq. 14).
//!
//! On the real testbed the domain managers are REST services wrapping
//! FlexRAN, OpenDayLight, OpenAir-CN and Docker. Here they manage the
//! normalized resource shares that the network simulator interprets, and they
//! expose the same three capabilities the paper relies on:
//!
//! 1. **slice lifecycle** — create/adjust/delete a slice's virtual resources
//!    at sub-second (here: per-call) granularity, in the one slice registry
//!    the four managers share ([`DomainSet`]);
//! 2. **capacity accounting** — detect over-requests `Σ_i â_i,k > L_k` and
//!    either *project* all requests down (the baseline's method) or
//! 3. **parameter coordination** — update the dual variables `β_k` by
//!    sub-gradient ascent (Eq. 14) and hand them back to the agents' action
//!    modifiers, warm-starting from the previous slot to keep the number of
//!    agent↔manager interactions low (Table 3 / Fig. 19).
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

pub mod coordinator;
pub mod manager;
pub mod set;

pub use coordinator::ParameterCoordinator;
pub use manager::{DomainKind, DomainManager};
pub use set::DomainSet;

use serde::{Deserialize, Serialize};

/// Identifier of a slice within the orchestration system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SliceId(pub u32);

impl std::fmt::Display for SliceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice-{}", self.0)
    }
}
