//! # onslicing
//!
//! Facade crate for the OnSlicing reproduction: re-exports every workspace
//! crate under a single dependency so examples and downstream users can write
//! `use onslicing::core::...`.
//!
//! See `README.md` at the repository root for the system inventory and the
//! experiment index.

pub use onslicing_core as core;
pub use onslicing_domains as domains;
pub use onslicing_fleet as fleet;
pub use onslicing_netsim as netsim;
pub use onslicing_nn as nn;
pub use onslicing_replay as replay;
pub use onslicing_rl as rl;
pub use onslicing_scenario as scenario;
pub use onslicing_slices as slices;
pub use onslicing_traffic as traffic;
