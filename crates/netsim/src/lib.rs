//! # onslicing-netsim
//!
//! End-to-end mobile network simulator standing in for the OnSlicing paper's
//! hardware testbed (OpenAirInterface eNB/gNB + USRP B210 radios,
//! OpenDayLight-controlled SDN switch, OpenAir-CN CUPS core, Docker edge
//! servers).
//!
//! The paper's agents operate at a 15-minute configuration timescale and
//! observe only slot-aggregate statistics, so each technical domain is
//! modeled at that granularity:
//!
//! * [`ran`] — PRB/RBG capacity from CQI→MCS mapping with per-slice MCS
//!   offsets (Fig. 6's retransmission-vs-offset trade-off), per-slice
//!   scheduler choice, HARQ, and LTE/NR carrier profiles calibrated to the
//!   paper's iperf3 measurements;
//! * [`tn`] — OpenFlow-meter bandwidth limiting and path reservation with
//!   M/M/1 queueing;
//! * [`cn`] — SPGW-U packet processing as a CPU-share-scaled queue;
//! * [`edge`] — Docker-contained edge compute whose service rate scales with
//!   the CPU share and is capped by the RAM share;
//! * [`pipeline`] — the composition of all four into per-slot
//!   [`SlotKpi`](onslicing_slices::SlotKpi)s for the MAR / HVS / RDC
//!   applications.
//!
//! ```
//! use onslicing_netsim::{NetworkConfig, NetworkSimulator};
//! use onslicing_slices::{Action, SliceKind, Sla};
//!
//! let mut sim = NetworkSimulator::new(NetworkConfig::testbed_default());
//! let sla = Sla::for_kind(SliceKind::Mar);
//! let kpi = sim.step_slice(SliceKind::Mar, &sla, &Action::uniform(0.5), 5.0);
//! assert!(kpi.validate().is_ok());
//! ```

pub mod cn;
pub mod edge;
pub mod pipeline;
pub mod ran;
pub mod tn;

pub use cn::{CnConfig, CnOutcome};
pub use edge::{EdgeConfig, EdgeOutcome};
pub use pipeline::{NetworkConfig, NetworkSimulator, SliceWorkload};
pub use ran::{ChannelModel, Direction, RanConfig, RatKind, RatProfile};
pub use tn::{TnConfig, TnOutcome};
