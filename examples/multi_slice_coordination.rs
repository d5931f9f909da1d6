//! Multi-slice coordination: three slices (MAR, HVS, RDC) orchestrated on one
//! infrastructure, comparing the paper's β-priced action modification against
//! plain projection when the slices over-request shared resources.
//!
//! ```sh
//! cargo run --release --example multi_slice_coordination
//! ```

use onslicing::core::{AgentConfig, CoordinationMode, DeploymentBuilder};
use onslicing::domains::DomainSet;
use onslicing::slices::{Action, ResourceKind};

fn main() {
    // Part 1: the mechanics. Two greedy requests exceed the CPU capacity;
    // watch the coordinating parameters rise and price the overload away.
    let mut domains = DomainSet::testbed_default();
    let requests = [Action::uniform(0.7), Action::uniform(0.6)];
    println!(
        "initial feasibility: {}",
        domains.is_feasible_slice(&requests)
    );
    for round in 1..=3 {
        let betas = domains.update_coordination_slice(&requests);
        println!(
            "round {round}: beta[edge-cpu] = {:.3}, beta[ul-radio] = {:.3}",
            betas[ResourceKind::EdgeCpu.index()],
            betas[ResourceKind::UplinkRadio.index()]
        );
    }
    let mut projected = requests;
    domains.project_in_place(&mut projected);
    println!(
        "projection fallback: cpu shares {:.2} + {:.2} = {:.2}",
        projected[0].cpu,
        projected[1].cpu,
        projected[0].cpu + projected[1].cpu
    );

    // Part 2: the full loop. A three-slice deployment learns online with the
    // modifier-based coordination, then the same variant with projection.
    for (label, mode) in [
        ("modifier (OnSlicing)", CoordinationMode::default()),
        (
            "projection (Baseline/OnRL style)",
            CoordinationMode::Projection,
        ),
    ] {
        let mut orch = DeploymentBuilder::new()
            .agent_config(AgentConfig::onslicing())
            .coordination(mode)
            .scaled_down(16)
            .seed(11)
            .build();
        orch.offline_pretrain_all(1);
        let episode = orch.run_episode(true);
        println!(
            "{label}: usage {:.1}%, violation {:.0}%, {:.2} interactions/slot",
            episode.avg_usage_percent(),
            episode.violation_percent(),
            episode.avg_interactions
        );
    }
}
