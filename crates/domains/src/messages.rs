//! Message types the orchestration layers send to the domain managers.
//!
//! On the testbed the agents and managers talk over a unified REST API (§6).
//! These structs are the payloads of the part of that interface the engine
//! drives: the slice lifecycle commands the orchestrator issues and the
//! capacity overrides a scenario's fault events inject. Keeping them as plain
//! serializable data means the same types could be put on the wire unchanged.

use serde::{Deserialize, Serialize};

use onslicing_slices::Action;

use crate::manager::DomainKind;
use crate::SliceId;

/// A fault-injection / recovery notification for one domain: the effective
/// capacity of every resource the domain owns becomes `nominal · scale`
/// (`scale = 1.0` heals the domain). Emitted by scenario engines and
/// consumed via [`crate::DomainSet::apply_capacity_override`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityOverride {
    /// The faulted (or healed) domain.
    pub domain: DomainKind,
    /// Multiplier on the domain's nominal capacity; must be positive.
    pub scale: f64,
}

/// Slice lifecycle commands issued by the orchestrator to a domain manager.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SliceConfigCommand {
    /// Instantiate the virtual resources of a new slice.
    Create(SliceId),
    /// Remove a slice and release its resources.
    Delete(SliceId),
    /// Replace a slice's current allocation with the embedded action.
    Adjust(SliceId, Action),
}

impl SliceConfigCommand {
    /// The slice the command addresses.
    pub fn slice(&self) -> SliceId {
        match self {
            SliceConfigCommand::Create(s)
            | SliceConfigCommand::Delete(s)
            | SliceConfigCommand::Adjust(s, _) => *s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_report_their_slice() {
        assert_eq!(SliceConfigCommand::Create(SliceId(1)).slice(), SliceId(1));
        assert_eq!(SliceConfigCommand::Delete(SliceId(2)).slice(), SliceId(2));
        assert_eq!(
            SliceConfigCommand::Adjust(SliceId(3), Action::zeros()).slice(),
            SliceId(3)
        );
    }

    #[test]
    fn messages_serialize_round_trip() {
        let command = SliceConfigCommand::Adjust(SliceId(9), Action::uniform(0.5));
        let json = serde_json::to_string(&command).unwrap();
        let back: SliceConfigCommand = serde_json::from_str(&json).unwrap();
        assert_eq!(back, command);
        let fault = CapacityOverride {
            domain: DomainKind::Transport,
            scale: 0.5,
        };
        let json = serde_json::to_string(&fault).unwrap();
        let back: CapacityOverride = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fault);
    }
}
