//! OpenFlow actions.

use sdn_types::PortNo;

/// An action applied to a matched packet. An empty action list drops the
/// packet (OpenFlow 1.0 semantics). Forwarding is the only action: no
/// controller, defense or attack in the simulation rewrites headers, so
/// the switch always emits the frame it received.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Forward out of a port (physical or reserved: FLOOD, CONTROLLER, ...).
    Output(PortNo),
}

/// The ports a rule's action list emits the frame on, in action order.
pub(crate) fn apply_actions(actions: &[Action]) -> Vec<PortNo> {
    actions.iter().map(|&Action::Output(port)| port).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_actions_collects_outputs_in_order() {
        let out = apply_actions(&[
            Action::Output(PortNo::new(1)),
            Action::Output(PortNo::new(2)),
        ]);
        assert_eq!(out, vec![PortNo::new(1), PortNo::new(2)]);
    }

    #[test]
    fn empty_actions_drop() {
        assert!(apply_actions(&[]).is_empty());
    }
}
