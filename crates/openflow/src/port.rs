//! Switch port descriptions.

use sdn_types::{MacAddr, PortNo};

/// The administrative/link state of a switch port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortLinkState {
    /// Link is up and carrying traffic.
    Up,
    /// Link is down (cable unplugged, interface disabled, or — in the Port
    /// Amnesia attack — deliberately bounced by the attacker).
    Down,
}

/// A description of one switch port, as carried in FeaturesReply and
/// PortStatus messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortDesc {
    /// The port number.
    pub port_no: PortNo,
    /// The port's hardware address.
    pub hw_addr: MacAddr,
    /// Current link state.
    pub state: PortLinkState,
}

impl PortDesc {
    /// Returns `true` if the link is up.
    pub fn is_up(&self) -> bool {
        self.state == PortLinkState::Up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_up_reads_the_link_state() {
        let desc = PortDesc {
            port_no: PortNo::new(1),
            hw_addr: MacAddr::new([1; 6]),
            state: PortLinkState::Up,
        };
        assert!(desc.is_up());
        let down = PortDesc {
            state: PortLinkState::Down,
            ..desc
        };
        assert!(!down.is_up());
    }
}
