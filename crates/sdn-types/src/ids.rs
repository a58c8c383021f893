//! Identifier newtypes for switches, ports, hosts, and simulation nodes.

use std::fmt;

/// A 64-bit OpenFlow datapath identifier naming a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatapathId(pub u64);

impl DatapathId {
    /// Creates a datapath identifier from its raw value.
    pub const fn new(raw: u64) -> Self {
        DatapathId(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(&self) -> u64 {
        self.0
    }

    /// Returns the identifier encoded as big-endian bytes, as carried in the
    /// Floodlight-style LLDP chassis/DPID TLV.
    pub const fn to_bytes(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parses from big-endian wire bytes; `None` if fewer than 8 bytes.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        let raw: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        Some(DatapathId(u64::from_be_bytes(raw)))
    }
}

impl fmt::Display for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Debug for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatapathId({self})")
    }
}

impl From<u64> for DatapathId {
    fn from(raw: u64) -> Self {
        DatapathId(raw)
    }
}

/// An OpenFlow port number on a switch.
///
/// Reserved values follow OpenFlow 1.0: [`PortNo::CONTROLLER`],
/// [`PortNo::FLOOD`], [`PortNo::ALL`], and [`PortNo::LOCAL`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Send to the controller (reserved port `0xfffd`).
    pub const CONTROLLER: PortNo = PortNo(0xfffd);
    /// Flood on all physical ports except the ingress port (`0xfffb`).
    pub const FLOOD: PortNo = PortNo(0xfffb);
    /// All physical ports including the ingress port (`0xfffc`).
    pub const ALL: PortNo = PortNo(0xfffc);
    /// The switch-local port (`0xfffe`).
    pub const LOCAL: PortNo = PortNo(0xfffe);
    /// Wildcard meaning "no port" / "any port" (`0xffff`).
    pub const NONE: PortNo = PortNo(0xffff);

    /// Creates a port number.
    pub const fn new(raw: u16) -> Self {
        PortNo(raw)
    }

    /// Returns the raw value.
    pub const fn raw(&self) -> u16 {
        self.0
    }

    /// Returns `true` for physical (non-reserved) port numbers.
    pub const fn is_physical(&self) -> bool {
        self.0 < 0xff00
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortNo::CONTROLLER => write!(f, "CONTROLLER"),
            PortNo::FLOOD => write!(f, "FLOOD"),
            PortNo::ALL => write!(f, "ALL"),
            PortNo::LOCAL => write!(f, "LOCAL"),
            PortNo::NONE => write!(f, "NONE"),
            PortNo(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Debug for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PortNo({self})")
    }
}

impl From<u16> for PortNo {
    fn from(raw: u16) -> Self {
        PortNo(raw)
    }
}

/// A network location: a specific port on a specific switch.
///
/// This is the value the Host Tracking Service binds host identifiers to,
/// and the endpoint type used by link discovery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchPort {
    /// The switch's datapath identifier.
    pub dpid: DatapathId,
    /// The port on that switch.
    pub port: PortNo,
}

impl SwitchPort {
    /// Creates a switch/port pair.
    pub const fn new(dpid: DatapathId, port: PortNo) -> Self {
        SwitchPort { dpid, port }
    }
}

impl fmt::Display for SwitchPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.dpid, self.port)
    }
}

impl fmt::Debug for SwitchPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SwitchPort({self})")
    }
}

/// A simulation-level host identifier (not visible on the wire).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// Creates a host identifier.
    pub const fn new(raw: u32) -> Self {
        HostId(raw)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostId({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpid_bytes_round_trip() {
        let dpid = DatapathId::new(0x0102_0304_0506_0708);
        assert_eq!(DatapathId::from_slice(&dpid.to_bytes()), Some(dpid));
        assert!(DatapathId::from_slice(&[0; 7]).is_none());
    }

    #[test]
    fn dpid_displays_as_hex() {
        assert_eq!(DatapathId::new(0x2a).to_string(), "0x2a");
    }

    #[test]
    fn reserved_ports_are_not_physical() {
        assert!(!PortNo::CONTROLLER.is_physical());
        assert!(!PortNo::FLOOD.is_physical());
        assert!(PortNo::new(1).is_physical());
        assert!(PortNo::new(0xfeff).is_physical());
    }

    #[test]
    fn port_display_names_reserved() {
        assert_eq!(PortNo::FLOOD.to_string(), "FLOOD");
        assert_eq!(PortNo::new(3).to_string(), "3");
    }

    #[test]
    fn switch_port_ordering_is_by_dpid_then_port() {
        let a = SwitchPort::new(DatapathId::new(1), PortNo::new(9));
        let b = SwitchPort::new(DatapathId::new(2), PortNo::new(1));
        assert!(a < b);
    }
}
