//! TopoGuard's per-port behavioral profiler (§III-B).
//!
//! > "Devices may be classified as a HOST, a SWITCH, or ANY. All devices
//! > begin as type ANY. If the controller receives dataplane traffic whose
//! > source address has not been seen before from a port, it is marked as a
//! > HOST. If the controller instead receives LLDP packets from a port, it
//! > is marked as a SWITCH. On detection of a Port-Down event, the type is
//! > reset to ANY."

use sdn_types::{SimTime, SwitchPort, SwitchPortTable};

/// The behavioral class of a switch port.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PortType {
    /// Unknown — the initial state, and the state after a Port-Down.
    #[default]
    Any,
    /// First-hop dataplane traffic has been seen.
    Host,
    /// LLDP has been received.
    Switch,
}

/// Per-port profile record.
#[derive(Clone, Copy, Debug)]
pub struct PortProfile {
    /// Current classification.
    pub port_type: PortType,
    /// When the classification last changed.
    pub since: SimTime,
    /// How many times this port's profile has been reset by a Port-Down —
    /// the paper notes the in-band attack's reset count "is detectable at
    /// the controller (but does not currently raise any alerts)".
    pub reset_count: u64,
}

/// The profiler: a map from switch port to behavioral profile.
#[derive(Clone, Debug, Default)]
pub struct PortProfiler {
    profiles: SwitchPortTable<PortProfile>,
}

impl PortProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        PortProfiler::default()
    }

    /// The current classification of `port` (ANY if never seen).
    pub fn port_type(&self, port: SwitchPort) -> PortType {
        self.profiles
            .get(&port)
            .map(|p| p.port_type)
            .unwrap_or(PortType::Any)
    }

    /// The full profile record, if the port has been observed.
    pub fn profile(&self, port: SwitchPort) -> Option<&PortProfile> {
        self.profiles.get(&port)
    }

    /// The profile of `port`, created as ANY at `now` if it has none.
    fn profile_mut(&mut self, port: SwitchPort, now: SimTime) -> &mut PortProfile {
        self.profiles.get_or_insert_with(port, || PortProfile {
            port_type: PortType::Any,
            since: now,
            reset_count: 0,
        })
    }

    /// Records first-hop dataplane traffic on `port`. Returns the previous
    /// classification.
    pub fn saw_host_traffic(&mut self, port: SwitchPort, now: SimTime) -> PortType {
        let profile = self.profile_mut(port, now);
        let prev = profile.port_type;
        if prev == PortType::Any {
            profile.port_type = PortType::Host;
            profile.since = now;
        }
        prev
    }

    /// Records LLDP reception on `port`. Returns the previous
    /// classification.
    pub fn saw_lldp(&mut self, port: SwitchPort, now: SimTime) -> PortType {
        let profile = self.profile_mut(port, now);
        let prev = profile.port_type;
        if prev == PortType::Any {
            profile.port_type = PortType::Switch;
            profile.since = now;
        }
        prev
    }

    /// Handles a Port-Down: resets the profile to ANY.
    pub fn port_down(&mut self, port: SwitchPort, now: SimTime) {
        let profile = self.profile_mut(port, now);
        if profile.port_type != PortType::Any {
            profile.port_type = PortType::Any;
            profile.since = now;
        }
        profile.reset_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::{DatapathId, PortNo};

    fn port(p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(1), PortNo::new(p))
    }

    #[test]
    fn starts_as_any() {
        let profiler = PortProfiler::new();
        assert_eq!(profiler.port_type(port(1)), PortType::Any);
    }

    #[test]
    fn traffic_marks_host_lldp_marks_switch() {
        let mut p = PortProfiler::new();
        p.saw_host_traffic(port(1), SimTime::ZERO);
        assert_eq!(p.port_type(port(1)), PortType::Host);
        p.saw_lldp(port(2), SimTime::ZERO);
        assert_eq!(p.port_type(port(2)), PortType::Switch);
    }

    #[test]
    fn first_classification_sticks() {
        // Once HOST, receiving LLDP does not silently flip the class (the
        // policy enforcer alerts instead).
        let mut p = PortProfiler::new();
        p.saw_host_traffic(port(1), SimTime::ZERO);
        let prev = p.saw_lldp(port(1), SimTime::from_secs(1));
        assert_eq!(prev, PortType::Host);
        assert_eq!(p.port_type(port(1)), PortType::Host);
    }

    #[test]
    fn port_down_resets_to_any() {
        // The Port Amnesia primitive.
        let mut p = PortProfiler::new();
        p.saw_host_traffic(port(1), SimTime::ZERO);
        p.port_down(port(1), SimTime::from_secs(1));
        assert_eq!(p.port_type(port(1)), PortType::Any);
        // After the reset, LLDP freely reclassifies the port as SWITCH.
        p.saw_lldp(port(1), SimTime::from_secs(2));
        assert_eq!(p.port_type(port(1)), PortType::Switch);
    }

    #[test]
    fn reset_count_accumulates() {
        // The context-switching signature the paper says is "detectable at
        // the controller".
        let mut p = PortProfiler::new();
        for i in 0..5 {
            p.saw_host_traffic(port(1), SimTime::from_secs(i));
            p.port_down(port(1), SimTime::from_secs(i));
        }
        assert_eq!(p.profile(port(1)).unwrap().reset_count, 5);
    }
}
