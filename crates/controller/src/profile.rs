//! Controller timing personalities (paper Table III).

use sdn_types::Duration;

/// The discovery/expiry timing profile of a controller implementation.
///
/// Table III of the paper:
///
/// | Controller   | Link Discovery Interval | Link Timeout |
/// |--------------|-------------------------|--------------|
/// | Floodlight   | 15 s                    | 35 s         |
/// | POX          | 5 s                     | 10 s         |
/// | OpenDaylight | 5 s                     | 15 s         |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerProfile {
    /// The personality's name.
    pub name: &'static str,
    /// How often LLDP probes are emitted on every port.
    pub link_discovery_interval: Duration,
    /// How long a link survives without being re-verified by LLDP.
    pub link_timeout: Duration,
}

impl ControllerProfile {
    /// Floodlight: 15 s discovery, 35 s timeout. The paper's testbed
    /// controller (and TopoGuard's host).
    pub const FLOODLIGHT: ControllerProfile = ControllerProfile {
        name: "Floodlight",
        link_discovery_interval: Duration::from_secs(15),
        link_timeout: Duration::from_secs(35),
    };

    /// POX: 5 s discovery, 10 s timeout.
    pub const POX: ControllerProfile = ControllerProfile {
        name: "POX",
        link_discovery_interval: Duration::from_secs(5),
        link_timeout: Duration::from_secs(10),
    };

    /// OpenDaylight: 5 s discovery, 15 s timeout.
    pub const OPENDAYLIGHT: ControllerProfile = ControllerProfile {
        name: "OpenDaylight",
        link_discovery_interval: Duration::from_secs(5),
        link_timeout: Duration::from_secs(15),
    };

    /// All profiles from Table III.
    pub const ALL: [ControllerProfile; 3] = [
        ControllerProfile::FLOODLIGHT,
        ControllerProfile::POX,
        ControllerProfile::OPENDAYLIGHT,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        assert_eq!(
            ControllerProfile::FLOODLIGHT.link_discovery_interval,
            Duration::from_secs(15)
        );
        assert_eq!(
            ControllerProfile::FLOODLIGHT.link_timeout,
            Duration::from_secs(35)
        );
        assert_eq!(
            ControllerProfile::POX.link_discovery_interval,
            Duration::from_secs(5)
        );
        assert_eq!(ControllerProfile::POX.link_timeout, Duration::from_secs(10));
        assert_eq!(
            ControllerProfile::OPENDAYLIGHT.link_discovery_interval,
            Duration::from_secs(5)
        );
        assert_eq!(
            ControllerProfile::OPENDAYLIGHT.link_timeout,
            Duration::from_secs(15)
        );
    }

    #[test]
    fn timeout_exceeds_interval_by_factor_2_to_3() {
        // §VIII-A: "the default link timeout value exceeds the LLDP probing
        // interval by a factor of 2-3".
        for p in ControllerProfile::ALL {
            let ratio =
                p.link_timeout.as_nanos() as f64 / p.link_discovery_interval.as_nanos() as f64;
            assert!((2.0..=3.0).contains(&ratio), "{}: ratio {ratio}", p.name);
        }
    }
}
