//! The Host Tracking Service (DeviceManager).
//!
//! Binds host identifiers (MAC, and the IPs seen with it) to a network
//! location `(switch, port)`, learned from `PacketIn` source headers
//! (§III-A2). A known MAC appearing at a new location registers a
//! *migration* — the transition Host Location Hijacking forges and Port
//! Probing times.

use std::collections::{BTreeMap, BTreeSet};

use sdn_types::{IpAddr, MacAddr, SimTime, SwitchPort};

/// One tracked end host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Device {
    /// The host's MAC address (the primary key).
    pub mac: MacAddr,
    /// IP addresses observed with this MAC.
    pub ips: BTreeSet<IpAddr>,
    /// Current location.
    pub location: SwitchPort,
    /// When the device was first seen.
    pub first_seen: SimTime,
    /// When the device last originated a packet.
    pub last_seen: SimTime,
    /// Number of registered migrations.
    pub move_count: u64,
}

/// A registered (or attempted) host migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostMove {
    /// The migrating MAC.
    pub mac: MacAddr,
    /// The IP observed in the triggering packet, if any.
    pub ip: Option<IpAddr>,
    /// Where the HTS believed the host was.
    pub from: SwitchPort,
    /// Where the host has appeared.
    pub to: SwitchPort,
    /// When the triggering packet arrived.
    pub at: SimTime,
}

/// The result of offering a packet observation to the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Observation {
    /// A brand-new device was learned.
    New,
    /// An existing device was refreshed at its known location.
    Refresh,
    /// An existing device appeared at a different location.
    Moved(HostMove),
}

/// The device table.
#[derive(Clone, Debug, Default)]
pub struct DeviceTable {
    devices: BTreeMap<MacAddr, Device>,
}

impl DeviceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        DeviceTable::default()
    }

    /// Classifies an observation of `mac` (with optional `ip`) at
    /// `location`, *without* committing it. Use [`DeviceTable::commit`]
    /// afterwards — the split lets defense modules inspect a migration
    /// before the binding changes.
    pub fn classify(
        &self,
        mac: MacAddr,
        ip: Option<IpAddr>,
        location: SwitchPort,
        now: SimTime,
    ) -> Observation {
        match self.devices.get(&mac) {
            None => Observation::New,
            Some(dev) if dev.location == location => Observation::Refresh,
            Some(dev) => Observation::Moved(HostMove {
                mac,
                ip,
                from: dev.location,
                to: location,
                at: now,
            }),
        }
    }

    /// Commits an observation: learns, refreshes, or re-binds.
    pub fn commit(&mut self, mac: MacAddr, ip: Option<IpAddr>, location: SwitchPort, now: SimTime) {
        let dev = self.devices.entry(mac).or_insert_with(|| Device {
            mac,
            ips: BTreeSet::new(),
            location,
            first_seen: now,
            last_seen: now,
            move_count: 0,
        });
        if dev.location != location {
            dev.location = location;
            dev.move_count += 1;
        }
        if let Some(ip) = ip {
            dev.ips.insert(ip);
        }
        dev.last_seen = now;
    }

    /// Looks up a device by MAC.
    pub fn get(&self, mac: &MacAddr) -> Option<&Device> {
        self.devices.get(mac)
    }

    /// The location bound to `mac`.
    pub fn location_of(&self, mac: &MacAddr) -> Option<SwitchPort> {
        self.devices.get(mac).map(|d| d.location)
    }

    /// Number of tracked devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if no devices are tracked.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates all devices.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::{DatapathId, PortNo};

    fn loc(d: u64, p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(d), PortNo::new(p))
    }

    fn mac(i: u32) -> MacAddr {
        MacAddr::from_index(i)
    }

    #[test]
    fn learn_refresh_move_lifecycle() {
        let mut t = DeviceTable::new();
        let m = mac(1);
        let ip = IpAddr::new(10, 0, 0, 1);

        assert_eq!(
            t.classify(m, Some(ip), loc(1, 2), SimTime::ZERO),
            Observation::New
        );
        t.commit(m, Some(ip), loc(1, 2), SimTime::ZERO);
        assert_eq!(t.len(), 1);
        assert_eq!(t.location_of(&m), Some(loc(1, 2)));

        assert_eq!(
            t.classify(m, Some(ip), loc(1, 2), SimTime::from_secs(1)),
            Observation::Refresh
        );
        t.commit(m, Some(ip), loc(1, 2), SimTime::from_secs(1));
        assert_eq!(t.get(&m).unwrap().move_count, 0);

        match t.classify(m, Some(ip), loc(2, 5), SimTime::from_secs(2)) {
            Observation::Moved(mv) => {
                assert_eq!(mv.from, loc(1, 2));
                assert_eq!(mv.to, loc(2, 5));
            }
            other => panic!("expected move, got {other:?}"),
        }
        t.commit(m, Some(ip), loc(2, 5), SimTime::from_secs(2));
        assert_eq!(t.get(&m).unwrap().move_count, 1);
        assert_eq!(t.location_of(&m), Some(loc(2, 5)));
    }

    #[test]
    fn classify_does_not_mutate() {
        let mut t = DeviceTable::new();
        let m = mac(1);
        t.commit(m, None, loc(1, 1), SimTime::ZERO);
        let _ = t.classify(m, None, loc(2, 2), SimTime::from_secs(1));
        assert_eq!(t.location_of(&m), Some(loc(1, 1)), "classify must not move");
    }

    #[test]
    fn multiple_ips_accumulate() {
        let mut t = DeviceTable::new();
        t.commit(
            mac(1),
            Some(IpAddr::new(10, 0, 0, 1)),
            loc(1, 1),
            SimTime::ZERO,
        );
        t.commit(
            mac(1),
            Some(IpAddr::new(10, 0, 0, 2)),
            loc(1, 1),
            SimTime::ZERO,
        );
        assert_eq!(t.get(&mac(1)).unwrap().ips.len(), 2);
    }
}
