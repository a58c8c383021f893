//! Secure identifier binding — the paper's recommended countermeasure for
//! Port Probing (§VI-A).
//!
//! > "recent work on secure identifier binding in SDNs [Jero et al.,
//! > USENIX Security 2017] extends the coverage afforded by 802.1x through
//! > the entire identifier stack. This would effectively prevent port
//! > probing attacks, as the attacker can no longer misleadingly claim to
//! > be the victim device without triggering alerts."
//!
//! This module models that defense at the controller: the first
//! (802.1x-authenticated) appearance of an identifier *attests* its
//! binding to a port. Any later appearance at a different port is rejected
//! unless the migration was explicitly authorized out-of-band (in a real
//! deployment: the hypervisor/orchestrator attests the move as part of a
//! planned migration; scenarios call [`IdentifierBinding::authorize`]).
//!
//! Unlike TopoGuard and SPHINX, this defense *blocks*: the spoofed binding
//! never enters the host-tracking service, so flows are never redirected.
//! This is the active, non-passive posture the paper argues is necessary.

use std::collections::BTreeMap;

use controller::{AlertKind, Command, DefenseModule, HostMove, ModuleCtx};
use sdn_types::{MacAddr, SwitchPort};

/// One authorized pending migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Authorization {
    mac: MacAddr,
    to: SwitchPort,
}

/// The identifier-binding defense module.
pub struct IdentifierBinding {
    bindings: BTreeMap<MacAddr, SwitchPort>,
    authorized: Vec<Authorization>,
    /// Spoofed migration attempts blocked (diagnostics).
    pub blocked: u64,
    /// Authorized migrations completed (diagnostics).
    pub migrations_completed: u64,
}

impl IdentifierBinding {
    /// Creates the module.
    pub fn new() -> Self {
        IdentifierBinding {
            bindings: BTreeMap::new(),
            authorized: Vec::new(),
            blocked: 0,
            migrations_completed: 0,
        }
    }

    /// Out-of-band attestation: the orchestrator authorizes `mac` to
    /// rebind to `to` (a planned migration). One-shot: consumed by the
    /// first matching move.
    pub fn authorize(&mut self, mac: MacAddr, to: SwitchPort) {
        self.authorized.push(Authorization { mac, to });
    }

    /// The attested binding for `mac`, if any.
    pub fn binding_of(&self, mac: &MacAddr) -> Option<SwitchPort> {
        self.bindings.get(mac).copied()
    }
}

impl Default for IdentifierBinding {
    fn default() -> Self {
        IdentifierBinding::new()
    }
}

impl DefenseModule for IdentifierBinding {
    fn name(&self) -> &'static str {
        "identifier-binding"
    }

    fn on_host_new(
        &mut self,
        _cx: &mut ModuleCtx<'_>,
        mac: MacAddr,
        _ip: Option<sdn_types::IpAddr>,
        location: SwitchPort,
    ) {
        // First authenticated appearance attests the binding.
        self.bindings.entry(mac).or_insert(location);
    }

    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        if let Some(idx) = self
            .authorized
            .iter()
            .position(|a| a.mac == mv.mac && a.to == mv.to)
        {
            self.authorized.remove(idx);
            self.bindings.insert(mv.mac, mv.to);
            self.migrations_completed += 1;
            return Command::Continue;
        }
        self.blocked += 1;
        cx.raise(
            AlertKind::HostMigrationPrecondition,
            format!(
                "unattested rebind of {} from {} to {} rejected",
                mv.mac, mv.from, mv.to
            ),
        );
        Command::Block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::test_support::ModuleHarness;
    use sdn_types::{DatapathId, PortNo, SimTime};

    fn sp(d: u64, p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(d), PortNo::new(p))
    }

    #[test]
    fn unattested_rebind_is_blocked_and_alerted() {
        let mut h = ModuleHarness::new();
        let mut binding = IdentifierBinding::new();
        let mac = MacAddr::from_index(1);
        binding.on_host_new(&mut h.ctx(SimTime::ZERO), mac, None, sp(1, 2));

        let mv = HostMove {
            mac,
            ip: None,
            from: sp(1, 2),
            to: sp(1, 5),
            at: SimTime::from_secs(1),
        };
        assert_eq!(
            binding.on_host_move(&mut h.ctx(SimTime::from_secs(1)), &mv),
            Command::Block
        );
        assert_eq!(binding.blocked, 1);
        assert_eq!(h.alerts.len(), 1);
        assert_eq!(
            binding.binding_of(&mac),
            Some(sp(1, 2)),
            "binding unchanged"
        );
    }

    #[test]
    fn authorized_migration_proceeds_once() {
        let mut h = ModuleHarness::new();
        let mut binding = IdentifierBinding::new();
        let mac = MacAddr::from_index(1);
        binding.on_host_new(&mut h.ctx(SimTime::ZERO), mac, None, sp(1, 2));
        binding.authorize(mac, sp(2, 4));

        let mv = HostMove {
            mac,
            ip: None,
            from: sp(1, 2),
            to: sp(2, 4),
            at: SimTime::from_secs(1),
        };
        assert_eq!(
            binding.on_host_move(&mut h.ctx(SimTime::from_secs(1)), &mv),
            Command::Continue
        );
        assert_eq!(binding.migrations_completed, 1);
        assert_eq!(binding.binding_of(&mac), Some(sp(2, 4)));

        // The authorization is one-shot: a replay is blocked.
        let replay = HostMove {
            from: sp(2, 4),
            to: sp(2, 4),
            ..mv
        };
        let back = HostMove {
            from: sp(2, 4),
            to: sp(1, 2),
            ..mv
        };
        let _ = replay;
        assert_eq!(
            binding.on_host_move(&mut h.ctx(SimTime::from_secs(2)), &back),
            Command::Block
        );
    }

    #[test]
    fn authorization_is_target_specific() {
        let mut h = ModuleHarness::new();
        let mut binding = IdentifierBinding::new();
        let mac = MacAddr::from_index(1);
        binding.on_host_new(&mut h.ctx(SimTime::ZERO), mac, None, sp(1, 2));
        binding.authorize(mac, sp(2, 4));

        // The attacker races to a *different* port: still blocked.
        let mv = HostMove {
            mac,
            ip: None,
            from: sp(1, 2),
            to: sp(1, 5),
            at: SimTime::from_secs(1),
        };
        assert_eq!(
            binding.on_host_move(&mut h.ctx(SimTime::from_secs(1)), &mv),
            Command::Block
        );
    }
}
