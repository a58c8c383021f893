//! The defense stacks under evaluation.

use std::fmt;

use controller::{ControllerConfig, SdnController};
use netsim::Simulator;
use sdn_types::Duration;
use sphinx::{Sphinx, SphinxConfig};
use topoguard::{Cmm, CmmConfig, IdentifierBinding, Lli, LliConfig, TopoGuard, TopoGuardConfig};

/// Which defenses are deployed on the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefenseStack {
    /// Plain Floodlight: no defense modules.
    None,
    /// TopoGuard (authenticated LLDP + profiler + migration verification).
    TopoGuard,
    /// The SPHINX surrogate (flow graphs + invariants).
    Sphinx,
    /// TopoGuard and SPHINX together — the paper's strongest prior stack.
    TopoGuardSphinx,
    /// TOPOGUARD+: TopoGuard plus the CMM and LLI extensions.
    TopoGuardPlus,
    /// Extension beyond the paper's implementation: TOPOGUARD+ plus the
    /// secure identifier binding the paper recommends against Port Probing
    /// (§VI-A). Scenarios must authorize legitimate migrations through
    /// [`topoguard::IdentifierBinding::authorize`].
    TopoGuardPlusBinding,
}

impl DefenseStack {
    /// The paper's stacks, in evaluation order.
    pub const ALL: [DefenseStack; 5] = [
        DefenseStack::None,
        DefenseStack::TopoGuard,
        DefenseStack::Sphinx,
        DefenseStack::TopoGuardSphinx,
        DefenseStack::TopoGuardPlus,
    ];

    /// The paper's stacks plus the identifier-binding extension.
    pub const ALL_EXTENDED: [DefenseStack; 6] = [
        DefenseStack::None,
        DefenseStack::TopoGuard,
        DefenseStack::Sphinx,
        DefenseStack::TopoGuardSphinx,
        DefenseStack::TopoGuardPlus,
        DefenseStack::TopoGuardPlusBinding,
    ];

    /// The stack's label on campaign axes and the command line.
    pub fn label(self) -> &'static str {
        match self {
            DefenseStack::None => "none",
            DefenseStack::TopoGuard => "topoguard",
            DefenseStack::Sphinx => "sphinx",
            DefenseStack::TopoGuardSphinx => "tg-sphinx",
            DefenseStack::TopoGuardPlus => "topoguard-plus",
            DefenseStack::TopoGuardPlusBinding => "tg-plus-binding",
        }
    }

    /// The stack in [`DefenseStack::ALL_EXTENDED`] whose
    /// [`label`](DefenseStack::label) is `label`.
    pub fn from_label(label: &str) -> Option<DefenseStack> {
        DefenseStack::ALL_EXTENDED
            .into_iter()
            .find(|s| s.label() == label)
    }

    /// Builds a controller with this stack installed, on top of `config`.
    ///
    /// The stack adjusts controller features it depends on: TopoGuard turns
    /// on LLDP signing; SPHINX turns on stats polling; TOPOGUARD+
    /// additionally turns on LLDP timestamping and echo polling.
    pub fn build_controller(&self, mut config: ControllerConfig) -> SdnController {
        match self {
            DefenseStack::None => SdnController::new(config),
            DefenseStack::TopoGuard => {
                config.sign_lldp = true;
                SdnController::new(config)
                    .with_module(Box::new(TopoGuard::new(TopoGuardConfig::default())))
            }
            DefenseStack::Sphinx => {
                config.stats_interval = Some(Duration::from_secs(2));
                SdnController::new(config)
                    .with_module(Box::new(Sphinx::new(SphinxConfig::default())))
            }
            DefenseStack::TopoGuardSphinx => {
                config.sign_lldp = true;
                config.stats_interval = Some(Duration::from_secs(2));
                SdnController::new(config)
                    .with_module(Box::new(TopoGuard::new(TopoGuardConfig::default())))
                    .with_module(Box::new(Sphinx::new(SphinxConfig::default())))
            }
            DefenseStack::TopoGuardPlus => {
                config.sign_lldp = true;
                config.timestamp_lldp = true;
                config.echo_interval = Some(Duration::from_secs(1));
                SdnController::new(config)
                    .with_module(Box::new(TopoGuard::new(TopoGuardConfig::default())))
                    .with_module(Box::new(Cmm::new(CmmConfig::default())))
                    .with_module(Box::new(Lli::new(LliConfig::default())))
            }
            DefenseStack::TopoGuardPlusBinding => {
                config.sign_lldp = true;
                config.timestamp_lldp = true;
                config.echo_interval = Some(Duration::from_secs(1));
                SdnController::new(config)
                    .with_module(Box::new(TopoGuard::new(TopoGuardConfig::default())))
                    .with_module(Box::new(Cmm::new(CmmConfig::default())))
                    .with_module(Box::new(Lli::new(LliConfig::default())))
                    .with_module(Box::new(IdentifierBinding::new()))
            }
        }
    }
}

/// The controller a scenario in this crate runs: every one installs a
/// [`DefenseStack::build_controller`] controller during setup.
pub(crate) fn controller(sim: &Simulator) -> &SdnController {
    // tm-lint: allow(unwrap-in-lib) -- every scenario in this crate installs SdnController itself during setup; a missing controller is a bug in the scenario, not its input
    sim.controller_as().expect("controller")
}

impl fmt::Display for DefenseStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefenseStack::None => "none",
            DefenseStack::TopoGuard => "TopoGuard",
            DefenseStack::Sphinx => "SPHINX",
            DefenseStack::TopoGuardSphinx => "TopoGuard+SPHINX",
            DefenseStack::TopoGuardPlus => "TOPOGUARD+",
            DefenseStack::TopoGuardPlusBinding => "TOPOGUARD+ & binding",
        };
        f.write_str(s)
    }
}
