//! The headline attack × defense detection matrix (§V, §VII).
//!
//! Expected shape (the paper's result):
//!
//! | Attack              | none | TopoGuard | SPHINX | TG+SPHINX | TOPOGUARD+ |
//! |---------------------|------|-----------|--------|-----------|------------|
//! | naive LLDP relay    | ✔    | ✘ caught  | ✔      | ✘ caught  | ✘ caught   |
//! | OOB Port Amnesia    | ✔    | ✔ bypass  | ✔      | ✔ bypass  | ✘ caught   |
//! | in-band Port Amnesia| ✔    | ✔ bypass  | ✔      | ✔ bypass  | ✘ caught   |
//! | Port Probing hijack | ✔    | ✔ bypass  | ✔      | ✔ bypass  | ✔ bypass   |
//!
//! (Port Probing is out of TOPOGUARD+'s scope; the paper defers to secure
//! identifier binding, §VI-A.)
//!
//! [`run_cell`] is the one definition of a cell — what it runs and what
//! "succeeded" and "detected" mean. [`run_matrix`] and the `fabric-matrix`
//! campaign both go through it.

use tm_topo::TopoKind;

use crate::defense::DefenseStack;
use crate::hijack::{self, HijackOutcome, HijackScenario};
use crate::linkfab::{self, LinkFabOutcome, LinkFabScenario, RelayMode};
use crate::robustness::FaultProfile;

/// One matrix row: a link-fabrication relay or the Port Probing hijack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attack {
    /// Link fabrication (§IV-A) by the given relay variant.
    Relay(RelayMode),
    /// Port Probing host-location hijack (§IV-B).
    PortProbingHijack,
}

impl Attack {
    /// Every attack a cell can run, in label-table order.
    pub const ALL: [Attack; 5] = [
        Attack::Relay(RelayMode::NaiveNoAmnesia),
        Attack::Relay(RelayMode::OutOfBand),
        Attack::Relay(RelayMode::OutOfBandStealthy),
        Attack::Relay(RelayMode::InBand),
        Attack::PortProbingHijack,
    ];

    /// The paper's four matrix rows.
    pub const PAPER: [Attack; 4] = [
        Attack::Relay(RelayMode::NaiveNoAmnesia),
        Attack::Relay(RelayMode::OutOfBand),
        Attack::Relay(RelayMode::InBand),
        Attack::PortProbingHijack,
    ];

    /// The attack's label on campaign axes, the command line and in
    /// reports; a relay's is its [`RelayMode::name`].
    pub fn label(self) -> &'static str {
        match self {
            Attack::Relay(mode) => mode.name(),
            Attack::PortProbingHijack => "port-probing-hijack",
        }
    }

    /// The attack in [`Attack::ALL`] whose [`label`](Attack::label) is
    /// `label`.
    pub fn from_label(label: &str) -> Option<Attack> {
        Attack::ALL.into_iter().find(|a| a.label() == label)
    }
}

/// What one cell observed: the relay's or the hijack's full outcome.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// A link-fabrication run.
    Relay(LinkFabOutcome),
    /// A Port Probing run, measured over the stealth window (the victim
    /// never rejoins).
    Hijack(HijackOutcome),
}

impl CellOutcome {
    /// Did the attack achieve its goal (fake link committed / identity
    /// bound to the attacker)?
    pub fn succeeded(&self) -> bool {
        match self {
            CellOutcome::Relay(o) => o.link_established,
            CellOutcome::Hijack(o) => o.hijack_succeeded(),
        }
    }

    /// Did a defense alert fire during the attack window?
    pub fn detected(&self) -> bool {
        match self {
            CellOutcome::Relay(o) => o.detected(),
            CellOutcome::Hijack(o) => o.alerts_before_rejoin > 0,
        }
    }

    /// Total alerts observed.
    pub fn alerts(&self) -> usize {
        match self {
            CellOutcome::Relay(o) => o.alerts_total,
            CellOutcome::Hijack(o) => o.alerts_total,
        }
    }
}

/// Runs one cell: `attack` against `stack` under `faults`.
///
/// `fabric: None` is the paper's evaluation setting (§VII): relays on the
/// Fig. 9 testbed, attacking one minute after bootstrap so defense
/// baselines have formed, and the hijack on its two-switch testbed. A
/// generated fabric runs the same attacks with actor placement drawn from
/// the spec's forked attacker stream, which answers whether a verdict is
/// a property of the defense or of the demonstration topology.
pub fn run_cell(
    attack: Attack,
    stack: DefenseStack,
    fabric: Option<TopoKind>,
    faults: FaultProfile,
    seed: u64,
) -> CellOutcome {
    match attack {
        Attack::Relay(mode) => {
            let base = match fabric {
                None => LinkFabScenario::paper_eval(mode, stack, seed),
                Some(kind) => LinkFabScenario::on_fabric(mode, kind, stack, seed),
            };
            CellOutcome::Relay(linkfab::run(&LinkFabScenario { faults, ..base }))
        }
        Attack::PortProbingHijack => {
            let base = match fabric {
                None => HijackScenario::new(stack, seed),
                Some(kind) => HijackScenario::on_fabric(kind, stack, seed),
            };
            CellOutcome::Hijack(hijack::run(&HijackScenario {
                victim_rejoins: false, // measure the stealth window itself
                faults,
                ..base
            }))
        }
    }
}

/// One matrix cell.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixEntry {
    /// The attack (matrix row).
    pub attack: Attack,
    /// The defense stack (matrix column).
    pub defense: DefenseStack,
    /// [`CellOutcome::succeeded`].
    pub succeeded: bool,
    /// [`CellOutcome::detected`].
    pub detected: bool,
    /// [`CellOutcome::alerts`].
    pub alerts: usize,
    /// The cell's panic message, when its scenario crashed instead of
    /// completing. A failed cell reports `FAILED(<cause>)` and the matrix
    /// run continues — one bad cell must not take down the whole driver.
    pub failure: Option<String>,
}

impl MatrixEntry {
    /// The entry for one isolated cell; a panicked cell's outcome fields
    /// are zeroed.
    pub fn new(
        attack: Attack,
        defense: DefenseStack,
        cell: Result<CellOutcome, String>,
    ) -> MatrixEntry {
        let (succeeded, detected, alerts, failure) = match cell {
            Ok(outcome) => (
                outcome.succeeded(),
                outcome.detected(),
                outcome.alerts(),
                None,
            ),
            Err(cause) => (false, false, 0, Some(cause)),
        };
        MatrixEntry {
            attack,
            defense,
            succeeded,
            detected,
            alerts,
            failure,
        }
    }
}

/// Runs the paper's four attacks against each of `stacks` on the paper
/// testbeds, every scenario degraded by `faults` ([`FaultProfile::Clean`]
/// for the headline matrix). The stack at position `i` runs its cells
/// with seed `base_seed + i·1009`. Each cell is isolated: a panicking
/// scenario becomes a `FAILED` entry.
pub fn run_matrix(
    stacks: &[DefenseStack],
    faults: FaultProfile,
    base_seed: u64,
) -> Vec<MatrixEntry> {
    let mut entries = Vec::new();
    for (i, stack) in stacks.iter().copied().enumerate() {
        let seed = base_seed.wrapping_add(i as u64 * 1009);
        for attack in Attack::PAPER {
            let cell = tm_campaign::isolate(|| run_cell(attack, stack, None, faults, seed));
            entries.push(MatrixEntry::new(attack, stack, cell));
        }
    }
    entries
}

/// Renders the matrix as an aligned text table.
pub fn render(entries: &[MatrixEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<18} {:<10} {:<10} {:<7}\n",
        "attack", "defense", "succeeded", "detected", "alerts"
    ));
    for e in entries {
        let (attack, defense) = (e.attack.label(), e.defense.to_string());
        if let Some(cause) = &e.failure {
            out.push_str(&format!("{attack:<22} {defense:<18} FAILED({cause})\n"));
        } else {
            out.push_str(&format!(
                "{:<22} {:<18} {:<10} {:<10} {:<7}\n",
                attack, defense, e.succeeded, e.detected, e.alerts
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_failed_cells_without_outcome_columns() {
        let entries = vec![
            MatrixEntry {
                attack: Attack::Relay(RelayMode::OutOfBand),
                defense: DefenseStack::TopoGuard,
                succeeded: true,
                detected: false,
                alerts: 0,
                failure: None,
            },
            MatrixEntry::new(
                Attack::Relay(RelayMode::InBand),
                DefenseStack::TopoGuard,
                Err("deliberate failure".to_string()),
            ),
        ];
        let text = render(&entries);
        assert!(text.contains("true       false      0"), "{text}");
        assert!(
            text.contains("in-band                TopoGuard          FAILED(deliberate failure)"),
            "{text}"
        );
    }

    #[test]
    fn a_panicking_cell_does_not_abort_the_matrix() {
        // Drive the isolation path directly: the scenario closure panics,
        // the entry records the cause.
        let cell = tm_campaign::isolate(|| -> CellOutcome { panic!("cell exploded") });
        let entry = MatrixEntry::new(Attack::PortProbingHijack, DefenseStack::None, cell);
        assert_eq!(entry.failure.as_deref(), Some("cell exploded"));
        assert!(!entry.succeeded && !entry.detected && entry.alerts == 0);
    }

    #[test]
    fn labels_round_trip_and_are_unique() {
        let attacks = Attack::ALL.map(Attack::label);
        let stacks = DefenseStack::ALL_EXTENDED.map(DefenseStack::label);
        for attack in Attack::ALL {
            assert_eq!(Attack::from_label(attack.label()), Some(attack));
        }
        for stack in DefenseStack::ALL_EXTENDED {
            assert_eq!(DefenseStack::from_label(stack.label()), Some(stack));
        }
        for labels in [&attacks[..], &stacks[..]] {
            for (i, label) in labels.iter().enumerate() {
                assert!(!labels[..i].contains(label), "duplicate label {label}");
            }
        }
        assert!(Attack::PAPER.iter().all(|a| Attack::ALL.contains(a)));
        assert_eq!(Attack::from_label("ddos"), None);
        assert_eq!(DefenseStack::from_label("kitchen-sink"), None);
        assert_eq!(
            DefenseStack::from_label("TopoGuard"),
            None,
            "Display is not a label"
        );
    }

    #[test]
    fn extended_matrix_extends_the_paper_matrix_by_stack_position() {
        // Seeds derive from a stack's position, so the extended run's first
        // 20 cells are the paper matrix, and the binding row comes last.
        let paper = run_matrix(&DefenseStack::ALL, FaultProfile::Clean, 7);
        let extended = run_matrix(&DefenseStack::ALL_EXTENDED, FaultProfile::Clean, 7);
        assert_eq!(paper.len(), 20);
        assert_eq!(extended.len(), 24);
        assert_eq!(extended[..20], paper[..]);
        let binding_hijack = &extended[23];
        assert_eq!(binding_hijack.attack, Attack::PortProbingHijack);
        assert_eq!(binding_hijack.defense, DefenseStack::TopoGuardPlusBinding);
        assert!(binding_hijack.failure.is_none(), "{binding_hijack:?}");
        assert!(!binding_hijack.succeeded && binding_hijack.detected);
    }
}
