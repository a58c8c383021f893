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

use tm_topo::TopoKind;

use crate::defense::DefenseStack;
use crate::hijack::{self, HijackScenario};
use crate::linkfab::{self, LinkFabScenario, RelayMode};
use crate::robustness::FaultProfile;

/// One matrix cell.
#[derive(Clone, Debug)]
pub struct MatrixEntry {
    /// The attack's name.
    pub attack: &'static str,
    /// The defense stack's name.
    pub defense: String,
    /// Did the attack achieve its goal (fake link committed / identity
    /// bound to the attacker)?
    pub succeeded: bool,
    /// Did any defense alert fire during the attack window?
    pub detected: bool,
    /// Total alerts observed.
    pub alerts: usize,
    /// The cell's panic message, when its scenario crashed instead of
    /// completing. A failed cell reports `FAILED(<cause>)` and the matrix
    /// run continues — one bad cell must not take down the whole driver.
    pub failure: Option<String>,
}

impl MatrixEntry {
    /// A cell whose scenario panicked; outcome fields are zeroed.
    fn failed(attack: &'static str, defense: String, cause: String) -> MatrixEntry {
        MatrixEntry {
            attack,
            defense,
            succeeded: false,
            detected: false,
            alerts: 0,
            failure: Some(cause),
        }
    }
}

/// Runs the paper's matrix (5 stacks) with the given base seed. Each
/// (attack, defense) cell runs one scenario; seeds are derived
/// deterministically.
pub fn run_matrix(base_seed: u64) -> Vec<MatrixEntry> {
    run_matrix_with(&DefenseStack::ALL, base_seed)
}

/// Runs the matrix including the identifier-binding extension row.
pub fn run_matrix_extended(base_seed: u64) -> Vec<MatrixEntry> {
    run_matrix_with(&DefenseStack::ALL_EXTENDED, base_seed)
}

/// Runs the matrix over an explicit stack list (on a clean network).
pub fn run_matrix_with(stacks: &[DefenseStack], base_seed: u64) -> Vec<MatrixEntry> {
    run_matrix_impl(stacks, base_seed, FaultProfile::Clean, None)
}

/// Runs the matrix on a generated fabric instead of the paper testbeds:
/// the same attacks and defenses, with actor placement drawn from the
/// spec's forked attacker stream. Comparing this against [`run_matrix`]
/// answers whether a verdict is a property of the defense or of the
/// two-switch demonstration topology.
pub fn run_matrix_on(kind: TopoKind, stacks: &[DefenseStack], base_seed: u64) -> Vec<MatrixEntry> {
    run_matrix_impl(stacks, base_seed, FaultProfile::Clean, Some(kind))
}

/// Re-runs the full matrix (5 stacks) with every scenario degraded by
/// `profile` — does detection survive a network that is lossy, jittery, or
/// congested? `experiments fault_matrix` sweeps this over
/// [`FaultProfile::MATRIX_SWEEP`].
pub fn run_matrix_under(profile: FaultProfile, base_seed: u64) -> Vec<MatrixEntry> {
    run_matrix_impl(&DefenseStack::ALL, base_seed, profile, None)
}

fn run_matrix_impl(
    stacks: &[DefenseStack],
    base_seed: u64,
    faults: FaultProfile,
    fabric: Option<TopoKind>,
) -> Vec<MatrixEntry> {
    let mut entries = Vec::new();
    for (i, stack) in stacks.iter().copied().enumerate() {
        let seed = base_seed.wrapping_add(i as u64 * 1009);

        for mode in [
            RelayMode::NaiveNoAmnesia,
            RelayMode::OutOfBand,
            RelayMode::InBand,
        ] {
            // The evaluation setting (§VII): Fig. 9 testbed (or the given
            // fabric), attack one minute after bootstrap so defense
            // baselines have formed. Isolated: a panicking cell becomes a
            // FAILED entry.
            match tm_campaign::isolate(|| {
                let base = match fabric {
                    None => LinkFabScenario::paper_eval(mode, stack, seed),
                    Some(kind) => LinkFabScenario::on_fabric(mode, kind, stack, seed),
                };
                linkfab::run(&LinkFabScenario { faults, ..base })
            }) {
                Ok(outcome) => entries.push(MatrixEntry {
                    attack: mode.name(),
                    defense: stack.to_string(),
                    succeeded: outcome.link_established,
                    detected: outcome.detected(),
                    alerts: outcome.alerts_total,
                    failure: None,
                }),
                Err(cause) => {
                    entries.push(MatrixEntry::failed(mode.name(), stack.to_string(), cause))
                }
            }
        }

        match tm_campaign::isolate(|| {
            let base = match fabric {
                None => HijackScenario::new(stack, seed),
                Some(kind) => HijackScenario::on_fabric(kind, stack, seed),
            };
            hijack::run(&HijackScenario {
                victim_rejoins: false, // measure the stealth window itself
                faults,
                ..base
            })
        }) {
            Ok(outcome) => entries.push(MatrixEntry {
                attack: "port-probing-hijack",
                defense: stack.to_string(),
                succeeded: outcome.hijack_succeeded(),
                detected: outcome.alerts_before_rejoin > 0,
                alerts: outcome.alerts_total,
                failure: None,
            }),
            Err(cause) => {
                entries.push(MatrixEntry::failed(
                    "port-probing-hijack",
                    stack.to_string(),
                    cause,
                ));
            }
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
        if let Some(cause) = &e.failure {
            out.push_str(&format!(
                "{:<22} {:<18} FAILED({cause})\n",
                e.attack, e.defense
            ));
        } else {
            out.push_str(&format!(
                "{:<22} {:<18} {:<10} {:<10} {:<7}\n",
                e.attack, e.defense, e.succeeded, e.detected, e.alerts
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
                attack: "oob-amnesia",
                defense: "TopoGuard".to_string(),
                succeeded: true,
                detected: false,
                alerts: 0,
                failure: None,
            },
            MatrixEntry::failed(
                "in-band",
                "TopoGuard".to_string(),
                "deliberate failure".to_string(),
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
        let entry = match tm_campaign::isolate(|| -> bool { panic!("cell exploded") }) {
            Ok(_) => unreachable!("closure panics"),
            Err(cause) => MatrixEntry::failed("test-attack", "none".to_string(), cause),
        };
        assert_eq!(entry.failure.as_deref(), Some("cell exploded"));
        assert!(!entry.succeeded && !entry.detected && entry.alerts == 0);
    }
}
