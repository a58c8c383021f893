//! Ablations over the design parameters the paper fixes by fiat:
//!
//! * the LLI's IQR fence multiplier `k` (paper: 3) — trade-off between
//!   catching 10 ms-relay fake links and false-flagging micro-bursts;
//! * the attacker's probe timeout (paper: 35 ms from the 1 % FP quantile)
//!   — trade-off between hijack reaction time and false starts;
//! * the attacker's amnesia hold time (paper: ≥ 16 ms from IEEE 802.3) —
//!   holds below the pulse window minimum never reset the profile and the
//!   attack reverts to the naive relay TopoGuard catches.

use controller::{AlertKind, SdnController};
use netsim::Simulator;
use sdn_types::Duration;
use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, LinkFabScenario, RelayMode};
use tm_core::DefenseStack;

use crate::figures::{lli_series, recorded_topoguard_plus};

/// LLI fence sweep: run the Fig. 9 testbed (no attack, micro-bursty links)
/// and a stealthy OOB attack, for several `k` values; report false flags on
/// real links and detections of the fake link.
pub fn lli_fence_sweep(seed: u64) -> String {
    let mut out =
        String::from("ABLATION: LLI outlier fence (threshold = Q3 + k*IQR; paper uses k = 3)\n\n");
    out.push_str(&format!(
        "{:>6} {:>22} {:>22}\n",
        "k", "benign false flags", "fake-link detections"
    ));
    for k in [1.0, 1.5, 3.0, 6.0, 12.0] {
        // Isolated: a panicking k point becomes a FAILED row, not a crash.
        match tm_campaign::isolate(|| (run_lli(seed, k, false), run_lli(seed, k, true))) {
            Ok((benign, attack)) => {
                out.push_str(&format!("{k:>6} {benign:>22} {attack:>22}\n"));
            }
            Err(cause) => out.push_str(&format!("{k:>6} FAILED({cause})\n")),
        }
    }
    out.push_str(
        "\n(small k false-positives on micro-bursts — the §VIII-A hazard; every k up to 12\n catches the 10 ms relay, and k >= 1.5 leaves one benign flag)\n",
    );
    out
}

fn run_lli(seed: u64, k: f64, with_attack: bool) -> u64 {
    // The benign run is the attack's twin: the same testbed, colluders idle.
    let scenario = LinkFabScenario {
        mode: with_attack.then_some(RelayMode::OutOfBandStealthy),
        run_for: Duration::from_secs(180),
        benign_traffic: false,
        ..LinkFabScenario::paper_eval(RelayMode::OutOfBandStealthy, DefenseStack::None, seed)
    };
    let (mut spec, ep, _) = linkfab::setup(&scenario);
    // TOPOGUARD+ with this run's k.
    spec.set_controller(Box::new(recorded_topoguard_plus(k)));
    let mut sim = Simulator::new(spec, seed);
    sim.run_for(scenario.run_for);
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    if with_attack {
        // Count only flags on the fake link.
        lli_series(ctrl)
            .iter()
            .filter(|o| o.flagged && (o.link.src == ep.port_a || o.link.src == ep.port_b))
            .count() as u64
    } else {
        ctrl.alerts().count(AlertKind::AbnormalLinkLatency) as u64
    }
}

/// Amnesia hold-time sweep: how long must the attacker hold its interface
/// down for the profile reset to occur? (IEEE 802.3 pulse window is
/// 16 ± 8 ms; the simulator samples detection in [8 ms, 24 ms).)
pub fn amnesia_hold_sweep(seed: u64) -> String {
    let mut out = String::from(
        "ABLATION: Port Amnesia hold time vs the 802.3 link-pulse window (16 +/- 8 ms)\n\n",
    );
    out.push_str(&format!(
        "{:>12} {:>14} {:>18} {:>16}\n",
        "hold (ms)", "link forged", "TopoGuard alerts", "expected"
    ));
    for (hold_ms, expected) in [
        (4u64, "too short: no reset, caught"),
        (8, "window minimum: no reset, caught"),
        (16, "race: usually resets"),
        (25, "always resets, bypass"),
        (40, "always resets, bypass"),
    ] {
        match tm_campaign::isolate(|| run_amnesia_hold(seed, hold_ms)) {
            Ok((forged, alerts)) => out.push_str(&format!(
                "{hold_ms:>12} {forged:>14} {alerts:>18} {expected:>16}\n"
            )),
            Err(cause) => out.push_str(&format!("{hold_ms:>12} FAILED({cause})\n")),
        }
    }
    out
}

fn run_amnesia_hold(seed: u64, hold_ms: u64) -> (bool, usize) {
    // Relay from 5 s, as Fig. 1 does: the warmup ARP at 1 s must profile
    // the ports HOST first, or the bounce has no profile to reset.
    let scenario = LinkFabScenario {
        hold_down: Duration::from_millis(hold_ms),
        benign_traffic: false,
        ..LinkFabScenario::new(RelayMode::OutOfBand, DefenseStack::TopoGuard, seed)
    };
    let (spec, ep, _) = linkfab::setup(&scenario);
    let mut sim = Simulator::new(spec, seed);
    sim.run_for(scenario.run_for);
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let forged = ctrl
        .topology()
        .contains(&controller::DirectedLink::new(ep.port_a, ep.port_b))
        || ctrl
            .topology()
            .contains(&controller::DirectedLink::new(ep.port_b, ep.port_a));
    let alerts = ctrl.alerts().count(AlertKind::LinkFabrication);
    (forged, alerts)
}

/// Probe-timeout sweep: hijack reaction time and false-start rate as the
/// timeout shrinks below / grows above the RTT quantile (§V-B1).
pub fn probe_timeout_sweep(base_seed: u64) -> String {
    let mut out = String::from(
        "ABLATION: probe timeout vs reaction time and false starts (RTT ~ 22 +/- 2 ms)\n\n",
    );
    out.push_str(&format!(
        "{:>14} {:>14} {:>16} {:>18}\n",
        "timeout (ms)", "trials", "false starts", "mean react (ms)"
    ));
    for timeout_ms in [20u64, 26, 35, 50, 80] {
        let trials = 30;
        let row = tm_campaign::isolate(|| {
            let mut false_starts = 0;
            let mut reactions = Vec::new();
            for i in 0..trials {
                let out = hijack::run(&HijackScenario {
                    probe_timeout: Duration::from_millis(timeout_ms),
                    downtime: Duration::from_secs(1),
                    tail: Duration::ZERO,
                    victim_rejoins: false,
                    ..HijackScenario::new(
                        DefenseStack::None,
                        base_seed.wrapping_add(timeout_ms * 1000 + i),
                    )
                });
                // A false start: the attacker believed the victim gone
                // before it went.
                match out.timeline.believed_down_at {
                    Some(at) if at <= out.victim_down_at => false_starts += 1,
                    Some(_) => reactions.extend(out.detect_delay_ms()),
                    None => {}
                }
            }
            // `-` when every trial false-started: no reaction to average.
            let mean = match reactions.len() {
                0 => "-".to_string(),
                n => format!("{:.1}", reactions.iter().sum::<f64>() / n as f64),
            };
            (false_starts, mean)
        });
        match row {
            Ok((false_starts, mean)) => out.push_str(&format!(
                "{timeout_ms:>14} {trials:>14} {false_starts:>16} {mean:>18}\n"
            )),
            Err(cause) => out.push_str(&format!("{timeout_ms:>14} FAILED({cause})\n")),
        }
    }
    out.push_str(
        "\n(timeouts at or under the RTT mean false-start constantly; the quantile-derived\n 35 ms reacts within ~60-70 ms with zero false starts — the paper's §V-B1 trade)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amnesia_hold_below_the_pulse_window_is_caught_and_above_it_bypasses() {
        let seed = 0xD5_2018;
        let (forged, alerts) = run_amnesia_hold(seed, 4);
        assert!(
            !forged && alerts > 0,
            "4 ms hold: forged {forged}, {alerts} alerts"
        );
        let (forged, alerts) = run_amnesia_hold(seed, 40);
        assert!(
            forged && alerts == 0,
            "40 ms hold: forged {forged}, {alerts} alerts"
        );
    }
}
