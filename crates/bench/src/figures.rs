//! Figure reproductions: the Port Probing timing distributions (Figs. 4–8)
//! and the TOPOGUARD+ evaluation series (Figs. 10–13).

use attacks::IdentChangeModel;
use controller::{AlertKind, ControllerConfig, SdnController};
use netsim::Simulator;
use sdn_types::Duration;
use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, LinkFabScenario, RelayMode};
use tm_core::testbed;
use tm_core::DefenseStack;
use tm_rand::StdRng;
use tm_stats::Histogram;
use topoguard::Lli;

/// Fig. 4: distribution of the time taken to change network identifiers
/// with `ifconfig` (paper: mean 9.94 ms, heavy tail to ~160 ms).
pub fn fig4(seed: u64, trials: usize) -> String {
    let model = IdentChangeModel::paper_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = Histogram::new(0.0, 60.0, 24);
    for _ in 0..trials {
        hist.record(model.sample_ident_change(&mut rng).as_millis_f64());
    }
    let mut out = format!(
        "FIG 4: identifier change (ifconfig) duration, {trials} trials (paper: mean 9.94 ms, tail to ~160 ms)\n\n"
    );
    out.push_str(&hist.render("ms", 50));
    out
}

/// The four Port Probing timing distributions from one batch of hijack
/// trials (Figs. 5–8), plus the paper's reference means.
pub struct HijackDistributions {
    /// Fig. 7: victim down → final probe start (ms; signed).
    pub final_probe_start: Vec<f64>,
    /// Fig. 8: victim down → probe timeout (attacker knows), ms.
    pub believed_down: Vec<f64>,
    /// Fig. 4 (live): the sampled ifconfig duration in each trial, ms.
    pub ident_change: Vec<f64>,
    /// Fig. 5: victim down → attacker interface up as victim, ms.
    pub iface_up: Vec<f64>,
    /// Fig. 6: victim down → controller acknowledges the attacker, ms.
    pub controller_ack: Vec<f64>,
    /// Trials where the hijack landed.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
}

/// Runs `trials` hijack scenarios (distinct seeds) and collects the timing
/// distributions behind Figs. 5–8.
pub fn run_hijack_trials(
    base_seed: u64,
    trials: usize,
    stack: DefenseStack,
) -> HijackDistributions {
    let mut d = HijackDistributions {
        final_probe_start: Vec::new(),
        believed_down: Vec::new(),
        ident_change: Vec::new(),
        iface_up: Vec::new(),
        controller_ack: Vec::new(),
        successes: 0,
        trials,
    };
    for i in 0..trials {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            tail: Duration::from_millis(500),
            ..HijackScenario::new(stack, base_seed.wrapping_add(i as u64))
        });
        if let Some(ms) = out.final_probe_start_delay_ms() {
            d.final_probe_start.push(ms);
        }
        if let Some(ms) = out.detect_delay_ms() {
            d.believed_down.push(ms);
        }
        if let Some(dur) = out.timeline.ident_change_duration {
            d.ident_change.push(dur.as_millis_f64());
        }
        if let Some(ms) = out.iface_up_delay_ms() {
            d.iface_up.push(ms);
        }
        if let Some(ms) = out.controller_ack_delay_ms() {
            d.controller_ack.push(ms);
        }
        if out.hijack_succeeded() {
            d.successes += 1;
        }
    }
    d
}

/// Renders Figs. 5–8 from a trial batch.
pub fn figs5_to_8(base_seed: u64, trials: usize) -> String {
    let d = run_hijack_trials(base_seed, trials, DefenseStack::TopoGuardSphinx);
    let mut out = format!(
        "Port Probing timing distributions ({} trials vs TopoGuard+SPHINX, {}/{} hijacks landed)\n",
        trials, d.successes, d.trials
    );

    let render = |title: &str, paper: &str, samples: &[f64], low: f64, high: f64| {
        let mut hist = Histogram::new(low, high, 20);
        hist.record_all(samples);
        format!("\n{title}\n  (paper: {paper})\n{}", hist.render("ms", 40))
    };

    out.push_str(&render(
        "FIG 7: victim down -> start of final (timed-out) probe",
        "begins within ~0.5 ms of the victim going offline on average",
        &d.final_probe_start,
        0.0,
        60.0,
    ));
    out.push_str(&render(
        "FIG 8: victim down -> probe timeout (attacker believes victim down)",
        "attacker realizes ~12 ms after the event on average",
        &d.believed_down,
        30.0,
        100.0,
    ));
    out.push_str(&render(
        "FIG 4 (in-attack): ifconfig identifier change duration",
        "mean 9.94 ms, heavy-tailed",
        &d.ident_change,
        0.0,
        60.0,
    ));
    out.push_str(&render(
        "FIG 5: victim down -> attacker interface up as the victim",
        "mean ~478 ms (dominated by waiting out the probe timeout)",
        &d.iface_up,
        30.0,
        160.0,
    ));
    out.push_str(&render(
        "FIG 6: victim down -> controller acknowledges attacker as victim",
        "mean ~549 ms; virtually instantaneous vs seconds-scale migration windows",
        &d.controller_ack,
        30.0,
        160.0,
    ));
    out.push_str(
        "\nshape notes: our probe loop detects the victim one timeout (35 ms) after the\n\
         first unanswered probe, i.e. tens of milliseconds after the down event, and the\n\
         whole hijack completes in well under a second — leaving nearly the entire\n\
         seconds-scale VM-migration window for impersonation, the paper's conclusion.\n",
    );
    out
}

/// Fig. 10: switch-link latencies measured by the LLI on the Fig. 9
/// testbed (paper: ~5 ms averages with micro-bursts toward 12 ms).
pub fn fig10(seed: u64, samples: usize) -> String {
    let (spec, _ids) = testbed::fig9_spec(DefenseStack::TopoGuardPlus, ControllerConfig::default());
    let mut sim = Simulator::new(spec, seed);
    // 6 directed trunk observations per 15 s round.
    let rounds_needed = samples.div_ceil(6) + 2;
    sim.run_for(Duration::from_secs(15 * rounds_needed as u64));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let lli: &Lli = ctrl.module_as().expect("LLI installed");
    let latencies: Vec<f64> = lli
        .observations
        .iter()
        .take(samples)
        .map(|o| o.latency_ms)
        .collect();
    let mut hist = Histogram::new(0.0, 15.0, 30);
    hist.record_all(&latencies);
    let mut out = format!(
        "FIG 10: switch-internal link latency, first {} LLI measurements\n  (paper: ~5 ms averages, micro-bursts to ~12 ms)\n\n",
        latencies.len()
    );
    out.push_str(&hist.render("ms", 50));
    out
}

/// Fig. 11 + Fig. 13: the LLI threshold trace over a run where a stealthy
/// out-of-band fabricated link appears at t = 60 s, with the resulting
/// alerts.
pub fn fig11(seed: u64) -> String {
    // Reuse the linkfab scenario machinery but keep the simulator so we can
    // extract the LLI series: run a stealthy OOB attack on Fig. 9.
    use attacks::{OobRelayAttacker, RelayConfig};

    let (mut spec, ids) =
        testbed::fig9_spec(DefenseStack::TopoGuardPlus, ControllerConfig::default());
    let mk = |peer| RelayConfig {
        start_after: Duration::from_secs(60),
        ..RelayConfig::oob_stealthy(peer)
    };
    spec.set_host_app(
        ids.attacker_a,
        Box::new(OobRelayAttacker::new(mk(ids.attacker_b))),
    );
    spec.set_host_app(
        ids.attacker_b,
        Box::new(OobRelayAttacker::new(mk(ids.attacker_a))),
    );
    let mut sim = Simulator::new(spec, seed);
    sim.run_for(Duration::from_secs(300));

    let ctrl: &SdnController = sim.controller_as().expect("controller");
    let lli: &Lli = ctrl.module_as().expect("LLI installed");

    let mut out = String::from(
        "FIG 11: measured link latencies and the Q3+3*IQR detection threshold over time\n\
         (fake link via 10 ms out-of-band channel appears at t=60 s)\n\n",
    );
    out.push_str(&format!(
        "{:>9} {:>12} {:>12}  {}\n",
        "t (s)", "latency ms", "threshold", "verdict"
    ));
    for obs in &lli.observations {
        out.push_str(&format!(
            "{:>9.1} {:>12.2} {:>12}  {}{}\n",
            obs.at.as_secs_f64(),
            obs.latency_ms,
            obs.threshold_ms
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "warmup".into()),
            if obs.flagged { "FLAGGED" } else { "ok" },
            if obs.flagged {
                format!("  ({} -> {})", obs.link.src, obs.link.dst)
            } else {
                String::new()
            },
        ));
    }
    out.push_str(&format!(
        "\nLLI detections: {}   fake link in topology at end: {}\n",
        lli.detections,
        ctrl.topology()
            .contains(&controller::DirectedLink::new(ids.port_a, ids.port_b))
            || ctrl
                .topology()
                .contains(&controller::DirectedLink::new(ids.port_b, ids.port_a)),
    ));
    out.push_str("\nFIG 13: alerts raised for the anomalous link latency:\n");
    for alert in ctrl
        .alerts()
        .of_kind(AlertKind::AbnormalLinkLatency)
        .take(4)
    {
        out.push_str(&format!("  {alert}\n"));
    }
    out
}

/// Fig. 12: TOPOGUARD+ alerts for anomalous control messages during an
/// in-band Port Amnesia attack.
pub fn fig12(seed: u64) -> String {
    let outcome = linkfab::run(&LinkFabScenario::paper_eval(
        RelayMode::InBand,
        DefenseStack::TopoGuardPlus,
        seed,
    ));
    let mut out =
        String::from("FIG 12: CMM detections of in-band Port Amnesia (context switching)\n\n");
    out.push_str(&format!(
        "  amnesia cycles performed: {}\n  CMM alerts raised:        {}\n  link established:         {}\n",
        outcome.stats_a.amnesia_cycles + outcome.stats_b.amnesia_cycles,
        outcome.cmm_alerts,
        outcome.link_established,
    ));
    out.push_str("\n(alert text mirrors the paper's log excerpt: \"detected suspicious\n link discovery / Port-Down during LLDP propagation\"; see fig12_alerts)\n");
    out
}

/// Returns the raw CMM alert lines for an in-band attack (the Fig. 12 log
/// excerpt itself).
pub fn fig12_alerts(seed: u64) -> Vec<String> {
    use attacks::{InBandRelayAttacker, RelayConfig};
    let (mut spec, ids) =
        testbed::fig9_spec(DefenseStack::TopoGuardPlus, ControllerConfig::default());
    let cfg_a = RelayConfig {
        start_after: Duration::from_secs(60),
        ..RelayConfig::in_band(ids.attacker_b, ids.attacker_b_mac, ids.attacker_b_ip)
    };
    let cfg_b = RelayConfig {
        start_after: Duration::from_secs(60),
        ..RelayConfig::in_band(ids.attacker_a, ids.attacker_a_mac, ids.attacker_a_ip)
    };
    spec.set_host_app(ids.attacker_a, Box::new(InBandRelayAttacker::new(cfg_a)));
    spec.set_host_app(ids.attacker_b, Box::new(InBandRelayAttacker::new(cfg_b)));
    let mut sim = Simulator::new(spec, seed);
    sim.run_for(Duration::from_secs(120));
    let ctrl: &SdnController = sim.controller_as().expect("controller");
    ctrl.alerts()
        .of_kind(AlertKind::AnomalousControlMessage)
        .map(|a| a.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_mean_matches_paper() {
        let d = IdentChangeModel::paper_default();
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..2000)
            .map(|_| d.sample_ident_change(&mut rng).as_millis_f64())
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 9.94).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn hijack_trials_produce_full_distributions() {
        let d = run_hijack_trials(500, 10, DefenseStack::TopoGuardSphinx);
        assert_eq!(d.successes, 10, "all trials should land");
        assert_eq!(d.controller_ack.len(), 10);
        // Ordering invariant per trial batch: detection < iface-up < ack
        // in the means.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&d.believed_down) <= mean(&d.iface_up));
        assert!(mean(&d.iface_up) <= mean(&d.controller_ack));
    }

    #[test]
    fn hijack_trials_wrap_at_the_top_of_the_seed_range() {
        // Seeds u64::MAX and 0: the per-trial seed wraps instead of
        // overflowing, in debug and release builds alike.
        let d = run_hijack_trials(u64::MAX, 2, DefenseStack::None);
        assert_eq!(d.trials, 2);
        assert_eq!(d.successes, 2, "an undefended hijack lands at any seed");
    }

    #[test]
    fn fig12_alert_text_matches_paper_style() {
        let alerts = fig12_alerts(7);
        assert!(!alerts.is_empty());
        assert!(alerts[0].contains("LLDP"), "{}", alerts[0]);
    }
}
