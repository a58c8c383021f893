//! Attack scenarios on generated fabrics: the paper's scenarios must run
//! unchanged on loopy topologies (fat-tree, ring) without broadcast storms,
//! and produce the same verdicts the hand-built testbeds do for the
//! undefended stack.

use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, LinkFabScenario, RelayMode};
use tm_core::DefenseStack;
use tm_topo::TopoKind;

#[test]
fn hijack_lands_on_a_fat_tree() {
    // Fat-tree k=4: 20 switches, 16 hosts, plenty of physical cycles. The
    // hijack mechanics (probe timeout -> identity theft -> controller
    // rebind) must work exactly as on the two-switch testbed.
    let out = hijack::run(&HijackScenario::on_fabric(
        TopoKind::FatTree { k: 4 },
        DefenseStack::None,
        3,
    ));
    assert!(out.hijack_succeeded(), "{:?}", out.controller_ack_at);
    assert!(out.undetected_before_rejoin());
    // The client's pings were captured by the attacker during the window.
    assert!(out.client_pings_during_hijack > 0);
}

#[test]
fn hijack_on_a_ring_is_deterministic() {
    let scenario = HijackScenario::on_fabric(
        TopoKind::Ring {
            switches: 4,
            hosts_per_switch: 2,
        },
        DefenseStack::TopoGuardPlus,
        7,
    );
    let a = hijack::run(&scenario);
    let b = hijack::run(&scenario);
    assert!(a.hijack_succeeded());
    assert_eq!(a.trace, b.trace, "same scenario, same seed, same trace");
    assert_eq!(a.metrics.render(), b.metrics.render());
}

#[test]
fn fat_tree_8_hijack_verdict_has_no_lli_false_positives() {
    // Regression for the EXPERIMENTS.md "verdict flip at 80 switches":
    // with a single global LLI latency store, the fat-tree-8 TOPOGUARD+
    // hijack cell read detected = 0.40 ± 0.68 — LLI false positives on
    // the 512-trunk fabric's pooled jitter, not the defense catching the
    // attack. These are the exact two campaign seeds (stream_seed of the
    // default experiment seed, k = 1 and k = 4) that flipped before the
    // per-trunk-baseline fix; the paper's verdict (Port Probing is
    // invisible to TOPOGUARD+) must now hold without alert-kind caveats.
    for k in [1_u64, 4] {
        let seed = tm_rand::stream_seed(0xD5_2018, k);
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false, // the campaign cell measures the stealth window
            ..HijackScenario::on_fabric(
                TopoKind::FatTree { k: 8 },
                DefenseStack::TopoGuardPlus,
                seed,
            )
        });
        assert!(out.hijack_succeeded(), "k={k}: the hijack itself must land");
        assert_eq!(
            out.metrics.counter("topoguard.lli.detections"),
            None,
            "k={k}: per-trunk baselines must not flag honest trunks"
        );
        assert!(
            out.undetected_before_rejoin(),
            "k={k}: detected must read 0, got {} pre-rejoin alerts",
            out.alerts_before_rejoin
        );
    }
}

#[test]
fn oob_relay_fabricates_a_link_across_a_ring() {
    // Undefended controller on a 4-switch ring: the colluders' relayed
    // LLDP commits a fabricated link between their (host) ports.
    let out = linkfab::run(&LinkFabScenario::on_fabric(
        RelayMode::OutOfBand,
        TopoKind::Ring {
            switches: 4,
            hosts_per_switch: 2,
        },
        DefenseStack::None,
        5,
    ));
    assert!(out.link_established, "alerts={}", out.alerts_total);
    // Benign traffic survived the run: no broadcast storm ate the fabric.
    assert!(out.benign_pings_ok > 0);
}

#[test]
fn hijack_verdict_survives_background_load() {
    // The tentpole wiring: the same hijack, but the fabric carries
    // flow-level background traffic for the whole run. The load must be
    // visible (traffic counters advance, the controller fields its
    // Packet-Ins) without perturbing the paper's verdict — and the loaded
    // run stays a pure function of (scenario, seed).
    let scenario = HijackScenario {
        victim_rejoins: false,
        traffic: Some(tm_core::TrafficLoad::steady(64, 0.5)),
        ..HijackScenario::on_fabric(TopoKind::FatTree { k: 4 }, DefenseStack::TopoGuardPlus, 3)
    };
    let a = hijack::run(&scenario);
    assert!(a.hijack_succeeded(), "load must not break the hijack");
    assert!(
        a.undetected_before_rejoin(),
        "verdict must not flip under load: {} pre-rejoin alerts",
        a.alerts_before_rejoin
    );
    let flows = a.metrics.counter("traffic.flows_offered").unwrap_or(0);
    assert!(flows > 50, "background load must actually flow: {flows}");
    let b = hijack::run(&scenario);
    assert_eq!(a.trace, b.trace, "loaded run must stay deterministic");
    assert_eq!(a.metrics.render(), b.metrics.render());
}

#[test]
fn naive_relay_is_still_caught_under_background_load() {
    // TopoGuard's LLDP-integrity check must keep catching the naive relay
    // while the controller is busy with the load's Packet-In stream.
    let loaded = LinkFabScenario {
        traffic: Some(tm_core::TrafficLoad::bursty(64, 1.0)),
        ..LinkFabScenario::on_fabric(
            RelayMode::NaiveNoAmnesia,
            TopoKind::FatTree { k: 4 },
            DefenseStack::TopoGuard,
            5,
        )
    };
    let out = linkfab::run(&loaded);
    assert!(!out.link_established, "naive relay must stay blocked");
    assert!(out.detected(), "alerts={}", out.alerts_total);
    let flows = out.metrics.counter("traffic.flows_offered").unwrap_or(0);
    assert!(flows > 50, "background load must actually flow: {flows}");
}

#[test]
fn unloaded_scenario_is_byte_identical_to_traffic_none() {
    // `traffic: None` must leave the event trace identical to
    // a scenario built before the traffic field existed (struct-update
    // from the constructors, which default to None).
    let base =
        HijackScenario::on_fabric(TopoKind::FatTree { k: 4 }, DefenseStack::TopoGuardPlus, 9);
    let explicit = HijackScenario {
        traffic: None,
        ..base
    };
    let a = hijack::run(&base);
    let b = hijack::run(&explicit);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.metrics.render(), b.metrics.render());
    assert_eq!(
        a.metrics.counter("traffic.flows_offered"),
        None,
        "no plan, no traffic counters"
    );
}
