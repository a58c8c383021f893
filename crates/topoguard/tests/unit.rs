//! Direct unit tests of the defense modules, driven through the
//! controller's module-test harness (no simulator involved).

use controller::test_support::ModuleHarness;
use controller::{
    AlertKind, Command, DefenseModule, DirectedLink, HostMove, LinkLatencySample, LldpReceive,
    PacketInCtx,
};
use openflow::{OfMessage, PortDesc, PortLinkState, PortStatusReason};
use sdn_types::packet::{EthernetFrame, LldpPacket, Payload};
use sdn_types::{DatapathId, Duration, IpAddr, MacAddr, PortNo, SimTime, SwitchPort};
use topoguard::{Cmm, CmmConfig, Lli, LliConfig, LliObservation, TopoGuard, TopoGuardConfig};

fn sp(d: u64, p: u16) -> SwitchPort {
    SwitchPort::new(DatapathId::new(d), PortNo::new(p))
}

fn port_status(up: bool, port: SwitchPort) -> (DatapathId, PortDesc) {
    (
        port.dpid,
        PortDesc {
            port_no: port.port,
            hw_addr: MacAddr::from_index(9),
            state: if up {
                PortLinkState::Up
            } else {
                PortLinkState::Down
            },
        },
    )
}

fn lldp_receive<'a>(
    lldp: &'a LldpPacket,
    src: SwitchPort,
    dst: SwitchPort,
    at: SimTime,
    signature_valid: Option<bool>,
) -> LldpReceive<'a> {
    LldpReceive {
        lldp,
        src,
        dst,
        at,
        signature_valid,
        sample: None,
    }
}

fn dataplane_frame(src: MacAddr) -> EthernetFrame {
    EthernetFrame::new(
        src,
        MacAddr::BROADCAST,
        Payload::Opaque {
            ethertype: 0x1234,
            data: vec![0; 20],
        },
    )
}

// ---------- TopoGuard ----------

#[test]
fn topoguard_blocks_lldp_at_host_port_and_amnesia_clears_it() {
    let mut h = ModuleHarness::new();
    let mut tg = TopoGuard::new(TopoGuardConfig::default());
    let attacker_port = sp(2, 1);

    // First-hop traffic (after the startup grace period) marks the port
    // HOST.
    let frame = dataplane_frame(MacAddr::from_index(7));
    let pin = PacketInCtx {
        dpid: attacker_port.dpid,
        in_port: attacker_port.port,
        frame: &frame,
        at: SimTime::from_millis(1000),
    };
    tg.on_packet_in(&mut h.ctx(SimTime::from_millis(1000)), &pin);

    // LLDP arriving at the HOST port: alert + block.
    let lldp = LldpPacket::new(DatapathId::new(1), PortNo::new(1));
    let ev = lldp_receive(
        &lldp,
        sp(1, 1),
        attacker_port,
        SimTime::from_millis(1020),
        None,
    );
    let verdict = tg.on_lldp_receive(&mut h.ctx(SimTime::from_millis(1020)), &ev);
    assert_eq!(verdict, Command::Block);
    assert_eq!(h.alerts.count(AlertKind::LinkFabrication), 1);

    // Port Amnesia: a Port-Down resets the profile...
    let (dpid, desc) = port_status(false, attacker_port);
    tg.on_port_status(
        &mut h.ctx(SimTime::from_millis(1030)),
        dpid,
        &desc,
        PortStatusReason::Modify,
    );

    // ...and the same LLDP now passes without any alert.
    let ev = lldp_receive(
        &lldp,
        sp(1, 1),
        attacker_port,
        SimTime::from_millis(1040),
        None,
    );
    let verdict = tg.on_lldp_receive(&mut h.ctx(SimTime::from_millis(1040)), &ev);
    assert_eq!(verdict, Command::Continue);
    assert_eq!(
        h.alerts.count(AlertKind::LinkFabrication),
        1,
        "no new alert"
    );
}

#[test]
fn topoguard_rejects_invalid_signatures() {
    let mut h = ModuleHarness::new();
    let mut tg = TopoGuard::new(TopoGuardConfig::default());
    let lldp = LldpPacket::new(DatapathId::new(1), PortNo::new(1));
    let ev = lldp_receive(
        &lldp,
        sp(1, 1),
        sp(2, 1),
        SimTime::from_millis(5),
        Some(false),
    );
    assert_eq!(
        tg.on_lldp_receive(&mut h.ctx(SimTime::from_millis(5)), &ev),
        Command::Block
    );
    assert_eq!(h.alerts.count(AlertKind::LinkFabrication), 1);
}

#[test]
fn topoguard_migration_precondition() {
    let mut h = ModuleHarness::new();
    let mut tg = TopoGuard::new(TopoGuardConfig::default());
    let mac = MacAddr::from_index(5);
    h.devices
        .commit(mac, Some(IpAddr::new(10, 0, 0, 5)), sp(1, 2), SimTime::ZERO);

    // Move WITHOUT a prior Port-Down at the old location: alert.
    let mv = HostMove {
        mac,
        ip: Some(IpAddr::new(10, 0, 0, 5)),
        from: sp(1, 2),
        to: sp(2, 3),
        at: SimTime::from_secs(1),
    };
    tg.on_host_move(&mut h.ctx(SimTime::from_secs(1)), &mv);
    assert_eq!(h.alerts.count(AlertKind::HostMigrationPrecondition), 1);

    // Now with a Port-Down first: no new pre-condition alert, and a
    // reachability probe (PacketOut) is queued for the old location.
    let (dpid, desc) = port_status(false, sp(1, 2));
    tg.on_port_status(
        &mut h.ctx(SimTime::from_secs(2)),
        dpid,
        &desc,
        PortStatusReason::Modify,
    );
    tg.on_host_move(&mut h.ctx(SimTime::from_secs(3)), &mv);
    assert_eq!(h.alerts.count(AlertKind::HostMigrationPrecondition), 1);
    assert!(
        h.outbox
            .iter()
            .any(|(d, m)| *d == DatapathId::new(1) && matches!(m, OfMessage::PacketOut { .. })),
        "post-condition probe must be sent to the old switch"
    );
}

#[test]
fn topoguard_postcondition_flags_still_reachable_host() {
    let mut h = ModuleHarness::new();
    let mut tg = TopoGuard::new(TopoGuardConfig::default());
    let mac = MacAddr::from_index(5);
    h.devices.commit(mac, None, sp(1, 2), SimTime::ZERO);
    let (dpid, desc) = port_status(false, sp(1, 2));
    tg.on_port_status(
        &mut h.ctx(SimTime::from_secs(1)),
        dpid,
        &desc,
        PortStatusReason::Modify,
    );
    let mv = HostMove {
        mac,
        ip: None,
        from: sp(1, 2),
        to: sp(2, 3),
        at: SimTime::from_secs(2),
    };
    tg.on_host_move(&mut h.ctx(SimTime::from_secs(2)), &mv);

    // An answer arrives from the old location within the timeout: the
    // "moved" host is still there.
    let frame = dataplane_frame(mac);
    let pin = PacketInCtx {
        dpid: DatapathId::new(1),
        in_port: PortNo::new(2),
        frame: &frame,
        at: SimTime::from_millis(2100),
    };
    tg.on_packet_in(&mut h.ctx(SimTime::from_millis(2100)), &pin);
    assert_eq!(h.alerts.count(AlertKind::HostMigrationPostcondition), 1);
}

// ---------- CMM ----------

#[test]
fn cmm_flags_port_bounce_during_lldp_propagation() {
    let mut h = ModuleHarness::new();
    let mut cmm = Cmm::new(CmmConfig::default());
    let src = sp(1, 1);
    let dst = sp(2, 1);

    cmm.on_lldp_emit(&mut h.ctx(SimTime::from_millis(100)), src.dpid, src.port);

    // The receiving-side attacker bounces its port mid-propagation.
    for (t, up) in [(110u64, false), (135, true)] {
        let (dpid, desc) = port_status(up, dst);
        cmm.on_port_status(
            &mut h.ctx(SimTime::from_millis(t)),
            dpid,
            &desc,
            PortStatusReason::Modify,
        );
    }

    let lldp = LldpPacket::new(src.dpid, src.port);
    let ev = lldp_receive(&lldp, src, dst, SimTime::from_millis(150), None);
    let verdict = cmm.on_lldp_receive(&mut h.ctx(SimTime::from_millis(150)), &ev);
    assert_eq!(verdict, Command::Block);
    assert!(h.alerts.count(AlertKind::AnomalousControlMessage) >= 1);
}

#[test]
fn cmm_ignores_bounces_outside_the_window() {
    let mut h = ModuleHarness::new();
    let mut cmm = Cmm::new(CmmConfig::default());
    let src = sp(1, 1);
    let dst = sp(2, 1);

    // Bounce long before the probe.
    for (t, up) in [(10u64, false), (30, true)] {
        let (dpid, desc) = port_status(up, dst);
        cmm.on_port_status(
            &mut h.ctx(SimTime::from_millis(t)),
            dpid,
            &desc,
            PortStatusReason::Modify,
        );
    }
    cmm.on_lldp_emit(&mut h.ctx(SimTime::from_millis(100)), src.dpid, src.port);
    let lldp = LldpPacket::new(src.dpid, src.port);
    let ev = lldp_receive(&lldp, src, dst, SimTime::from_millis(120), None);
    assert_eq!(
        cmm.on_lldp_receive(&mut h.ctx(SimTime::from_millis(120)), &ev),
        Command::Continue
    );
    assert!(h.alerts.is_empty());
}

#[test]
fn cmm_sender_side_immediate_alert() {
    let mut h = ModuleHarness::new();
    let mut cmm = Cmm::new(CmmConfig::default());
    let src = sp(1, 1);
    cmm.on_lldp_emit(&mut h.ctx(SimTime::from_millis(100)), src.dpid, src.port);
    let (dpid, desc) = port_status(false, src);
    cmm.on_port_status(
        &mut h.ctx(SimTime::from_millis(105)),
        dpid,
        &desc,
        PortStatusReason::Modify,
    );
    assert_eq!(h.alerts.count(AlertKind::AnomalousControlMessage), 1);
}

#[test]
fn cmm_forgets_stale_probes() {
    let mut h = ModuleHarness::new();
    let mut cmm = Cmm::new(CmmConfig::default());
    let src = sp(1, 1);
    cmm.on_lldp_emit(&mut h.ctx(SimTime::from_millis(100)), src.dpid, src.port);
    // Housekeeping runs past the probe TTL (500 ms).
    cmm.on_tick(&mut h.ctx(SimTime::from_millis(700)));
    let (dpid, desc) = port_status(false, src);
    cmm.on_port_status(
        &mut h.ctx(SimTime::from_millis(710)),
        dpid,
        &desc,
        PortStatusReason::Modify,
    );
    assert!(
        h.alerts.is_empty(),
        "a Port-Down long after the probe must not alert"
    );
}

// ---------- LLI ----------

#[test]
fn lli_flags_and_blocks_anomalous_latency() {
    let mut h = ModuleHarness::new();
    let mut lli = Lli::new(LliConfig::default());
    let link = DirectedLink::new(sp(1, 1), sp(2, 1));
    let sample = |ms: f64| {
        Some(LinkLatencySample {
            t_lldp: Duration::from_millis_f64(ms + 2.0),
            t_sw_src: Some(Duration::from_millis(1)),
            t_sw_dst: Some(Duration::from_millis(1)),
        })
    };

    // Baseline: 30 honest ~5 ms samples.
    for i in 0..30 {
        let v = lli.on_link_update(
            &mut h.ctx(SimTime::from_secs(i)),
            link,
            i == 0,
            sample(5.0 + (i % 4) as f64 * 0.1),
        );
        assert_eq!(v, Command::Continue);
    }
    assert!(lli.threshold_ms(link).expect("past warmup") < 8.0);
    // Either direction of the trunk selects the same baseline store.
    assert_eq!(lli.threshold_ms(link), lli.threshold_ms(link.reversed()));

    // A relayed link shows up at ~21 ms.
    let v = lli.on_link_update(
        &mut h.ctx(SimTime::from_secs(60)),
        link,
        false,
        sample(21.0),
    );
    assert_eq!(v, Command::Block);
    assert_eq!(h.alerts.count(AlertKind::AbnormalLinkLatency), 1);
    assert!(h.alerts.all()[0].detail.contains("delay:21ms"));
}

#[test]
fn lli_keeps_per_trunk_baselines_for_heterogeneous_fabrics() {
    // Regression for the fat-tree-8 verdict flip (EXPERIMENTS.md): a
    // single global latency store pools every trunk's population, so an
    // honest slow trunk (~20 ms core link) sits past the fence fitted to
    // the fast majority (~5 ms edge links) and gets flagged. Per-trunk
    // baselines must keep both honest populations silent while still
    // flagging a genuine outlier on either trunk.
    let mut h = ModuleHarness::new();
    let mut lli = Lli::new(LliConfig::default());
    let fast = DirectedLink::new(sp(1, 1), sp(2, 1));
    let slow = DirectedLink::new(sp(3, 1), sp(4, 1));
    let sample = |ms: f64| {
        Some(LinkLatencySample {
            t_lldp: Duration::from_millis_f64(ms + 2.0),
            t_sw_src: Some(Duration::from_millis(1)),
            t_sw_dst: Some(Duration::from_millis(1)),
        })
    };

    // Interleaved honest samples from two distinct populations.
    for i in 0..40_u64 {
        let v = lli.on_link_update(
            &mut h.ctx(SimTime::from_millis(100 * i)),
            fast,
            i == 0,
            sample(5.0 + (i % 5) as f64 * 0.1),
        );
        assert_eq!(v, Command::Continue, "honest fast trunk flagged at {i}");
        let v = lli.on_link_update(
            &mut h.ctx(SimTime::from_millis(100 * i + 50)),
            slow,
            i == 0,
            sample(20.0 + (i % 5) as f64 * 0.2),
        );
        assert_eq!(v, Command::Continue, "honest slow trunk flagged at {i}");
    }
    assert!(
        h.alerts.is_empty(),
        "two honest latency populations must not cross-contaminate"
    );
    assert_eq!(lli.trunks_tracked(), 2);
    // The fences reflect each trunk's own population.
    assert!(lli.threshold_ms(fast).expect("past warmup") < 8.0);
    assert!(lli.threshold_ms(slow).expect("past warmup") > 18.0);

    // A relay adds ~15 ms to the *fast* trunk: under a pooled store the
    // slow population would have stretched the fence past it.
    let v = lli.on_link_update(
        &mut h.ctx(SimTime::from_secs(60)),
        fast,
        false,
        sample(18.0),
    );
    assert_eq!(v, Command::Block, "relay on the fast trunk must flag");
    assert_eq!(h.alerts.count(AlertKind::AbnormalLinkLatency), 1);
    // And the slow trunk's own outlier still flags too.
    let v = lli.on_link_update(
        &mut h.ctx(SimTime::from_secs(61)),
        slow,
        false,
        sample(45.0),
    );
    assert_eq!(v, Command::Block, "relay on the slow trunk must flag");
    assert_eq!(h.alerts.count(AlertKind::AbnormalLinkLatency), 2);
}

#[test]
fn lli_without_evidence_stays_silent() {
    let mut h = ModuleHarness::new();
    let mut lli = Lli::new(LliConfig::default());
    let link = DirectedLink::new(sp(1, 1), sp(2, 1));
    // No timestamp/control-latency evidence: nothing to judge.
    let v = lli.on_link_update(&mut h.ctx(SimTime::from_secs(1)), link, true, None);
    assert_eq!(v, Command::Continue);
    let half_measured = Some(LinkLatencySample {
        t_lldp: Duration::from_millis(7),
        t_sw_src: None,
        t_sw_dst: Some(Duration::from_millis(1)),
    });
    let v = lli.on_link_update(
        &mut h.ctx(SimTime::from_secs(2)),
        link,
        false,
        half_measured,
    );
    assert_eq!(v, Command::Continue);
    assert_eq!(
        lli.inspect(&mut h.ctx(SimTime::from_secs(3)), link, half_measured),
        None
    );
    assert!(h.alerts.is_empty());
    assert_eq!(lli.trunks_tracked(), 0, "no evidence, no store");
}

#[test]
fn lli_judgements_carry_their_thresholds() {
    let mut h = ModuleHarness::new();
    let mut lli = Lli::new(LliConfig::default());
    let link = DirectedLink::new(sp(1, 1), sp(2, 1));
    let judgements: Vec<LliObservation> = (0..11)
        .map(|i| {
            lli.inspect(
                &mut h.ctx(SimTime::from_secs(i)),
                link,
                Some(LinkLatencySample {
                    t_lldp: Duration::from_millis(7),
                    t_sw_src: Some(Duration::from_millis(1)),
                    t_sw_dst: Some(Duration::from_millis(1)),
                }),
            )
            .expect("fully measured sample")
        })
        .collect();
    assert!(judgements[9].threshold_ms.is_none(), "warmup");
    assert!(judgements[10].threshold_ms.is_some(), "steady state");
    assert!(judgements.iter().all(|j| !j.flagged && j.link == link));
    assert_eq!(judgements[10].at, SimTime::from_secs(10));
}

#[test]
fn topoguard_does_not_profile_during_startup_grace() {
    // Before the first discovery round, flooded broadcasts hit inter-switch
    // ports that are not yet known to be infrastructure; profiling them
    // would flag the first legitimate LLDP on every trunk.
    let mut h = ModuleHarness::new();
    let mut tg = TopoGuard::new(TopoGuardConfig::default());
    let trunk = sp(2, 1);
    let frame = dataplane_frame(MacAddr::from_index(7));
    let pin = PacketInCtx {
        dpid: trunk.dpid,
        in_port: trunk.port,
        frame: &frame,
        at: SimTime::from_millis(12),
    };
    tg.on_packet_in(&mut h.ctx(SimTime::from_millis(12)), &pin);

    // The first LLDP on the trunk must pass cleanly.
    let lldp = LldpPacket::new(DatapathId::new(1), PortNo::new(1));
    let ev = lldp_receive(&lldp, sp(1, 1), trunk, SimTime::from_millis(107), None);
    assert_eq!(
        tg.on_lldp_receive(&mut h.ctx(SimTime::from_millis(107)), &ev),
        Command::Continue
    );
    assert!(h.alerts.is_empty());
}
