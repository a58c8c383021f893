//! The CMM against the design it replaced, kept here as a model: a
//! `BTreeMap` of probes in flight that every tick `retain`s. Both see the
//! same emissions, receptions, port events and ticks, and must raise the
//! same alerts and return the same verdicts.

use std::collections::BTreeMap;

use controller::test_support::ModuleHarness;
use controller::{Command, DefenseModule, LldpReceive};
use openflow::{PortDesc, PortLinkState, PortStatusReason};
use sdn_types::packet::LldpPacket;
use sdn_types::{DatapathId, Duration, MacAddr, PortNo, SimTime, SwitchPort};
use tm_prop::prelude::*;
use topoguard::{Cmm, CmmConfig};

fn sp(d: u64, p: u16) -> SwitchPort {
    SwitchPort::new(DatapathId::new(d), PortNo::new(p))
}

/// One input to the CMM.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The controller emits a probe on the port.
    Emit(SwitchPort),
    /// A probe claiming `src` arrives at `dst`.
    Receive(SwitchPort, SwitchPort),
    /// The port reports a state change.
    Status(SwitchPort, PortStatusReason, bool),
    /// The controller's 100 ms housekeeping tick.
    Tick,
}

/// The CMM as a `BTreeMap` that each tick retains.
struct Model {
    config: CmmConfig,
    in_flight: BTreeMap<SwitchPort, SimTime>,
    port_events: Vec<(SwitchPort, SimTime, bool)>,
    alerts: Vec<(SimTime, String)>,
}

fn cutoff(now: SimTime, age: Duration) -> SimTime {
    SimTime::from_nanos(now.as_nanos().saturating_sub(age.as_nanos()))
}

fn up_down(up: bool) -> &'static str {
    if up {
        "Up"
    } else {
        "Down"
    }
}

impl Model {
    fn step(&mut self, now: SimTime, step: Step) -> Option<Command> {
        match step {
            Step::Emit(port) => {
                self.in_flight.insert(port, now);
            }
            Step::Receive(src, dst) => {
                let start = self
                    .in_flight
                    .remove(&src)
                    .unwrap_or_else(|| cutoff(now, self.config.probe_ttl));
                let tainted = [src, dst].into_iter().find_map(|port| {
                    self.port_events
                        .iter()
                        .find(|&&(p, at, _)| p == port && at >= start && at <= now)
                        .map(|&(_, _, up)| (port, up))
                });
                let Some((port, up)) = tainted else {
                    return Some(Command::Continue);
                };
                self.alerts.push((
                    now,
                    format!(
                        "detected suspicious link discovery: Port-{} from {port} during LLDP propagation ({src} -> {dst})",
                        up_down(up)
                    ),
                ));
                return Some(Command::Block);
            }
            Step::Status(port, reason, up) => {
                if reason != PortStatusReason::Modify {
                    return None;
                }
                self.port_events.push((port, now, up));
                if self.in_flight.contains_key(&port) {
                    self.alerts.push((
                        now,
                        format!(
                            "detected suspicious control message: Port-{} from {port} while its LLDP probe is in flight",
                            up_down(up)
                        ),
                    ));
                }
            }
            Step::Tick => {
                let probes = cutoff(now, self.config.probe_ttl);
                self.in_flight.retain(|_, at| *at >= probes);
                let events = cutoff(now, self.config.event_retention);
                self.port_events.retain(|(_, at, _)| *at >= events);
            }
        }
        None
    }
}

/// Feeds `steps`, each at its time in milliseconds, to the CMM and to the
/// model, asserting equal verdicts and equal alerts after every step.
/// Returns the verdicts and the number of alerts.
fn check(steps: &[(u64, Step)]) -> (Vec<Command>, usize) {
    let config = CmmConfig::default();
    let mut cmm = Cmm::new(config);
    let mut h = ModuleHarness::new();
    let mut model = Model {
        config,
        in_flight: BTreeMap::new(),
        port_events: Vec::new(),
        alerts: Vec::new(),
    };
    let lldp = LldpPacket::new(DatapathId::new(1), PortNo::new(1));
    let mut verdicts = Vec::new();
    for (i, &(ms, step)) in steps.iter().enumerate() {
        let now = SimTime::from_millis(ms);
        let mut cx = h.ctx(now);
        let verdict = match step {
            Step::Emit(port) => {
                cmm.on_lldp_emit(&mut cx, port.dpid, port.port);
                None
            }
            Step::Receive(src, dst) => {
                let ev = LldpReceive {
                    lldp: &lldp,
                    src,
                    dst,
                    at: now,
                    signature_valid: None,
                    sample: None,
                };
                Some(cmm.on_lldp_receive(&mut cx, &ev))
            }
            Step::Status(port, reason, up) => {
                let desc = PortDesc {
                    port_no: port.port,
                    hw_addr: MacAddr::from_index(9),
                    state: if up {
                        PortLinkState::Up
                    } else {
                        PortLinkState::Down
                    },
                };
                cmm.on_port_status(&mut cx, port.dpid, &desc, reason);
                None
            }
            Step::Tick => {
                cmm.on_tick(&mut cx);
                None
            }
        };
        assert_eq!(verdict, model.step(now, step), "step {i}: {step:?}");
        verdicts.extend(verdict);
        let alerts: Vec<(SimTime, String)> = h
            .alerts
            .all()
            .iter()
            .map(|a| (a.at, a.detail.clone()))
            .collect();
        assert_eq!(alerts, model.alerts, "step {i}: {step:?}");
    }
    (verdicts, model.alerts.len())
}

#[test]
fn cmm_matches_the_retain_model_through_re_emission_expiry_and_port_downs() {
    let (a, b, c, d) = (sp(1, 1), sp(2, 1), sp(1, 2), sp(3, 1));
    let modify = PortStatusReason::Modify;
    let (verdicts, alerts) = check(&[
        (0, Step::Emit(a)),
        (0, Step::Emit(c)),
        (0, Step::Emit(d)),
        // A probe received, then re-emitted.
        (5, Step::Receive(a, b)),
        (100, Step::Tick),
        (200, Step::Emit(a)),
        // A port re-emitted within the TTL.
        (200, Step::Emit(c)),
        // A Port-Down during flight.
        (300, Step::Status(a, modify, false)),
        (350, Step::Tick),
        // D is exactly `probe_ttl` old at this tick: still in flight.
        (500, Step::Tick),
        (501, Step::Status(d, modify, true)),
        (501, Step::Status(d, PortStatusReason::Add, false)),
        // Now it is past the TTL: forgotten.
        (600, Step::Tick),
        (650, Step::Status(d, modify, false)),
        (700, Step::Receive(a, b)),
        (710, Step::Receive(c, d)),
        (800, Step::Tick),
        // A probe never emitted: judged over one TTL back.
        (900, Step::Receive(d, b)),
        (1000, Step::Tick),
        (1100, Step::Emit(d)),
        (1150, Step::Receive(d, b)),
        (1700, Step::Tick),
    ]);
    // Two sender-side alerts (A at 300 ms, D at 501 ms) and three blocked
    // receptions; the first and last probes pass.
    use Command::{Block, Continue};
    assert_eq!(verdicts, [Continue, Block, Block, Block, Continue]);
    assert_eq!(alerts, 5);
}

/// A step drawn from 2 switches of 3 ports, ticks weighted up.
fn step() -> impl Strategy<Value = Step> {
    let port = (1u64..3, 1u16..4).prop_map(|(d, p)| sp(d, p));
    prop_oneof![
        port.clone().prop_map(Step::Emit),
        (port.clone(), port.clone()).prop_map(|(src, dst)| Step::Receive(src, dst)),
        (port, any::<bool>(), 0u8..4).prop_map(|(p, up, r)| {
            let reason = if r == 0 {
                PortStatusReason::Add
            } else {
                PortStatusReason::Modify
            };
            Step::Status(p, reason, up)
        }),
        Just(Step::Tick),
        Just(Step::Tick),
    ]
}

tm_prop! {
    /// Any interleaving, at gaps of up to 300 ms: probes re-emitted,
    /// received twice or never, and ticks landing exactly on the TTL.
    #[test]
    fn cmm_matches_the_retain_model(
        steps in collection::vec((0u64..4, step()), 0..120)
    ) {
        let mut ms = 0;
        let timed: Vec<(u64, Step)> = steps
            .iter()
            .map(|&(gap, step)| {
                ms += gap * 100;
                (ms, step)
            })
            .collect();
        check(&timed);
    }
}
