//! Property tests for the simulator: determinism and port state machine
//! invariants under arbitrary interface bounce schedules.

use tm_prop::prelude::*;

use netsim::{ControllerCtx, ControllerLogic, LinkProfile, NetworkSpec, Simulator, TimerId, Trace};
use openflow::{OfMessage, PortLinkState};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};

const SW: DatapathId = DatapathId::new(1);
const H: HostId = HostId::new(1);

fn spec() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW);
    spec.add_host(H, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.attach_host(
        H,
        SW,
        PortNo::new(1),
        LinkProfile::jittered(Duration::from_millis(5), Duration::from_millis(1)),
    );
    spec
}

/// Records each `PortStatus` as (new state, when the switch observed
/// it); otherwise inert, like the default controller.
#[derive(Default)]
struct PortStatusLog(Vec<(PortLinkState, u64)>);

impl ControllerLogic for PortStatusLog {
    fn on_start(&mut self, _ctx: &mut ControllerCtx<'_>) {}
    fn on_message(&mut self, _ctx: &mut ControllerCtx<'_>, _dpid: DatapathId, msg: OfMessage) {
        if let OfMessage::PortStatus {
            desc, observed_at, ..
        } = msg
        {
            self.0.push((desc.state, observed_at.as_nanos()));
        }
    }
    fn on_timer(&mut self, _ctx: &mut ControllerCtx<'_>, _id: TimerId) {}
}

/// Replays a bounce schedule of (down_at_ms, hold_ms) pairs. Returns the
/// port events the controller was told of, and the whole run's trace.
fn run_schedule(seed: u64, schedule: &[(u64, u64)]) -> (Vec<(PortLinkState, u64)>, Trace) {
    let mut spec = spec();
    spec.set_controller(Box::<PortStatusLog>::default());
    let mut sim = Simulator::new(spec, seed);
    let mut t = 0u64;
    for (gap, hold) in schedule {
        t += gap + 1;
        sim.run_until(SimTime::from_millis(t));
        sim.host_iface_down(H);
        sim.host_schedule_iface_up(H, Duration::from_millis(*hold), None);
    }
    sim.run_until(SimTime::from_millis(t + 200));
    let log: &PortStatusLog = sim.controller_as().expect("controller type");
    (log.0.clone(), *sim.trace())
}

tm_prop! {
    #![tm_config(cases = 32)]

    /// Same seed + same schedule => the same port events and trace.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        schedule in collection::vec((1u64..500, 1u64..100), 0..8),
    ) {
        let a = run_schedule(seed, &schedule);
        let b = run_schedule(seed, &schedule);
        prop_assert_eq!(a, b);
    }

    /// Port state machine: Port-Down and Port-Up events strictly
    /// alternate, starting with Down; bounces shorter than the minimum
    /// pulse window (8 ms) never generate events.
    #[test]
    fn port_events_alternate_and_respect_pulse_window(
        seed in any::<u64>(),
        schedule in collection::vec((100u64..400, 1u64..100), 1..6),
    ) {
        let (port_events, _) = run_schedule(seed, &schedule);
        let mut expect = PortLinkState::Down;
        for (state, _) in &port_events {
            prop_assert_eq!(*state, expect, "events must alternate");
            expect = match expect {
                PortLinkState::Down => PortLinkState::Up,
                PortLinkState::Up => PortLinkState::Down,
            };
        }
        // Bounces held under the minimum pulse window can never fire.
        if schedule.iter().all(|(_, hold)| *hold < 8) {
            prop_assert!(port_events.is_empty(), "sub-window bounces must be invisible");
        }
        // At least one bounce held past the maximum window always fires.
        // (Not one event *per* long bounce: if the host drops again before
        // the switch has re-detected the link, the switch legitimately sees
        // one continuous outage.)
        let long_bounces = schedule.iter().filter(|(_, hold)| *hold >= 24).count();
        let downs = port_events
            .iter()
            .filter(|(state, _)| *state == PortLinkState::Down)
            .count();
        if long_bounces > 0 {
            prop_assert!(downs >= 1, "a >=24 ms bounce must be detected");
        }
        prop_assert!(
            downs <= schedule.len(),
            "more Port-Downs ({downs}) than bounces ({})",
            schedule.len()
        );
    }

    /// The host's identity after any schedule matches the last completed
    /// bring-up's identity.
    #[test]
    fn identity_follows_last_completed_up(
        seed in any::<u64>(),
        ids in collection::vec(1u32..100, 1..6),
    ) {
        let mut sim = Simulator::new(spec(), seed);
        let mut t = 0u64;
        for (i, id) in ids.iter().enumerate() {
            t += 50;
            sim.run_until(SimTime::from_millis(t));
            sim.host_iface_down(H);
            sim.host_schedule_iface_up(
                H,
                Duration::from_millis(10),
                Some((MacAddr::from_index(*id), IpAddr::from_index(*id as u16))),
            );
            let _ = i;
        }
        sim.run_until(SimTime::from_millis(t + 100));
        let info = sim.host_info(H).unwrap();
        let last = *ids.last().unwrap();
        prop_assert!(info.iface_up);
        prop_assert_eq!(info.mac, MacAddr::from_index(last));
        prop_assert_eq!(info.ip, IpAddr::from_index(last as u16));
    }
}
