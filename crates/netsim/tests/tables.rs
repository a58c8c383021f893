//! The switch, port and host tables: a network runs the same whatever
//! order its spec was built in, sparse dpids, port numbers and host ids
//! resolve, and unknown ones resolve to nothing.

use netsim::{
    ControllerCtx, ControllerLogic, DemandProfile, LinkProfile, NetworkSpec, Simulator, TimerId,
    Trace, TraceKind, TrafficPlan, TrafficWindow,
};
use openflow::{Action, FlowMatch, FlowModCommand, OfMessage, PortLinkState, Xid};
use sdn_types::packet::Payload;
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime, SwitchPort};
use tm_telemetry::Telemetry;

/// Sparse dpids, in ascending order.
const DPIDS: [DatapathId; 4] = [
    DatapathId::new(7),
    DatapathId::new(9),
    DatapathId::new(0x2a),
    DatapathId::new(0x99),
];

/// The chain 7 — 9 — 0x2a — 0x99, as `(a, port_a, b, port_b)`.
const LINKS: [(u64, u16, u64, u16); 3] = [(7, 1, 9, 1), (9, 2, 0x2a, 1), (0x2a, 2, 0x99, 1)];

/// Hosts as `(id, dpid, port)`, ascending by id. The ids start past 1
/// and skip, and ports 5, 7 and 40 sit past a gap.
const HOSTS: [(u32, u64, u16); 4] = [(2, 7, 5), (5, 9, 3), (0x40, 0x2a, 7), (0x41, 0x99, 40)];

/// Traffic groups park `AGG_MARGIN` ports past each edge's highest port,
/// as the fabric load plans do.
const AGG_MARGIN: u16 = 8;

const END: SimTime = SimTime::from_millis(3000);

/// The ports a switch has in this network, ascending.
fn ports_of(dpid: u64) -> Vec<u16> {
    let mut ports: Vec<u16> = LINKS
        .iter()
        .flat_map(|&(a, pa, b, pb)| [(a, pa), (b, pb)])
        .chain(HOSTS.iter().map(|&(_, d, p)| (d, p)))
        .filter(|&(d, _)| d == dpid)
        .map(|(_, p)| p)
        .collect();
    if let Some(agg) = agg_port(dpid) {
        ports.push(agg);
    }
    ports.sort_unstable();
    ports
}

/// The aggregation port of the traffic group on `dpid`, if it has one.
fn agg_port(dpid: u64) -> Option<u16> {
    let free = LINKS
        .iter()
        .flat_map(|&(a, pa, b, pb)| [(a, pa), (b, pb)])
        .chain(HOSTS.iter().map(|&(_, d, p)| (d, p)))
        .filter(|&(d, _)| d == dpid)
        .map(|(_, p)| p + 1)
        .max()?;
    [7, 0x99].contains(&dpid).then_some(free + AGG_MARGIN)
}

/// The network, with its switches, links and hosts added in ascending
/// order or shuffled, and each link's ends swapped when shuffled.
fn spec(shuffled: bool) -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    spec.set_telemetry(Telemetry::new());
    spec.set_controller(Box::<Recorder>::default());
    let mut dpids = DPIDS;
    let mut links = LINKS;
    let mut hosts = HOSTS;
    if shuffled {
        dpids = [DPIDS[3], DPIDS[0], DPIDS[2], DPIDS[1]];
        links.reverse();
        for link in &mut links {
            *link = (link.2, link.3, link.0, link.1);
        }
        hosts = [HOSTS[2], HOSTS[0], HOSTS[3], HOSTS[1]];
    }
    for dpid in dpids {
        spec.add_switch(dpid);
    }
    // Shuffled, 0x99's host port 40 is attached before its link port 1.
    if shuffled {
        attach_hosts(&mut spec, &hosts);
    }
    let trunk = LinkProfile::fixed(Duration::from_micros(50));
    for (a, pa, b, pb) in links {
        spec.link_switches(
            DatapathId::new(a),
            PortNo::new(pa),
            DatapathId::new(b),
            PortNo::new(pb),
            trunk,
        );
    }
    if !shuffled {
        attach_hosts(&mut spec, &hosts);
    }
    spec
}

fn attach_hosts(spec: &mut NetworkSpec, hosts: &[(u32, u64, u16)]) {
    for &(id, dpid, port) in hosts {
        let host = HostId::new(id);
        spec.add_host(
            host,
            MacAddr::from_index(id),
            IpAddr::new(10, 0, 0, id as u8),
        );
        spec.attach_host(
            host,
            DatapathId::new(dpid),
            PortNo::new(port),
            LinkProfile::jittered(Duration::from_micros(200), Duration::from_micros(20)),
        );
    }
}

fn plan() -> TrafficPlan {
    let window = TrafficWindow::new(SimTime::from_millis(500), END);
    let mut plan = TrafficPlan::new();
    for dpid in [7, 0x99] {
        let port = agg_port(dpid).expect("an edge switch");
        plan.group(
            DatapathId::new(dpid),
            PortNo::new(port),
            40,
            DemandProfile::datacenter(2.0),
            window,
        );
    }
    plan
}

/// One switch's port counters: `(port, rx packets, tx packets)`.
type PortCounters = Vec<(PortNo, u64, u64)>;

/// What the controller was told, in the order it was told.
#[derive(Clone, Debug, Default, PartialEq)]
struct Seen {
    /// Each `FeaturesReply`'s dpid and port numbers.
    features: Vec<(DatapathId, Vec<PortNo>)>,
    /// Each `PortStatsReply`.
    port_stats: Vec<(DatapathId, PortCounters)>,
    /// Each `PortStatus`: the switch, port and new state.
    port_status: Vec<(DatapathId, PortNo, PortLinkState)>,
}

/// Floods every Packet-In, installs a flooding rule for each IPv4
/// destination it sees, and polls every switch's port stats and echo
/// twice a second, in the order the switches introduced themselves.
#[derive(Default)]
struct Recorder {
    seen: Seen,
    xid: u64,
}

impl ControllerLogic for Recorder {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        ctx.set_timer(Duration::from_millis(500), TimerId(0));
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        match msg {
            OfMessage::FeaturesReply { dpid, ports } => {
                let ports = ports.iter().map(|p| p.port_no).collect();
                self.seen.features.push((dpid, ports));
            }
            OfMessage::PortStatsReply { ports, .. } => {
                let ports = ports
                    .iter()
                    .map(|p| (p.port_no, p.rx_packets, p.tx_packets))
                    .collect();
                self.seen.port_stats.push((dpid, ports));
            }
            OfMessage::PortStatus { desc, .. } => {
                self.seen.port_status.push((dpid, desc.port_no, desc.state));
            }
            OfMessage::PacketIn { in_port, frame } => {
                if let Payload::Ipv4(_) = frame.payload {
                    ctx.send(
                        dpid,
                        OfMessage::FlowMod {
                            command: FlowModCommand::Add,
                            flow_match: FlowMatch::new().with_eth_dst(frame.dst),
                            priority: 10,
                            idle_timeout_secs: 1,
                            hard_timeout_secs: 0,
                            actions: vec![Action::Output(PortNo::FLOOD)],
                            cookie: 0,
                        },
                    );
                }
                ctx.send(
                    dpid,
                    OfMessage::PacketOut {
                        in_port,
                        actions: vec![Action::Output(PortNo::FLOOD)],
                        frame,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId) {
        let dpids: Vec<DatapathId> = self.seen.features.iter().map(|(d, _)| *d).collect();
        for dpid in dpids {
            self.xid += 1;
            ctx.send(dpid, OfMessage::PortStatsRequest { xid: Xid(self.xid) });
            ctx.send(
                dpid,
                OfMessage::EchoRequest {
                    xid: Xid(self.xid),
                    payload: self.xid,
                },
            );
        }
        ctx.set_timer(Duration::from_millis(500), id);
    }
}

fn run(shuffled: bool) -> (Seen, Trace, String) {
    let mut sim = Simulator::with_traffic_plan(spec(shuffled), 5, plan());
    sim.run_until(SimTime::from_millis(1200));
    // A cable pull mid-run: the switch reports it, and floods skip it.
    sim.set_switch_port_admin(DatapathId::new(9), PortNo::new(3), false);
    sim.run_until(SimTime::from_millis(2000));
    sim.set_switch_port_admin(DatapathId::new(9), PortNo::new(3), true);
    sim.run_until(END);
    let seen = sim
        .controller_as::<Recorder>()
        .expect("the recording controller")
        .seen
        .clone();
    (seen, *sim.trace(), sim.metrics_snapshot().render())
}

#[test]
fn a_spec_built_in_any_order_runs_the_same() {
    let ascending = run(false);
    let shuffled = run(true);
    let seen = &ascending.0;
    // The handshake lists switches in dpid order and ports in port order.
    let expected: Vec<(DatapathId, Vec<PortNo>)> = DPIDS
        .iter()
        .map(|&d| (d, ports_of(d.raw()).into_iter().map(PortNo::new).collect()))
        .collect();
    assert_eq!(seen.features, expected);
    assert!(seen.port_stats.len() >= 4 * 5, "{:?}", seen.port_stats);
    assert_eq!(seen.port_status.len(), 2, "{:?}", seen.port_status);
    assert!(ascending.1.count(TraceKind::PacketIn) > 0);
    assert!(ascending.1.count(TraceKind::FlowInstalled) > 0);
    assert_eq!(ascending.0, shuffled.0);
    assert_eq!(ascending.1, shuffled.1);
    assert_eq!(ascending.2, shuffled.2);
}

#[test]
fn sparse_dpids_and_ports_resolve_and_unknown_ones_do_not() {
    let mut sim = Simulator::with_traffic_plan(spec(true), 5, plan());
    sim.run_until(SimTime::from_millis(100));
    for dpid in DPIDS {
        assert_eq!(sim.flow_count(dpid), Some(0), "{dpid}");
        let ports: Vec<u16> = sim
            .port_stats(dpid)
            .expect("a known switch")
            .iter()
            .map(|p| p.port_no.raw())
            .collect();
        assert_eq!(ports, ports_of(dpid.raw()), "{dpid}");
    }
    assert_eq!(agg_port(7), Some(14));
    assert_eq!(agg_port(0x99), Some(49));

    // Below the first dpid, in the gaps, past the last and at the extremes.
    for raw in [0, 1, 6, 8, 0x29, 0x2b, 0x98, 0x9a, u64::MAX] {
        let dpid = DatapathId::new(raw);
        assert_eq!(sim.flow_count(dpid), None, "{dpid}");
        assert!(sim.port_stats(dpid).is_none(), "{dpid}");
    }

    // Hosts resolve by id, wherever their ids sit.
    for (id, dpid, port) in HOSTS {
        let info = sim.host_info(HostId::new(id)).expect("a known host");
        assert_eq!(info.mac, MacAddr::from_index(id), "h{id}");
        let at = SwitchPort::new(DatapathId::new(dpid), PortNo::new(port));
        assert_eq!(info.attachment, Some(at), "h{id}");
    }
    for raw in [0, 1, 3, 4, 6, 0x3f, 0x42, u32::MAX] {
        assert!(sim.host_info(HostId::new(raw)).is_none(), "h{raw}");
    }

    // Admin changes on unknown switches or ports change nothing.
    let before = *sim.trace();
    for (dpid, port) in [
        (8, 1),
        (0x2b, 1),
        (u64::MAX, 1),
        (9, 0),
        (9, 4),
        (7, 3),
        (7, 15),
        (0x99, 39),
        (0x99, 50),
        (0x99, 0xfff0),
        (0x99, PortNo::FLOOD.raw()),
    ] {
        sim.set_switch_port_admin(DatapathId::new(dpid), PortNo::new(port), false);
        assert_eq!(*sim.trace(), before, "{dpid}:{port}");
    }
    // A known port past a gap does go down.
    sim.set_switch_port_admin(DatapathId::new(0x99), PortNo::new(40), false);
    assert_eq!(
        sim.trace().count(TraceKind::PortDown),
        before.count(TraceKind::PortDown) + 1
    );
}
