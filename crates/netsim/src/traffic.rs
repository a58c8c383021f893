//! The flow-level traffic engine: turns a declarative [`TrafficPlan`] into
//! aggregate flow records that expand to real packets only at
//! detector-relevant boundaries.
//!
//! # The flow abstraction
//!
//! Each [`TrafficGroup`] models thousands-to-millions of *virtual hosts*
//! parked behind one real aggregation port on an edge switch (attached by
//! [`Simulator::with_traffic_plan`] before the handshake). Flow arrivals
//! are ordinary scheduled events drawn from a per-group RNG stream; when a
//! flow arrives, the engine advances the endpoint switches' port counters
//! by the flow's whole packet count in O(1) and expands **real frames**
//! only where a detector could tell the difference:
//!
//! * the first time a virtual host sources or sinks a flow, a gratuitous
//!   ARP enters at its aggregation port — the controller's host-tracking
//!   and the defenses observe the same ARP `PacketIn` a real join emits;
//! * the first packet of a fresh (source-edge, destination-edge) flow
//!   aggregate enters as a real UDP frame and table-misses into a
//!   `PacketIn`, exercising the controller's forwarding path; subsequent
//!   flows between the same edges ride the installed rules and stay
//!   aggregated until the aggregate goes idle.
//!
//! Everything else — the remaining thousands of packets per flow — is
//! accounted, never materialized, so link/switch state advances in
//! O(flows) instead of O(packets).
//!
//! # How aggregation preserves the determinism contract
//!
//! Arrival chains draw from **per-group RNG streams** forked off the
//! scenario seed via `tm_rand::stream_seed` — the simulation's main RNG is
//! never touched, so traffic load cannot perturb link jitter or fault
//! draws. An **empty plan** attaches no aggregation hosts, schedules zero
//! events, constructs zero RNGs, and leaves the run byte-identical to one
//! without any plan (pinned by `crates/netsim/tests/traffic.rs`); a
//! non-empty plan is still a pure function of `(scenario, plan, seed)`.
//!
//! Every aggregate advance and every expansion is counted under the
//! `traffic.*` telemetry namespace.
//!
//! The configuration types ([`TrafficPlan`], [`DemandProfile`], …) live in
//! the `tm-traffic` crate and are re-exported here.
//!
//! [`Simulator::with_traffic_plan`]: crate::Simulator::with_traffic_plan

use tm_rand::{stream_seed, Rng, StdRng};

use sdn_types::packet::{ArpPacket, EthernetFrame, Ipv4Packet, Payload, Transport, UdpDatagram};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};

pub use tm_traffic::{
    ArrivalProcess, DemandProfile, SizeMix, TrafficGroup, TrafficPlan, TrafficWindow,
};

use crate::engine::{Event, SimCore};
use crate::link::LinkProfile;
use crate::sim::{NetState, NetworkSpec};
use crate::switch;

/// Stream id separating the traffic engine's RNG universe from the
/// simulation seed (per-group streams fork off this via a second
/// `stream_seed`).
pub const TRAFFIC_STREAM: u64 = 0x7AF1C;

/// Virtual-host IPs live in 10.128.0.0/9, far above both the real-host
/// space (`IpAddr::from_index` → 10.0.x.y) and the aggregation-host space
/// (10.127.g.g).
const VIRT_IP_BASE: u32 = (10 << 24) | (128 << 16);

/// Aggregation-host ids start high enough that no generated topology's
/// sequential host ids can collide.
const AGG_HOST_BASE: u32 = 0xFFFF_0000;

/// MTU used to convert flow bytes into aggregate packet counts.
const MTU: u64 = 1500;

/// How long a (source-edge, destination-edge) flow aggregate stays warm:
/// while warm, new flows between the two edges are pure accounting; once
/// idle this long, the next flow re-expands a first packet (mirroring a
/// switch rule's idle timeout).
const FLOW_IDLE: Duration = Duration::from_secs(10);

/// The deterministic MAC of virtual host `vid` (locally-administered
/// `06:7f` prefix: disjoint from `MacAddr::from_index`'s `02:00` space and
/// the switches' port MACs).
fn virt_mac(vid: u32) -> MacAddr {
    let b = vid.to_be_bytes();
    MacAddr::new([0x06, 0x7f, b[0], b[1], b[2], b[3]])
}

/// The deterministic IP of virtual host `vid`.
fn virt_ip(vid: u32) -> IpAddr {
    IpAddr::from_u32(VIRT_IP_BASE.wrapping_add(vid))
}

/// The aggregation host parked on group `index`'s port.
fn agg_host_id(index: usize) -> HostId {
    debug_assert!(index <= u32::MAX as usize, "group index fits u32");
    HostId::new(AGG_HOST_BASE.wrapping_add(index as u32))
}

/// Per-group runtime: the group's RNG stream and on/off phase.
struct GroupRt {
    rng: StdRng,
    /// Whether the group is currently offering flows.
    on: bool,
    /// Bumped every time the group turns on; stale arrival events from a
    /// previous on-phase carry an older epoch and are dropped.
    epoch: u32,
}

/// Runtime state of the installed traffic plan. Lives in `NetState` so the
/// arrival path can advance port counters under disjoint field borrows.
///
/// The default state (no plan installed) holds no groups, no RNGs and no
/// flow cache — the zero-cost-when-disabled half of the contract.
#[derive(Default)]
pub(crate) struct TrafficState {
    pub(crate) plan: TrafficPlan,
    groups: Vec<GroupRt>,
    /// First virtual-host id of each group (prefix sums over group sizes).
    base: Vec<u32>,
    total_hosts: u32,
    /// Which virtual hosts have announced themselves (gratuitous ARP).
    announced: Vec<bool>,
    /// When each (source-group, destination-group) flow aggregate goes
    /// cold, row-major by source group; `SimTime::ZERO` for one that never
    /// carried a flow.
    flows: Vec<SimTime>,
}

impl TrafficState {
    /// Builds the runtime state for `plan`, deriving one RNG stream per
    /// group from the scenario seed.
    pub(crate) fn install(plan: TrafficPlan, seed: u64) -> Self {
        let traffic_seed = stream_seed(seed, TRAFFIC_STREAM);
        let groups: Vec<GroupRt> = (0..plan.groups().len())
            .map(|index| GroupRt {
                rng: StdRng::seed_from_u64(stream_seed(traffic_seed, index as u64)),
                on: false,
                epoch: 0,
            })
            .collect();
        let mut base = Vec::with_capacity(plan.groups().len());
        let mut total: u32 = 0;
        for g in plan.groups() {
            base.push(total);
            // The plan builder bounds total hosts at 2^23, so this cannot
            // overflow u32.
            total += g.hosts;
        }
        TrafficState {
            plan,
            base,
            total_hosts: total,
            announced: vec![false; total as usize],
            flows: vec![SimTime::ZERO; groups.len() * groups.len()],
            groups,
        }
    }

    /// The group owning virtual host `vid`.
    fn group_of(&self, vid: u32) -> usize {
        match self.base.binary_search(&vid) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }
}

/// Attaches one real aggregation host per group so expanded frames have a
/// registered ingress port and flooded replies terminate cheaply.
///
/// # Panics
/// Panics (via the spec builders) if a group names a missing switch or a
/// port that is already in use — a malformed plan must fail loudly at
/// build time, not mid-simulation.
pub(crate) fn prepare_spec(spec: &mut NetworkSpec, plan: &TrafficPlan) {
    for (index, g) in plan.groups().iter().enumerate() {
        let id = agg_host_id(index);
        let gb = (index as u16).to_be_bytes();
        let mac = MacAddr::new([0x06, 0xa6, gb[0], gb[1], 0, 0]);
        let ip = IpAddr::new(10, 127, gb[0], gb[1]);
        spec.add_host(id, mac, ip);
        spec.attach_host(
            id,
            g.edge,
            g.port,
            LinkProfile::fixed(Duration::from_micros(5)),
        );
    }
}

/// Handles a group's phase event: the first one (at `window.from`) turns
/// the group on; for on/off groups the event re-fires at each sampled
/// phase edge until the window closes.
pub(crate) fn on_phase(core: &mut SimCore, net: &mut NetState, group: u32) {
    let Some(grp) = net.traffic.plan.groups().get(group as usize).copied() else {
        return;
    };
    let Some(rt) = net.traffic.groups.get_mut(group as usize) else {
        return;
    };
    if core.now() >= grp.window.until {
        rt.on = false;
        return;
    }
    if rt.on {
        rt.on = false;
        let off = grp.profile.arrival.sample_phase(false, &mut rt.rng);
        core.schedule(off, Event::TrafficPhase { group });
        return;
    }
    rt.on = true;
    rt.epoch = rt.epoch.wrapping_add(1);
    let epoch = rt.epoch;
    let gap = grp.profile.sample_interarrival(grp.hosts, &mut rt.rng);
    core.schedule(gap, Event::TrafficArrival { group, epoch });
    if let ArrivalProcess::OnOff { .. } = grp.profile.arrival {
        let on = grp.profile.arrival.sample_phase(true, &mut rt.rng);
        core.schedule(on, Event::TrafficPhase { group });
    }
}

/// Handles one flow arrival: reschedules the chain, advances aggregate
/// state, and expands boundary packets.
pub(crate) fn on_arrival(core: &mut SimCore, net: &mut NetState, group: u32, epoch: u32) {
    let Some(grp) = net.traffic.plan.groups().get(group as usize).copied() else {
        return;
    };
    let now = core.now();

    // Everything that touches TrafficState happens first; the frames to
    // expand are collected and injected after the borrow ends.
    let mut inject: Vec<(DatapathId, PortNo, EthernetFrame)> = Vec::new();
    let mut arp_expansions: u64 = 0;
    let (bytes, packets, dst_edge, dst_port, first_packet) = {
        let ts = &mut net.traffic;
        let Some(rt) = ts.groups.get_mut(group as usize) else {
            return;
        };
        if !rt.on || rt.epoch != epoch {
            return; // stale arrival from a previous on-phase
        }
        if now >= grp.window.until {
            rt.on = false;
            return;
        }
        let gap = grp.profile.sample_interarrival(grp.hosts, &mut rt.rng);
        core.schedule(gap, Event::TrafficArrival { group, epoch });

        // Draw the flow: source host in this group, destination anywhere.
        let src_local = rt.rng.gen_range(0..grp.hosts);
        let dst_raw = rt.rng.gen_range(0..ts.total_hosts);
        let bytes = grp.profile.mix.sample_bytes(&mut rt.rng);
        let src_port_udp = 32768 + (rt.rng.next_u64() % 16384) as u16;
        let base = ts.base.get(group as usize).copied().unwrap_or(0);
        let src_vid = base + src_local;
        let dst_vid = if dst_raw == src_vid {
            (dst_raw + 1) % ts.total_hosts.max(1)
        } else {
            dst_raw
        };
        let dst_group = ts.group_of(dst_vid);
        let Some(dgrp) = ts.plan.groups().get(dst_group).copied() else {
            return;
        };

        // Boundary 1: first appearance of an endpoint ⇒ gratuitous ARP at
        // its aggregation port (the controller learns the host exactly the
        // way a real join would teach it).
        for (vid, edge, port) in [
            (src_vid, grp.edge, grp.port),
            (dst_vid, dgrp.edge, dgrp.port),
        ] {
            if let Some(seen) = ts.announced.get_mut(vid as usize) {
                if !*seen {
                    *seen = true;
                    let mac = virt_mac(vid);
                    let ip = virt_ip(vid);
                    let arp = ArpPacket::request(mac, ip, ip);
                    inject.push((
                        edge,
                        port,
                        EthernetFrame::new(mac, MacAddr::BROADCAST, Payload::Arp(arp)),
                    ));
                    arp_expansions += 1;
                }
            }
        }

        // Boundary 2: a cold (source-edge, destination-edge) aggregate ⇒
        // the flow's first packet enters for real and table-misses into a
        // PacketIn; a warm aggregate rides the installed rules.
        let pair = group as usize * ts.groups.len() + dst_group;
        let warm = ts
            .flows
            .get_mut(pair)
            .is_some_and(|expires| now < std::mem::replace(expires, now + FLOW_IDLE));
        let first_packet = !warm;
        if first_packet {
            let udp = UdpDatagram::new(src_port_udp, 443, Vec::new());
            let pkt = Ipv4Packet::new(virt_ip(src_vid), virt_ip(dst_vid), Transport::Udp(udp));
            inject.push((
                grp.edge,
                grp.port,
                EthernetFrame::new(virt_mac(src_vid), virt_mac(dst_vid), Payload::Ipv4(pkt)),
            ));
        }

        let packets = bytes.div_ceil(MTU);
        (bytes, packets, dgrp.edge, dgrp.port, first_packet)
    };

    // Aggregate accounting: the whole flow advances the endpoint port
    // counters in O(1) — packets are counted, never materialized.
    if let Some(p) = net
        .switches
        .get_mut(&grp.edge)
        .and_then(|sw| sw.ports.get_mut(&grp.port))
    {
        p.rx_packets += packets;
        p.rx_bytes += bytes;
    }
    if let Some(p) = net
        .switches
        .get_mut(&dst_edge)
        .and_then(|sw| sw.ports.get_mut(&dst_port))
    {
        p.tx_packets += packets;
        p.tx_bytes += bytes;
    }

    let t = &core.metrics.traffic;
    t.flows_offered.inc();
    t.bytes_offered.add(bytes);
    t.packets_aggregated.add(packets);
    if arp_expansions > 0 {
        t.expansions_arp.add(arp_expansions);
        t.hosts_announced.add(arp_expansions);
    }
    if first_packet {
        t.expansions_first_packet.inc();
    }
    if !inject.is_empty() {
        t.packets_expanded.add(inject.len() as u64);
    }

    for (dpid, port, frame) in inject {
        switch::handle_frame(core, net, dpid, port, frame);
    }
}
