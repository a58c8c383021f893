//! The Port Amnesia attack (§IV-A): link fabrication via LLDP relaying,
//! with behavioral-profile resets to evade TopoGuard.
//!
//! Two colluding hosts relay controller-emitted LLDP between their switch
//! ports, convincing the controller a direct switch-switch link exists
//! through them. TopoGuard would flag LLDP arriving at a HOST-profiled
//! port — so before injecting, the attacker bounces its interface long
//! enough to generate a Port-Down, resetting its profile to ANY
//! ("port amnesia").
//!
//! * [`OobRelayAttacker`] — relays over an out-of-band channel (Fig. 1's
//!   802.11 side link). One amnesia per port suffices; afterwards the
//!   fabricated link marks the ports as infrastructure and the bridge can
//!   carry man-in-the-middle traffic indefinitely. Evades TopoGuard and
//!   SPHINX; caught only by TopoGuard+'s Link Latency Inspector (the relay
//!   cannot avoid adding latency).
//! * [`InBandRelayAttacker`] — no side channel: the colluding hosts tunnel
//!   captured LLDP over the SDN dataplane itself (UDP encapsulation).
//!   Sending their own tunnel traffic re-profiles their ports HOST, so a
//!   *context switch* (another amnesia) is needed before every injection —
//!   adding ≥ 16 ms latency per relayed LLDP and producing the Port-Down-
//!   during-LLDP-propagation signature TopoGuard+'s CMM detects.

use std::collections::VecDeque;

use netsim::{FrameDisposition, HostApp, HostCtx};
use sdn_types::packet::{EthernetFrame, Ipv4Packet, Payload, Transport, UdpDatagram};
use sdn_types::{Duration, HostId, IpAddr, MacAddr};

/// Timer id for the delayed warmup broadcast.
const TIMER_WARMUP: u64 = 1;

/// UDP port used for the in-band LLDP tunnel.
pub const INBAND_LLDP_PORT: u16 = 41_414;
/// UDP port used for the in-band data bridge.
pub const INBAND_DATA_PORT: u16 = 41_415;

/// Relay configuration (shared by both variants).
#[derive(Clone, Copy, Debug)]
pub struct RelayConfig {
    /// The colluding peer host.
    pub peer: HostId,
    /// How long to hold the interface down so the switch registers a
    /// Port-Down. Must exceed the 802.3 pulse window's maximum (24 ms in
    /// the simulator); the paper's analysis says "at least 16 ms" (§V-A).
    pub hold_down: Duration,
    /// Generate some benign traffic so the port begins the scenario
    /// HOST-profiled (Fig. 1's starting state).
    pub warmup_traffic: bool,
    /// When the warmup traffic is sent (after the defenses' startup grace
    /// period, before the attack window).
    pub warmup_delay: Duration,
    /// Perform the port-amnesia bounce before injecting. A *stealthy*
    /// out-of-band attacker whose port was never HOST-profiled can skip it
    /// (and thereby evade the CMM; only the LLI catches it).
    pub use_amnesia: bool,
    /// Bridge non-LLDP dataplane frames across the fabricated link
    /// (man-in-the-middle mode).
    pub bridge_dataplane: bool,
    /// Peer identifiers for the in-band tunnel (ignored by the OOB
    /// variant).
    pub peer_ip: IpAddr,
    /// Peer MAC for the in-band tunnel.
    pub peer_mac: MacAddr,
    /// Ignore LLDP until this much time has elapsed — the paper launches
    /// its attacks one minute after controller bootstrap (§VII-A), after
    /// the defenses' baselines have formed.
    pub start_after: Duration,
    /// Fraction of bridged dataplane frames to drop (a greedy MITM). The
    /// paper notes SPHINX's counters stay consistent only because "all
    /// packets sent to the link are faithfully transited" — a lossy bridge
    /// breaks counter conservation and gets caught.
    pub drop_fraction: f64,
}

impl RelayConfig {
    /// The default amnesia hold, just past the simulator's 24 ms pulse
    /// window (see [`RelayConfig::hold_down`]).
    pub const DEFAULT_HOLD_DOWN: Duration = Duration::from_millis(25);

    /// Defaults for an out-of-band relay toward `peer`.
    pub fn oob(peer: HostId) -> Self {
        RelayConfig {
            peer,
            hold_down: RelayConfig::DEFAULT_HOLD_DOWN,
            warmup_traffic: true,
            use_amnesia: true,
            bridge_dataplane: true,
            peer_ip: IpAddr::UNSPECIFIED,
            peer_mac: MacAddr::ZERO,
            warmup_delay: Duration::from_secs(1),
            start_after: Duration::ZERO,
            drop_fraction: 0.0,
        }
    }

    /// A stealthy out-of-band relay: never originates traffic, never
    /// bounces its port.
    pub fn oob_stealthy(peer: HostId) -> Self {
        RelayConfig {
            warmup_traffic: false,
            use_amnesia: false,
            ..RelayConfig::oob(peer)
        }
    }

    /// Defaults for an in-band relay toward `peer` at `(peer_mac,
    /// peer_ip)`.
    pub fn in_band(peer: HostId, peer_mac: MacAddr, peer_ip: IpAddr) -> Self {
        RelayConfig {
            bridge_dataplane: false,
            peer_ip,
            peer_mac,
            ..RelayConfig::oob(peer)
        }
    }
}

/// Relay statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RelayStats {
    /// LLDP frames captured on the SDN interface.
    pub lldp_captured: u64,
    /// LLDP frames injected out of the SDN interface.
    pub lldp_injected: u64,
    /// Port-amnesia cycles performed.
    pub amnesia_cycles: u64,
    /// Dataplane frames bridged to the peer.
    pub bridged_to_peer: u64,
    /// Dataplane frames injected from the peer.
    pub bridged_from_peer: u64,
    /// Bridged frames deliberately dropped (greedy MITM mode).
    pub dropped: u64,
}

/// How long after the first LLDP injection the bridge waits before
/// carrying dataplane traffic — time for the controller to commit the link
/// and mark the ports as infrastructure (bridging earlier would register
/// bogus host migrations and give the game away).
const BRIDGE_GRACE: Duration = Duration::from_millis(200);

/// Out-of-band Port Amnesia relay (Fig. 1).
pub struct OobRelayAttacker {
    config: RelayConfig,
    /// Statistics.
    pub stats: RelayStats,
    /// Frames awaiting injection (held while the interface bounces).
    pending: VecDeque<EthernetFrame>,
    amnesia_done: bool,
    bouncing: bool,
    first_injected_at: Option<sdn_types::SimTime>,
}

impl OobRelayAttacker {
    /// Creates the relay endpoint.
    pub fn new(config: RelayConfig) -> Self {
        OobRelayAttacker {
            config,
            stats: RelayStats::default(),
            pending: VecDeque::new(),
            amnesia_done: false,
            bouncing: false,
            first_injected_at: None,
        }
    }

    fn bridge_active(&self, now: sdn_types::SimTime) -> bool {
        self.config.bridge_dataplane
            && self
                .first_injected_at
                .is_some_and(|t| now.since(t) >= BRIDGE_GRACE)
    }

    fn inject(&mut self, ctx: &mut HostCtx<'_>, frame: EthernetFrame) {
        if frame.is_lldp() {
            self.stats.lldp_injected += 1;
            if self.first_injected_at.is_none() {
                self.first_injected_at = Some(ctx.now());
            }
        } else {
            self.stats.bridged_from_peer += 1;
        }
        ctx.send_frame(frame);
    }
}

impl HostApp for OobRelayAttacker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Attackers are quiet hosts: they never answer probes as themselves
        // while acting as a link.
        ctx.set_respond_icmp(false);
        ctx.set_respond_tcp(false);
        if self.config.warmup_traffic {
            ctx.set_timer(self.config.warmup_delay, TIMER_WARMUP);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id == TIMER_WARMUP {
            // Originate one broadcast so TopoGuard profiles the port HOST —
            // the paper's starting condition (Fig. 1).
            let info = ctx.info();
            let arp = sdn_types::packet::ArpPacket::request(
                info.mac,
                info.ip,
                IpAddr::new(10, 0, 0, 254),
            );
            ctx.send_frame(EthernetFrame::new(
                info.mac,
                MacAddr::BROADCAST,
                Payload::Arp(arp),
            ));
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if ctx.now().as_nanos() < self.config.start_after.as_nanos() {
            // Lying low until the attack window opens.
            return FrameDisposition::Pass;
        }
        if frame.is_lldp() {
            // Step (1)-(2): capture and relay over the side channel.
            self.stats.lldp_captured += 1;
            ctx.oob_send(self.config.peer, frame.clone());
            return FrameDisposition::Consume;
        }
        if self.bridge_active(ctx.now()) {
            // Man-in-the-middle: once the fake link is committed,
            // everything else transits it — unless this is a greedy MITM
            // configured to drop a fraction of it.
            if self.config.drop_fraction > 0.0
                && tm_rand::Rng::gen_bool(ctx.rng(), self.config.drop_fraction)
            {
                self.stats.dropped += 1;
                return FrameDisposition::Consume;
            }
            self.stats.bridged_to_peer += 1;
            ctx.oob_send(self.config.peer, frame.clone());
            return FrameDisposition::Consume;
        }
        FrameDisposition::Pass
    }

    fn on_oob_frame(&mut self, ctx: &mut HostCtx<'_>, _from: HostId, frame: EthernetFrame) {
        let needs_amnesia = self.config.use_amnesia && frame.is_lldp() && !self.amnesia_done;
        if needs_amnesia {
            // Step (3): bounce the interface past the pulse window so the
            // profiler forgets this port was a HOST.
            self.pending.push_back(frame);
            if !self.bouncing {
                self.bouncing = true;
                self.stats.amnesia_cycles += 1;
                ctx.iface_down();
                ctx.schedule_iface_up(self.config.hold_down, None);
            }
            return;
        }
        if self.bouncing {
            // Queue everything while the interface is down.
            self.pending.push_back(frame);
            return;
        }
        self.inject(ctx, frame);
    }

    fn on_iface_up(&mut self, ctx: &mut HostCtx<'_>) {
        if !self.bouncing {
            return;
        }
        self.bouncing = false;
        self.amnesia_done = true;
        // Step (4): inject the relayed frames.
        while let Some(frame) = self.pending.pop_front() {
            self.inject(ctx, frame);
        }
    }
}

/// The attacker's belief about its port's current TopoGuard class — the
/// state it must context-switch between (§IV-A):
///
/// > "the colluding hosts must be seen as switches while originating
/// > packets sent over the inferred link, but also be seen as hosts while
/// > sending packets over their secure channel."
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PortBelief {
    /// Freshly reset (after a Port-Down) — anything may be sent next.
    Any,
    /// We last originated host-like (tunnel) traffic.
    Host,
    /// We last injected LLDP.
    Switch,
}

/// A queued action awaiting the right port class.
enum PendingAction {
    /// Tunnel `frame` to the peer over UDP `port` (host-like traffic).
    AsHost(EthernetFrame, u16),
    /// Inject `frame` raw onto the wire (switch-like traffic).
    AsSwitch(EthernetFrame),
}

impl PendingAction {
    fn required(&self) -> PortBelief {
        match self {
            PendingAction::AsHost(..) => PortBelief::Host,
            PendingAction::AsSwitch(..) => PortBelief::Switch,
        }
    }
}

/// In-band Port Amnesia relay: tunnels LLDP over the SDN dataplane and
/// context-switches (bounces its port) between HOST and SWITCH roles —
/// before every LLDP injection *and* before returning to tunnel traffic,
/// as the paper requires. Each switch costs at least one link-pulse window
/// (≥ 16 ms), the in-band channel's inherent latency penalty (§V-A).
pub struct InBandRelayAttacker {
    config: RelayConfig,
    /// Statistics.
    pub stats: RelayStats,
    queue: VecDeque<PendingAction>,
    belief: PortBelief,
    bouncing: bool,
}

impl InBandRelayAttacker {
    /// Creates the relay endpoint.
    pub fn new(config: RelayConfig) -> Self {
        InBandRelayAttacker {
            config,
            stats: RelayStats::default(),
            queue: VecDeque::new(),
            belief: PortBelief::Any,
            bouncing: false,
        }
    }

    fn tunnel_now(&mut self, ctx: &mut HostCtx<'_>, inner: &EthernetFrame, port: u16) {
        let info = ctx.info();
        let dgram = UdpDatagram::new(port, port, inner.encode());
        let pkt = Ipv4Packet::new(info.ip, self.config.peer_ip, Transport::Udp(dgram));
        ctx.send_ipv4(self.config.peer_mac, pkt);
    }

    /// Executes queued actions whose required class matches the current
    /// belief; otherwise performs a port-amnesia bounce and retries on
    /// interface-up.
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        if self.bouncing {
            return;
        }
        while let Some(front_kind) = self.queue.front().map(|a| a.required()) {
            if self.belief == PortBelief::Any || self.belief == front_kind {
                let Some(action) = self.queue.pop_front() else {
                    break;
                };
                match action {
                    PendingAction::AsHost(frame, port) => {
                        self.tunnel_now(ctx, &frame, port);
                        self.belief = PortBelief::Host;
                    }
                    PendingAction::AsSwitch(frame) => {
                        if frame.is_lldp() {
                            self.stats.lldp_injected += 1;
                        }
                        ctx.send_frame(frame);
                        self.belief = PortBelief::Switch;
                    }
                }
            } else {
                // Wrong class: context switch via port amnesia.
                self.bouncing = true;
                self.stats.amnesia_cycles += 1;
                ctx.iface_down();
                ctx.schedule_iface_up(self.config.hold_down, None);
                return;
            }
        }
    }

    fn enqueue(&mut self, ctx: &mut HostCtx<'_>, action: PendingAction) {
        self.queue.push_back(action);
        self.pump(ctx);
    }
}

impl HostApp for InBandRelayAttacker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_respond_icmp(false);
        ctx.set_respond_tcp(false);
        if self.config.warmup_traffic {
            ctx.set_timer(self.config.warmup_delay, TIMER_WARMUP);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id == TIMER_WARMUP {
            let info = ctx.info();
            let arp = sdn_types::packet::ArpPacket::request(info.mac, info.ip, self.config.peer_ip);
            ctx.send_frame(EthernetFrame::new(
                info.mac,
                MacAddr::BROADCAST,
                Payload::Arp(arp),
            ));
            self.belief = PortBelief::Host;
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if ctx.now().as_nanos() < self.config.start_after.as_nanos() {
            return FrameDisposition::Pass;
        }
        if frame.is_lldp() {
            // Capture: tunnel to the peer over the dataplane. Tunnel
            // traffic is our own first-hop (host-like) traffic, so if the
            // port is currently profiled SWITCH we must context-switch
            // first — the cost of having no side channel.
            self.stats.lldp_captured += 1;
            self.enqueue(ctx, PendingAction::AsHost(frame.clone(), INBAND_LLDP_PORT));
            return FrameDisposition::Consume;
        }

        // Tunnel arrivals addressed to us. The destination check matters:
        // once the fabricated link shortcuts the attackers' own dataplane
        // path, the controller routes our tunnel packets back out our own
        // port — those echoes must be dropped, not decapsulated, or the
        // relay would advertise a switch port linked to itself.
        let Some(ip) = frame.ipv4() else {
            return FrameDisposition::Pass;
        };
        if ip.dst != ctx.info().ip {
            if let Transport::Udp(dgram) = &ip.transport {
                if dgram.dst_port == INBAND_LLDP_PORT || dgram.dst_port == INBAND_DATA_PORT {
                    return FrameDisposition::Consume; // our own echoed tunnel traffic
                }
            }
            return FrameDisposition::Pass;
        }
        if let Transport::Udp(dgram) = &ip.transport {
            if dgram.dst_port == INBAND_LLDP_PORT {
                if let Ok(inner) = EthernetFrame::parse(&dgram.data) {
                    // Injecting LLDP is switch-like: context-switch if the
                    // port is currently HOST — every single time.
                    self.enqueue(ctx, PendingAction::AsSwitch(inner));
                }
                return FrameDisposition::Consume;
            }
            if dgram.dst_port == INBAND_DATA_PORT {
                if let Ok(inner) = EthernetFrame::parse(&dgram.data) {
                    self.stats.bridged_from_peer += 1;
                    self.enqueue(ctx, PendingAction::AsSwitch(inner));
                }
                return FrameDisposition::Consume;
            }
        }

        if self.config.bridge_dataplane {
            self.stats.bridged_to_peer += 1;
            self.enqueue(ctx, PendingAction::AsHost(frame.clone(), INBAND_DATA_PORT));
            return FrameDisposition::Consume;
        }
        FrameDisposition::Pass
    }

    fn on_iface_up(&mut self, ctx: &mut HostCtx<'_>) {
        if !self.bouncing {
            return;
        }
        self.bouncing = false;
        self.belief = PortBelief::Any;
        self.pump(ctx);
    }
}
