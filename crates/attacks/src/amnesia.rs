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
//! One [`RelayAttacker`] runs the attack over either channel, picked by
//! [`RelayConfig::tunnel`]:
//!
//! * out of band (`None`) — relays over a side channel (Fig. 1's 802.11
//!   side link). One amnesia per port suffices; afterwards the fabricated
//!   link marks the ports as infrastructure and the bridge can carry
//!   man-in-the-middle traffic indefinitely. Evades TopoGuard and SPHINX;
//!   caught only by TopoGuard+'s Link Latency Inspector (the relay cannot
//!   avoid adding latency).
//! * in band (`Some(peer)`) — no side channel: the colluding hosts tunnel
//!   captured LLDP over the SDN dataplane itself (UDP encapsulation).
//!   Sending their own tunnel traffic re-profiles their ports HOST, so a
//!   *context switch* (another amnesia) is needed before every injection —
//!   adding ≥ 16 ms latency per relayed LLDP and producing the Port-Down-
//!   during-LLDP-propagation signature TopoGuard+'s CMM detects.
//!
//! Both channels follow one rule. Injecting LLDP needs the port
//! SWITCH-profiled, tunnelling needs it HOST-profiled, and a bridged
//! dataplane frame needs neither; when the relay's belief about its port
//! conflicts with the next frame, it bounces first and holds every frame
//! until the port is back up.

use std::collections::VecDeque;

use netsim::{FrameDisposition, HostApp, HostCtx};
use sdn_types::packet::{ArpPacket, EthernetFrame, Ipv4Packet, Payload, Transport, UdpDatagram};
use sdn_types::{Duration, HostId, IpAddr, MacAddr, SimTime};

/// Timer id for the delayed warmup broadcast.
const TIMER_WARMUP: u64 = 1;

/// When the warmup traffic is sent: after the defenses' startup grace
/// period, before the attack window.
const WARMUP_DELAY: Duration = Duration::from_secs(1);

/// UDP port used for the in-band LLDP tunnel.
pub const INBAND_LLDP_PORT: u16 = 41_414;

/// Relay configuration.
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
    /// Perform the port-amnesia bounce when the port's class conflicts
    /// with the next frame. A *stealthy* out-of-band attacker whose port
    /// was never HOST-profiled never conflicts (and thereby evades the
    /// CMM; only the LLI catches it).
    pub use_amnesia: bool,
    /// Bridge non-LLDP dataplane frames to the peer over the out-of-band
    /// channel (man-in-the-middle mode). A tunnelling relay never bridges.
    pub bridge_dataplane: bool,
    /// The channel to the peer: `None` relays over the out-of-band
    /// channel, `Some((mac, ip))` tunnels over UDP to the peer at that
    /// dataplane identity.
    pub tunnel: Option<(MacAddr, IpAddr)>,
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
            tunnel: None,
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
            tunnel: Some((peer_mac, peer_ip)),
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

/// A TopoGuard port class — the state the attacker context-switches
/// between (§IV-A):
///
/// > "the colluding hosts must be seen as switches while originating
/// > packets sent over the inferred link, but also be seen as hosts while
/// > sending packets over their secure channel."
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PortClass {
    /// Originating host-like traffic (the warmup ARP, the tunnel).
    Host,
    /// Injecting LLDP.
    Switch,
}

/// A frame awaiting its port class.
enum Pending {
    /// Tunnel captured LLDP to the peer (host-like traffic).
    Tunnel(EthernetFrame),
    /// Put a frame the peer relayed on the wire.
    Inject(EthernetFrame),
}

impl Pending {
    /// The class the port must show for this frame; `None` for a bridged
    /// dataplane frame, which fits either and changes neither.
    fn needs(&self) -> Option<PortClass> {
        match self {
            Pending::Tunnel(_) => Some(PortClass::Host),
            Pending::Inject(frame) => frame.is_lldp().then_some(PortClass::Switch),
        }
    }
}

/// A Port Amnesia relay endpoint over the channel its
/// [`RelayConfig::tunnel`] picks.
pub struct RelayAttacker {
    config: RelayConfig,
    /// Statistics.
    pub stats: RelayStats,
    /// Frames awaiting their port class (held while the interface bounces).
    queue: VecDeque<Pending>,
    /// The class the port last showed; `None` once a Port-Down reset it.
    belief: Option<PortClass>,
    bouncing: bool,
    first_injected_at: Option<SimTime>,
}

impl RelayAttacker {
    /// Creates the relay endpoint.
    pub fn new(config: RelayConfig) -> Self {
        RelayAttacker {
            config,
            stats: RelayStats::default(),
            queue: VecDeque::new(),
            belief: None,
            bouncing: false,
            first_injected_at: None,
        }
    }

    fn bridge_active(&self, now: SimTime) -> bool {
        self.config.bridge_dataplane
            && self
                .first_injected_at
                .is_some_and(|t| now.since(t) >= BRIDGE_GRACE)
    }

    fn enqueue(&mut self, ctx: &mut HostCtx<'_>, frame: Pending) {
        self.queue.push_back(frame);
        self.pump(ctx);
    }

    /// Sends queued frames while the port's class allows them; on a
    /// conflict, performs a port-amnesia bounce and resumes on
    /// interface-up.
    fn pump(&mut self, ctx: &mut HostCtx<'_>) {
        while !self.bouncing {
            let Some(needs) = self.queue.front().map(Pending::needs) else {
                return;
            };
            let conflicts = matches!((self.belief, needs), (Some(b), Some(n)) if b != n);
            if conflicts && self.config.use_amnesia {
                // Wrong class: context switch via port amnesia.
                self.bouncing = true;
                self.stats.amnesia_cycles += 1;
                ctx.iface_down();
                ctx.schedule_iface_up(self.config.hold_down, None);
                return;
            }
            match self.queue.pop_front() {
                Some(Pending::Tunnel(frame)) => self.tunnel(ctx, &frame),
                Some(Pending::Inject(frame)) => self.inject(ctx, frame),
                None => return,
            }
            self.belief = needs.or(self.belief);
        }
    }

    fn tunnel(&self, ctx: &mut HostCtx<'_>, inner: &EthernetFrame) {
        let Some((peer_mac, peer_ip)) = self.config.tunnel else {
            return;
        };
        let info = ctx.info();
        let dgram = UdpDatagram::new(INBAND_LLDP_PORT, INBAND_LLDP_PORT, inner.encode());
        let pkt = Ipv4Packet::new(info.ip, peer_ip, Transport::Udp(dgram));
        ctx.send_ipv4(peer_mac, pkt);
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

    /// A non-LLDP frame at a tunnelling relay: the peer's tunnelled LLDP
    /// is decapsulated for injection. The destination check matters: once
    /// the fabricated link shortcuts the attackers' own dataplane path,
    /// the controller routes our tunnel packets back out our own port —
    /// those echoes must be dropped, not decapsulated, or the relay would
    /// advertise a switch port linked to itself.
    fn on_tunnel_frame(
        &mut self,
        ctx: &mut HostCtx<'_>,
        frame: &EthernetFrame,
    ) -> FrameDisposition {
        let Some(ip) = frame.ipv4() else {
            return FrameDisposition::Pass;
        };
        let Transport::Udp(dgram) = &ip.transport else {
            return FrameDisposition::Pass;
        };
        if dgram.dst_port != INBAND_LLDP_PORT {
            return FrameDisposition::Pass;
        }
        if ip.dst == ctx.info().ip {
            if let Ok(inner) = EthernetFrame::parse(&dgram.data) {
                self.enqueue(ctx, Pending::Inject(inner));
            }
        }
        FrameDisposition::Consume
    }
}

impl HostApp for RelayAttacker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Attackers are quiet hosts: they never answer probes as themselves
        // while acting as a link.
        ctx.set_respond_icmp(false);
        ctx.set_respond_tcp(false);
        if self.config.warmup_traffic {
            ctx.set_timer(WARMUP_DELAY, TIMER_WARMUP);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id == TIMER_WARMUP {
            // Originate one broadcast so TopoGuard profiles the port HOST —
            // the paper's starting condition (Fig. 1). A tunnelling relay
            // resolves its peer; an out-of-band one asks for the gateway.
            let target = self
                .config
                .tunnel
                .map_or(IpAddr::new(10, 0, 0, 254), |(_, ip)| ip);
            let info = ctx.info();
            let arp = ArpPacket::request(info.mac, info.ip, target);
            ctx.send_frame(EthernetFrame::new(
                info.mac,
                MacAddr::BROADCAST,
                Payload::Arp(arp),
            ));
            self.belief = Some(PortClass::Host);
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if ctx.now().as_nanos() < self.config.start_after.as_nanos() {
            // Lying low until the attack window opens.
            return FrameDisposition::Pass;
        }
        if frame.is_lldp() {
            // Step (1)-(2): capture and relay to the peer. Tunnel traffic
            // is our own first-hop (host-like) traffic, so it waits for a
            // HOST port — the cost of having no side channel.
            self.stats.lldp_captured += 1;
            if self.config.tunnel.is_some() {
                self.enqueue(ctx, Pending::Tunnel(frame.clone()));
            } else {
                ctx.oob_send(self.config.peer, frame.clone());
            }
            return FrameDisposition::Consume;
        }
        if self.config.tunnel.is_some() {
            return self.on_tunnel_frame(ctx, frame);
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
        // Steps (3)-(4): inject what the peer relayed, bouncing first if
        // the port's class conflicts.
        self.enqueue(ctx, Pending::Inject(frame));
    }

    fn on_iface_up(&mut self, ctx: &mut HostCtx<'_>) {
        if !self.bouncing {
            return;
        }
        self.bouncing = false;
        self.belief = None;
        self.pump(ctx);
    }
}
