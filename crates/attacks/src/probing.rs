//! The Port Probing attack (§IV-B): precisely timing a host-location
//! hijack against a victim that is legitimately moving.
//!
//! The attacker (1) harvests the victim's MAC with `arping`, (2) probes the
//! victim's liveness on a tight loop, (3) the instant a probe times out,
//! changes its own identifiers to the victim's with `ifconfig`, and (4)
//! originates traffic so the controller "completes" the victim's migration
//! onto the attacker's port. Every phase transition is timestamped in
//! [`ProbingTimeline`], which is exactly the instrumentation behind the
//! paper's Figs. 3–8.

use std::collections::BTreeMap;

use netsim::{FrameDisposition, HostApp, HostCtx};
use sdn_types::packet::{ArpPacket, EthernetFrame, Payload};
use sdn_types::{Duration, IpAddr, MacAddr, SimTime};

use crate::iface::IdentChangeModel;
use crate::probe::ProbeKind;

/// Attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProbingConfig {
    /// The victim's IP address (all the attacker needs up front).
    pub victim_ip: IpAddr,
    /// The liveness technique (the paper chooses ARP ping).
    pub probe: ProbeKind,
    /// Probe period. The paper settles on one probe every 50 ms (§V-B2).
    pub probe_interval: Duration,
    /// Probe timeout. The paper derives 35 ms from `N(20 ms, 5 ms)` at a
    /// 1 % false-positive rate (§V-B1).
    pub probe_timeout: Duration,
    /// When to begin the attack.
    pub start_delay: Duration,
    /// `ifconfig` latency model.
    pub ident_model: IdentChangeModel,
    /// An address to solicit after the hijack so the controller sees
    /// spoofed traffic immediately (any dataplane traffic suffices).
    pub originate_target: IpAddr,
}

impl ProbingConfig {
    /// The paper's 35 ms probe timeout (see [`ProbingConfig::probe_timeout`]).
    pub const PAPER_TIMEOUT: Duration = Duration::from_millis(35);

    /// The paper's parameters against `victim_ip`.
    pub fn paper_default(victim_ip: IpAddr, originate_target: IpAddr) -> Self {
        ProbingConfig {
            victim_ip,
            probe: ProbeKind::ArpPing,
            probe_interval: Duration::from_millis(50),
            probe_timeout: ProbingConfig::PAPER_TIMEOUT,
            start_delay: Duration::from_millis(500),
            ident_model: IdentChangeModel::paper_default(),
            originate_target,
        }
    }
}

/// The attack's phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbingPhase {
    /// Harvesting the victim's MAC via `arping`.
    AcquireMac,
    /// Probing the victim's liveness.
    Monitoring,
    /// `ifconfig` is changing our identifiers to the victim's.
    Hijacking,
    /// We are the victim, as far as the network can tell.
    Impersonating,
}

/// Timestamped milestones (Fig. 3's timeline).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbingTimeline {
    /// The harvested victim MAC.
    pub victim_mac: Option<MacAddr>,
    /// When the final (timed-out) probe was sent — Fig. 7's event.
    pub final_probe_start: Option<SimTime>,
    /// When that probe's timeout expired, i.e. the attacker first *knows*
    /// the victim is gone — Fig. 8's event.
    pub believed_down_at: Option<SimTime>,
    /// When `ifconfig` started.
    pub ident_change_started: Option<SimTime>,
    /// The sampled `ifconfig` duration (Fig. 4's distribution).
    pub ident_change_duration: Option<Duration>,
    /// When the interface came up bearing the victim's identity — Fig. 5's
    /// event.
    pub iface_up_at: Option<SimTime>,
    /// When the first spoofed frame was transmitted.
    pub first_spoofed_tx_at: Option<SimTime>,
    /// Probes sent while monitoring.
    pub probes_sent: u64,
    /// Probe replies seen.
    pub replies_seen: u64,
}

const TIMER_START: u64 = 1;
const TIMER_PROBE: u64 = 2;
const TIMER_ACQUIRE_RETRY: u64 = 3;
const TIMER_TIMEOUT_BASE: u64 = 1000;

/// The Port Probing attacker host application.
pub struct PortProbingAttacker {
    config: ProbingConfig,
    /// Current phase.
    pub phase: ProbingPhase,
    /// Milestones.
    pub timeline: ProbingTimeline,
    seq: u16,
    sent_at: BTreeMap<u16, SimTime>,
    last_reply_at: Option<SimTime>,
    own_mac: Option<MacAddr>,
    own_ip: Option<IpAddr>,
}

impl PortProbingAttacker {
    /// Creates the attacker.
    pub fn new(config: ProbingConfig) -> Self {
        PortProbingAttacker {
            config,
            phase: ProbingPhase::AcquireMac,
            timeline: ProbingTimeline::default(),
            seq: 0,
            sent_at: BTreeMap::new(),
            last_reply_at: None,
            own_mac: None,
            own_ip: None,
        }
    }

    fn arping(&mut self, ctx: &mut HostCtx<'_>) {
        let info = ctx.info();
        let arp = ArpPacket::request(info.mac, info.ip, self.config.victim_ip);
        ctx.send_frame(EthernetFrame::new(
            info.mac,
            MacAddr::BROADCAST,
            Payload::Arp(arp),
        ));
    }

    fn send_probe(&mut self, ctx: &mut HostCtx<'_>) {
        let Some(victim_mac) = self.timeline.victim_mac else {
            return;
        };
        let info = ctx.info();
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        if let Some(frame) =
            self.config
                .probe
                .build_probe(info.mac, info.ip, victim_mac, self.config.victim_ip, seq)
        {
            if ctx.send_frame(frame) {
                self.timeline.probes_sent += 1;
                self.sent_at.insert(seq, ctx.now());
                ctx.set_timer(
                    self.config.probe_timeout,
                    TIMER_TIMEOUT_BASE + u64::from(seq),
                );
            }
        }
    }

    fn begin_hijack(&mut self, ctx: &mut HostCtx<'_>) {
        // The probing phase machine only reaches hijack after a probe
        // response revealed the victim's MAC; bail (debug-asserting)
        // rather than panic if a scenario drives the phases out of order.
        debug_assert!(
            self.timeline.victim_mac.is_some(),
            "hijack before MAC acquired"
        );
        let Some(victim_mac) = self.timeline.victim_mac else {
            return;
        };
        self.phase = ProbingPhase::Hijacking;
        self.timeline.ident_change_started = Some(ctx.now());
        let duration = self.config.ident_model.sample_ident_change(ctx.rng());
        self.timeline.ident_change_duration = Some(duration);
        // `ifconfig down; ifconfig hw ether <mac>; ifconfig <ip> up`.
        ctx.iface_down();
        ctx.schedule_iface_up(duration, Some((victim_mac, self.config.victim_ip)));
    }
}

impl HostApp for PortProbingAttacker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let info = ctx.info();
        self.own_mac = Some(info.mac);
        self.own_ip = Some(info.ip);
        ctx.set_timer(self.config.start_delay, TIMER_START);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        match id {
            TIMER_START => {
                self.arping(ctx);
                ctx.set_timer(Duration::from_millis(200), TIMER_ACQUIRE_RETRY);
            }
            TIMER_ACQUIRE_RETRY if self.phase == ProbingPhase::AcquireMac => {
                self.arping(ctx);
                ctx.set_timer(Duration::from_millis(200), TIMER_ACQUIRE_RETRY);
            }
            TIMER_PROBE if self.phase == ProbingPhase::Monitoring => {
                self.send_probe(ctx);
                ctx.set_timer(self.config.probe_interval, TIMER_PROBE);
            }
            id if id >= TIMER_TIMEOUT_BASE => {
                if self.phase != ProbingPhase::Monitoring {
                    return;
                }
                let seq = (id - TIMER_TIMEOUT_BASE) as u16;
                let Some(&sent) = self.sent_at.get(&seq) else {
                    return;
                };
                // Did any reply arrive after this probe went out?
                let answered = self.last_reply_at.is_some_and(|r| r >= sent);
                if !answered {
                    // The victim is gone: this was the final probe.
                    self.timeline.final_probe_start = Some(sent);
                    self.timeline.believed_down_at = Some(ctx.now());
                    self.begin_hijack(ctx);
                }
                self.sent_at.remove(&seq);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        match self.phase {
            ProbingPhase::AcquireMac => {
                if let Some(arp) = frame.arp() {
                    if arp.op == sdn_types::packet::ArpOp::Reply
                        && arp.sender_ip == self.config.victim_ip
                    {
                        self.timeline.victim_mac = Some(arp.sender_mac);
                        self.phase = ProbingPhase::Monitoring;
                        ctx.set_timer(self.config.probe_interval, TIMER_PROBE);
                        return FrameDisposition::Consume;
                    }
                }
            }
            ProbingPhase::Monitoring => {
                if self.config.probe.is_reply(frame, self.config.victim_ip) {
                    self.last_reply_at = Some(ctx.now());
                    self.timeline.replies_seen += 1;
                    return FrameDisposition::Consume;
                }
            }
            // While hijacking/impersonating, let the default stack answer as
            // the victim (the whole point of the impersonation).
            ProbingPhase::Hijacking | ProbingPhase::Impersonating => {}
        }
        FrameDisposition::Pass
    }

    fn on_iface_up(&mut self, ctx: &mut HostCtx<'_>) {
        if self.phase != ProbingPhase::Hijacking {
            return;
        }
        self.phase = ProbingPhase::Impersonating;
        self.timeline.iface_up_at = Some(ctx.now());
        // Originate traffic as the victim: any dataplane packet creates the
        // PacketIn that completes the "migration" (§IV-B step 4).
        let info = ctx.info();
        let arp = ArpPacket::request(info.mac, info.ip, self.config.originate_target);
        if ctx.send_frame(EthernetFrame::new(
            info.mac,
            MacAddr::BROADCAST,
            Payload::Arp(arp),
        )) {
            self.timeline.first_spoofed_tx_at = Some(ctx.now());
        }
    }
}
