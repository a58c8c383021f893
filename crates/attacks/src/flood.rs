//! Alert flooding (§IV-B, "Alert Floods"): spoofing existing identifiers
//! from the attacker's port to bury a real hijack in spurious migration
//! alerts.
//!
//! Because TopoGuard/SPHINX alerts "do not alter network state in any way",
//! an attacker can cheaply generate one alert per spoofed identifier and
//! overwhelm the operator's triage queue while a real hijack persists
//! elsewhere.

use netsim::{HostApp, HostCtx};
use sdn_types::packet::{ArpPacket, EthernetFrame, Payload};
use sdn_types::{Duration, IpAddr, MacAddr};

/// Flood configuration.
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// Identifiers to spoof — typically every host the attacker has seen on
    /// the subnet.
    pub victims: Vec<(MacAddr, IpAddr)>,
    /// Delay between spoofed frames.
    pub interval: Duration,
    /// When to begin.
    pub start_delay: Duration,
}

const TIMER_NEXT: u64 = 1;

/// The alert-flooding host application.
pub struct AlertFloodAttacker {
    config: FloodConfig,
    cursor: usize,
    /// Spoofed frames sent.
    pub spoofs_sent: u64,
}

impl AlertFloodAttacker {
    /// Creates the attacker.
    pub fn new(config: FloodConfig) -> Self {
        AlertFloodAttacker {
            config,
            cursor: 0,
            spoofs_sent: 0,
        }
    }
}

impl HostApp for AlertFloodAttacker {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Stay otherwise silent.
        ctx.set_respond_icmp(false);
        ctx.set_respond_tcp(false);
        ctx.set_respond_arp(false);
        ctx.set_timer(self.config.start_delay, TIMER_NEXT);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id != TIMER_NEXT || self.config.victims.is_empty() {
            return;
        }
        let (mac, ip) = self.config.victims[self.cursor % self.config.victims.len()];
        self.cursor += 1;
        // A spoofed broadcast ARP: a PacketIn with the victim's identifiers
        // originating from our port. No Port-Down preceded it, so
        // TopoGuard's migration pre-condition fires — one alert per frame.
        let arp = ArpPacket::request(mac, ip, IpAddr::new(10, 0, 0, 254));
        ctx.send_frame(EthernetFrame::new(
            mac,
            MacAddr::BROADCAST,
            Payload::Arp(arp),
        ));
        self.spoofs_sent += 1;
        ctx.set_timer(self.config.interval, TIMER_NEXT);
    }
}
