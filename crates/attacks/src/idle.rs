//! TCP idle scan mechanics (§IV-B1, Table I's "Very High" stealth probe).
//!
//! The attacker never contacts the victim directly. Instead it:
//!
//! 1. Sends an unsolicited SYN-ACK to a *zombie* host and reads the IP-ID
//!    of the RST that comes back (the baseline).
//! 2. Sends a SYN to the victim **spoofed as the zombie** (L2 and L3).
//!    If the victim's port is open it SYN-ACKs the zombie, and the zombie's
//!    RST response consumes one IP-ID.
//! 3. Re-probes the zombie. An IP-ID delta of 2 (one for step 2's side
//!    effect, one for this probe's RST) means the victim is alive with the
//!    port open; a delta of 1 means no side effect was triggered.
//!
//! The probe works because many legacy TCP stacks use a single global,
//! sequentially-incrementing IP-ID counter — modeled by `netsim`'s host
//! stack.

use netsim::{FrameDisposition, HostApp, HostCtx};
use sdn_types::packet::{EthernetFrame, Ipv4Packet, Payload, TcpFlags, TcpSegment, Transport};
use sdn_types::{Duration, IpAddr, MacAddr, SimTime};

/// The outcome of one idle scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleScanResult {
    /// The zombie's IP-ID before the spoofed probe.
    pub baseline_ident: u16,
    /// The zombie's IP-ID after the spoofed probe.
    pub followup_ident: u16,
    /// Whether the victim answered the zombie (delta ≥ 2).
    pub victim_alive: bool,
    /// When the verdict was reached.
    pub at: SimTime,
}

/// Idle-scan configuration.
#[derive(Clone, Copy, Debug)]
pub struct IdleScanConfig {
    /// The zombie's MAC (needed to spoof L2).
    pub zombie_mac: MacAddr,
    /// The zombie's IP.
    pub zombie_ip: IpAddr,
    /// The victim's MAC.
    pub victim_mac: MacAddr,
    /// The victim's IP.
    pub victim_ip: IpAddr,
    /// An open port on the victim.
    pub victim_port: u16,
    /// Delay between scan steps (waits for RSTs to land).
    pub step_delay: Duration,
    /// When to start the scan.
    pub start_delay: Duration,
}

const TIMER_STEP: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Baseline,
    SpoofedSyn,
    Followup,
    Done,
}

/// The idle-scan prober host application. Runs one scan and records the
/// result.
pub struct IdleScanProber {
    config: IdleScanConfig,
    step: Step,
    baseline: Option<u16>,
    /// The scan result, once complete.
    pub result: Option<IdleScanResult>,
}

impl IdleScanProber {
    /// Creates the prober.
    pub fn new(config: IdleScanConfig) -> Self {
        IdleScanProber {
            config,
            step: Step::Baseline,
            baseline: None,
            result: None,
        }
    }

    fn probe_zombie(&mut self, ctx: &mut HostCtx<'_>) {
        // An unsolicited SYN-ACK provokes an RST carrying the zombie's
        // current IP-ID.
        let info = ctx.info();
        let seg = TcpSegment {
            src_port: 55_555,
            dst_port: 55_556,
            seq: 1,
            ack: 1,
            flags: TcpFlags::SYN_ACK,
            window: 1024,
            data: vec![],
        };
        let pkt = Ipv4Packet::new(info.ip, self.config.zombie_ip, Transport::Tcp(seg));
        ctx.send_ipv4(self.config.zombie_mac, pkt);
    }

    fn spoofed_syn(&mut self, ctx: &mut HostCtx<'_>) {
        // SYN to the victim, spoofed as the zombie at both layers: the
        // victim's SYN-ACK goes to the zombie, not to us.
        let seg = TcpSegment::syn(44_444, self.config.victim_port, 7);
        let pkt = Ipv4Packet::new(
            self.config.zombie_ip,
            self.config.victim_ip,
            Transport::Tcp(seg),
        );
        ctx.send_frame(EthernetFrame::new(
            self.config.zombie_mac,
            self.config.victim_mac,
            Payload::Ipv4(pkt),
        ));
    }
}

impl HostApp for IdleScanProber {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.config.start_delay, TIMER_STEP);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id != TIMER_STEP {
            return;
        }
        match self.step {
            Step::Baseline => {
                self.probe_zombie(ctx);
                // Wait for the RST in on_frame; it advances the step.
            }
            Step::SpoofedSyn => {
                self.spoofed_syn(ctx);
                self.step = Step::Followup;
                ctx.set_timer(self.config.step_delay, TIMER_STEP);
            }
            Step::Followup => {
                self.probe_zombie(ctx);
            }
            Step::Done => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        let Some(ip) = frame.ipv4() else {
            return FrameDisposition::Pass;
        };
        // Only RSTs the zombie addressed to *us* answer our probes; on a
        // broadcast medium we would otherwise misread the zombie's RST to
        // the victim's SYN-ACK as our follow-up response.
        if ip.src != self.config.zombie_ip || ip.dst != ctx.info().ip {
            return FrameDisposition::Pass;
        }
        let Transport::Tcp(tcp) = &ip.transport else {
            return FrameDisposition::Pass;
        };
        if !tcp.is_rst() {
            return FrameDisposition::Pass;
        }
        match self.step {
            Step::Baseline => {
                self.baseline = Some(ip.ident);
                self.step = Step::SpoofedSyn;
                ctx.set_timer(self.config.step_delay, TIMER_STEP);
            }
            Step::Followup => {
                // Followup is only entered after Baseline recorded the
                // ident; a stray RST without one is dropped, not a panic.
                debug_assert!(self.baseline.is_some(), "Followup implies baseline");
                let Some(baseline) = self.baseline else {
                    return FrameDisposition::Pass;
                };
                let delta = ip.ident.wrapping_sub(baseline);
                self.result = Some(IdleScanResult {
                    baseline_ident: baseline,
                    followup_ident: ip.ident,
                    victim_alive: delta >= 2,
                    at: ctx.now(),
                });
                self.step = Step::Done;
            }
            _ => {}
        }
        FrameDisposition::Consume
    }
}
