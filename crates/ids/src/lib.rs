//! A Snort-style network intrusion detection engine for the paper's
//! scan-detection experiments (§V-B2).
//!
//! The paper augments Snort's default rules with Proofpoint/EmergingThreats
//! best-practice scan rules and finds:
//!
//! * **TCP SYN scans above 2 scans/second are detected.**
//! * **ARP scans are never detected** — neither Snort nor Bro ships rules
//!   that reliably flag targeted ARP liveness probing; only network-wide
//!   ARP discovery floods (many distinct target IPs) are considered
//!   scanning at all.
//! * Frequent ICMP pings are "an obvious indicator of network
//!   reconnaissance" (low stealth).
//!
//! [`IdsEngine`] is a pure library: feed it `(time, frame)` observations
//! from any tap (e.g. a `netsim` frame recorder on the monitored link) and
//! read the alerts back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdn_types::packet::{EthernetFrame, IcmpType, Payload, Transport};
use sdn_types::{Duration, IpAddr, SimTime};

/// Which rule fired.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IdsRule {
    /// EmergingThreats-style TCP SYN scan: too many bare SYNs per second
    /// from one source.
    TcpSynScan,
    /// ICMP ping sweep / frequent echo requests from one source.
    IcmpPingSweep,
    /// ARP discovery flood: requests for many *distinct* IPs in a window.
    /// Targeted single-IP ARP probing never matches — the gap the paper's
    /// attacker exploits.
    ArpDiscoveryFlood,
    /// Zero-data TCP flows: handshakes torn down without payload.
    ZeroDataTcpFlows,
}

/// One IDS alert.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdsAlert {
    /// When the rule fired.
    pub at: SimTime,
    /// The rule.
    pub rule: IdsRule,
    /// The offending source address.
    pub src: IpAddr,
    /// Detail text.
    pub detail: String,
}

// Detection thresholds, following the paper's findings.

/// SYN probes per second from one source before alerting (paper: scans
/// above 2/s were detected).
const SYN_SCAN_PER_SEC: f64 = 2.0;
/// Echo requests per second from one source before alerting.
const ICMP_PER_SEC: f64 = 2.0;
/// Distinct ARP target IPs within the window before alerting.
const ARP_DISTINCT_TARGETS: usize = 10;
/// Zero-data TCP teardowns per minute before alerting.
const ZERO_DATA_FLOWS_PER_MIN: usize = 30;
/// Sliding-window length for rate rules.
const WINDOW: Duration = Duration::from_secs(1);
/// Minimum time between repeated alerts for the same (rule, source).
const ALERT_COOLDOWN: Duration = Duration::from_secs(5);

#[derive(Default)]
struct SrcState {
    syn_times: VecDeque<SimTime>,
    icmp_times: VecDeque<SimTime>,
    arp_targets: VecDeque<(SimTime, IpAddr)>,
    zero_data_teardowns: VecDeque<SimTime>,
    syn_seen_ports: BTreeSet<u16>,
}

/// The IDS engine.
#[derive(Default)]
pub struct IdsEngine {
    per_src: BTreeMap<IpAddr, SrcState>,
    last_alert: BTreeMap<(IdsRule, IpAddr), SimTime>,
    alerts: Vec<IdsAlert>,
    /// Total frames observed.
    pub frames_observed: u64,
}

impl IdsEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        IdsEngine::default()
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[IdsAlert] {
        &self.alerts
    }

    /// Whether any alert of `rule` has fired.
    pub fn detected(&self, rule: IdsRule) -> bool {
        self.alerts.iter().any(|a| a.rule == rule)
    }

    /// Feeds one observed frame to the engine.
    pub fn observe(&mut self, at: SimTime, frame: &EthernetFrame) {
        self.frames_observed += 1;
        match &frame.payload {
            Payload::Arp(arp) if arp.op == sdn_types::packet::ArpOp::Request => {
                self.observe_arp(at, arp.sender_ip, arp.target_ip);
            }
            Payload::Ipv4(ip) => match &ip.transport {
                Transport::Icmp(icmp) if icmp.icmp_type == IcmpType::EchoRequest => {
                    self.observe_icmp(at, ip.src);
                }
                Transport::Tcp(tcp) => {
                    if tcp.is_syn() {
                        self.observe_syn(at, ip.src, tcp.dst_port);
                    } else if tcp.is_rst() {
                        self.observe_rst(at, ip.dst);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// The (exclusive) start of the sliding window ending at `at`: an event
    /// exactly one window ago has aged out.
    fn window_start(&self, at: SimTime) -> SimTime {
        SimTime::from_nanos(
            at.as_nanos()
                .saturating_sub(WINDOW.as_nanos())
                .saturating_add(1),
        )
    }

    fn try_alert(&mut self, at: SimTime, rule: IdsRule, src: IpAddr, detail: String) {
        if let Some(last) = self.last_alert.get(&(rule, src)) {
            if at.since(*last) < ALERT_COOLDOWN {
                return;
            }
        }
        self.last_alert.insert((rule, src), at);
        self.alerts.push(IdsAlert {
            at,
            rule,
            src,
            detail,
        });
    }

    fn observe_syn(&mut self, at: SimTime, src: IpAddr, dst_port: u16) {
        let start = self.window_start(at);
        let window_secs = WINDOW.as_secs_f64();
        let count = {
            let state = self.per_src.entry(src).or_default();
            state.syn_times.push_back(at);
            state.syn_seen_ports.insert(dst_port);
            while state.syn_times.front().is_some_and(|t| *t < start) {
                state.syn_times.pop_front();
            }
            state.syn_times.len()
        };
        let rate = count as f64 / window_secs;
        if rate > SYN_SCAN_PER_SEC {
            self.try_alert(
                at,
                IdsRule::TcpSynScan,
                src,
                format!("{count} bare SYNs in {window_secs:.0}s from {src} (rate {rate:.1}/s)"),
            );
        }
    }

    fn observe_rst(&mut self, at: SimTime, scanned_by: IpAddr) {
        // An RST answering a probe closes a zero-data exchange; attribute to
        // the prober (the destination of the RST).
        let count = {
            let state = self.per_src.entry(scanned_by).or_default();
            state.zero_data_teardowns.push_back(at);
            let minute_ago = SimTime::from_nanos(at.as_nanos().saturating_sub(60_000_000_000));
            while state
                .zero_data_teardowns
                .front()
                .is_some_and(|t| *t < minute_ago)
            {
                state.zero_data_teardowns.pop_front();
            }
            state.zero_data_teardowns.len()
        };
        if count > ZERO_DATA_FLOWS_PER_MIN {
            self.try_alert(
                at,
                IdsRule::ZeroDataTcpFlows,
                scanned_by,
                format!("{count} zero-data TCP teardowns/min toward {scanned_by}"),
            );
        }
    }

    fn observe_icmp(&mut self, at: SimTime, src: IpAddr) {
        let start = self.window_start(at);
        let window_secs = WINDOW.as_secs_f64();
        let count = {
            let state = self.per_src.entry(src).or_default();
            state.icmp_times.push_back(at);
            while state.icmp_times.front().is_some_and(|t| *t < start) {
                state.icmp_times.pop_front();
            }
            state.icmp_times.len()
        };
        let rate = count as f64 / window_secs;
        if rate > ICMP_PER_SEC {
            self.try_alert(
                at,
                IdsRule::IcmpPingSweep,
                src,
                format!("{count} echo requests in {window_secs:.0}s from {src}"),
            );
        }
    }

    fn observe_arp(&mut self, at: SimTime, src: IpAddr, target: IpAddr) {
        // ARP scan detection looks for *network-wide discovery*: many
        // distinct target IPs. A targeted liveness probe re-ARPs one IP and
        // never accumulates distinct targets.
        let start = self.window_start(at);
        let distinct = {
            let state = self.per_src.entry(src).or_default();
            state.arp_targets.push_back((at, target));
            while state.arp_targets.front().is_some_and(|(t, _)| *t < start) {
                state.arp_targets.pop_front();
            }
            state
                .arp_targets
                .iter()
                .map(|(_, ip)| *ip)
                .collect::<BTreeSet<_>>()
                .len()
        };
        if distinct >= ARP_DISTINCT_TARGETS {
            self.try_alert(
                at,
                IdsRule::ArpDiscoveryFlood,
                src,
                format!("ARP requests for {distinct} distinct IPs from {src}"),
            );
        }
    }
}

/// The qualitative stealth ratings of Table I.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stealth {
    /// Likely flagged by standard IDS rules.
    Low,
    /// Flagged only by specialized rules.
    Medium,
    /// No practical detection rules exist.
    High,
    /// Attacker is not even attributable (indirection via a zombie).
    VeryHigh,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::packet::{ArpPacket, IcmpPacket, Ipv4Packet, TcpSegment};
    use sdn_types::MacAddr;

    fn syn_frame(src: IpAddr, dst: IpAddr, port: u16) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Payload::Ipv4(Ipv4Packet::new(
                src,
                dst,
                Transport::Tcp(TcpSegment::syn(40000, port, 1)),
            )),
        )
    }

    fn arp_frame(src: IpAddr, target: IpAddr) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::BROADCAST,
            Payload::Arp(ArpPacket::request(MacAddr::from_index(1), src, target)),
        )
    }

    fn icmp_frame(src: IpAddr, dst: IpAddr) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Payload::Ipv4(Ipv4Packet::new(
                src,
                dst,
                Transport::Icmp(IcmpPacket::echo_request(1, 1, vec![])),
            )),
        )
    }

    const ATTACKER: IpAddr = IpAddr::new(10, 0, 0, 66);
    const VICTIM: IpAddr = IpAddr::new(10, 0, 0, 1);

    /// §V-B2: SYN scans above 2/s are detected.
    #[test]
    fn syn_scan_above_2_per_sec_detected() {
        let mut ids = IdsEngine::new();
        // 5 SYNs within one second.
        for i in 0..5 {
            ids.observe(
                SimTime::from_millis(i * 200),
                &syn_frame(ATTACKER, VICTIM, 80),
            );
        }
        assert!(ids.detected(IdsRule::TcpSynScan));
    }

    #[test]
    fn syn_scan_at_or_below_2_per_sec_undetected() {
        let mut ids = IdsEngine::new();
        // 1 SYN every 500 ms = exactly 2/s -> not *above* threshold.
        for i in 0..20 {
            ids.observe(
                SimTime::from_millis(i * 500),
                &syn_frame(ATTACKER, VICTIM, 80),
            );
        }
        assert!(!ids.detected(IdsRule::TcpSynScan));
    }

    /// §V-B2: targeted ARP liveness probing at 20/s stays undetected.
    #[test]
    fn targeted_arp_probing_never_detected() {
        let mut ids = IdsEngine::new();
        // One ARP every 50 ms for 10 seconds — the paper's chosen probe rate.
        for i in 0..200 {
            ids.observe(SimTime::from_millis(i * 50), &arp_frame(ATTACKER, VICTIM));
        }
        assert!(ids.alerts().is_empty(), "{:?}", ids.alerts());
    }

    #[test]
    fn network_wide_arp_discovery_is_detected() {
        let mut ids = IdsEngine::new();
        for i in 0..50u16 {
            let target = IpAddr::new(10, 0, 0, (i % 250) as u8);
            ids.observe(
                SimTime::from_millis(u64::from(i) * 10),
                &arp_frame(ATTACKER, target),
            );
        }
        assert!(ids.detected(IdsRule::ArpDiscoveryFlood));
    }

    #[test]
    fn frequent_icmp_is_low_stealth() {
        let mut ids = IdsEngine::new();
        for i in 0..10 {
            ids.observe(SimTime::from_millis(i * 100), &icmp_frame(ATTACKER, VICTIM));
        }
        assert!(ids.detected(IdsRule::IcmpPingSweep));
    }

    #[test]
    fn occasional_icmp_is_fine() {
        let mut ids = IdsEngine::new();
        for i in 0..10 {
            ids.observe(SimTime::from_secs(i * 2), &icmp_frame(ATTACKER, VICTIM));
        }
        assert!(!ids.detected(IdsRule::IcmpPingSweep));
    }

    #[test]
    fn alert_cooldown_suppresses_repeats() {
        let mut ids = IdsEngine::new();
        for i in 0..50 {
            ids.observe(
                SimTime::from_millis(i * 100),
                &syn_frame(ATTACKER, VICTIM, 80),
            );
        }
        // 5 seconds of sustained scanning with a 5s cooldown: 1 alert.
        let syn_scans = ids
            .alerts()
            .iter()
            .filter(|a| a.rule == IdsRule::TcpSynScan);
        assert_eq!(syn_scans.count(), 1);
    }

    #[test]
    fn sources_are_tracked_independently() {
        let mut ids = IdsEngine::new();
        let other = IpAddr::new(10, 0, 0, 77);
        for i in 0..5 {
            ids.observe(
                SimTime::from_millis(i * 200),
                &syn_frame(ATTACKER, VICTIM, 80),
            );
            // `other` pings slowly (well under the 2/s threshold).
            ids.observe(
                SimTime::from_millis(i * 700 + 1),
                &icmp_frame(other, VICTIM),
            );
        }
        assert!(ids.detected(IdsRule::TcpSynScan));
        let offenders: Vec<IpAddr> = ids.alerts().iter().map(|a| a.src).collect();
        assert!(offenders.iter().all(|ip| *ip == ATTACKER));
    }
}

#[cfg(test)]
mod zero_data_tests {
    use super::*;
    use sdn_types::packet::{EthernetFrame, Ipv4Packet, Payload, TcpSegment, Transport};
    use sdn_types::MacAddr;

    const SCANNER: IpAddr = IpAddr::new(10, 0, 0, 66);
    const TARGET: IpAddr = IpAddr::new(10, 0, 0, 1);

    fn rst_toward_scanner(seq: u32) -> EthernetFrame {
        // The target's RST answering a zero-data probe (dst = the prober).
        let syn = TcpSegment::syn(40_000, 80, seq);
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(66),
            Payload::Ipv4(Ipv4Packet::new(
                TARGET,
                SCANNER,
                Transport::Tcp(TcpSegment::rst_to(&syn)),
            )),
        )
    }

    #[test]
    fn sustained_zero_data_teardowns_alert() {
        let mut ids = IdsEngine::new();
        // 40 RSTs toward the scanner within a minute (limit is 30/min).
        for i in 0..40u32 {
            ids.observe(
                SimTime::from_millis(u64::from(i) * 1_000),
                &rst_toward_scanner(i),
            );
        }
        assert!(ids.detected(IdsRule::ZeroDataTcpFlows));
    }

    #[test]
    fn occasional_resets_are_normal() {
        let mut ids = IdsEngine::new();
        // A handful of RSTs spread over minutes: ordinary connection churn.
        for i in 0..10u32 {
            ids.observe(
                SimTime::from_secs(u64::from(i) * 30),
                &rst_toward_scanner(i),
            );
        }
        assert!(!ids.detected(IdsRule::ZeroDataTcpFlows));
    }
}
