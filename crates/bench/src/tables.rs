//! Table reproductions.

use attacks::ProbeKind;
use controller::{ControllerConfig, ControllerProfile, SdnController};
use netsim::{LinkProfile, NetworkSpec, Simulator};
use sdn_types::crypto::Key;
use sdn_types::packet::{EthernetFrame, LldpPacket, Payload};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};
use tm_rand::StdRng;
use tm_stats::Summary;
use tm_telemetry::Telemetry;

use crate::harness::{self, black_box, Bench};

/// Table I's liveness probes, in table order, by campaign label.
pub(crate) const PROBES: [(&str, ProbeKind); 4] = [
    ("icmp-ping", ProbeKind::IcmpPing),
    ("tcp-syn", ProbeKind::TcpSyn { port: 80 }),
    ("arp-ping", ProbeKind::ArpPing),
    (
        "idle-scan",
        ProbeKind::IdleScan {
            zombie: IpAddr::new(10, 0, 0, 9),
            port: 80,
        },
    ),
];

/// Table III's controller profiles, in table order, by campaign label.
pub(crate) const PROFILES: [(&str, ControllerProfile); 3] = [
    ("floodlight", ControllerProfile::FLOODLIGHT),
    ("pox", ControllerProfile::POX),
    ("opendaylight", ControllerProfile::OPENDAYLIGHT),
];

/// Table I: liveness probe timing and stealth. 1000 scans per technique;
/// timings exclude attacker↔victim RTT, exactly as in the paper.
pub fn table1(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out =
        String::from("TABLE I: Liveness Probe Options (1000 scans per type, RTT excluded)\n\n");
    out.push_str(&format!(
        "{:<15} {:<10} {:<16} {:<18} {}\n",
        "Type", "Stealth", "Requirements", "Timing (ms)", "paper"
    ));
    let paper = ["0.91 ± 0.04", "492.3 ± 1.4", "133.5 ± 1.6", "1.8 ± 0.1"];
    for ((_, kind), paper) in PROBES.iter().zip(paper) {
        let samples: Vec<f64> = (0..1000)
            .map(|_| kind.sample_overhead(&mut rng).as_millis_f64())
            .collect();
        let s = Summary::of(&samples);
        let t = kind.timing();
        out.push_str(&format!(
            "{:<15} {:<10} {:<16} {:<18} {}\n",
            kind.name(),
            format!("{:?}", t.stealth),
            t.requirement,
            s.mean_pm_sd(2),
            paper,
        ));
    }
    out
}

/// Table II: TOPOGUARD+'s implementation overhead on the LLDP path,
/// measured as the wall-clock time of this reproduction's code. Each of
/// the four paths runs through [`Bench`], whose records (median, min,
/// max over 25 samples) go to stderr; the rows print the medians.
///
/// The paper reports +0.134 ms (construction) and +0.299 ms (processing)
/// for its Java/Floodlight prototype; the comparison point is the *shape* —
/// sub-millisecond, negligible, and confined to the control plane.
pub fn table2() -> String {
    let key = Key::from_seed(42);
    let dpid = DatapathId::new(7);
    let port = PortNo::new(3);
    let encode = |lldp| {
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::LLDP_MULTICAST,
            Payload::Lldp(lldp),
        )
        .encode()
    };

    // Construction: plain vs signed + timestamped.
    let construct_plain = || encode(LldpPacket::new(dpid, port));
    let construct_tgp = || {
        encode(
            LldpPacket::new(dpid, port)
                .with_timestamp(key, SimTime::from_millis(123))
                .signed(key),
        )
    };
    let construction = Bench::new("lldp_construction");
    let plain_construct = construction.bench("baseline", construct_plain);
    let tgp_construct = construction.bench("topoguard_plus", construct_tgp);

    // Processing: parse only vs parse + verify + open timestamp + IQR
    // inspection.
    let wire_plain = construct_plain();
    let wire_tgp = construct_tgp();
    let mut detector = tm_stats::IqrOutlierDetector::paper_default();
    for i in 0..50 {
        detector.inspect(5.0 + (i % 5) as f64 * 0.1);
    }
    let processing = Bench::new("lldp_processing");
    let plain_process = processing.bench("baseline", || {
        let frame = EthernetFrame::parse(black_box(&wire_plain)).expect("parses");
        frame.lldp().map(|l| l.dpid)
    });
    let tgp_process = processing.bench("topoguard_plus", || {
        let frame = EthernetFrame::parse(black_box(&wire_tgp)).expect("parses");
        let lldp = frame.lldp().expect("lldp");
        let ok = lldp.verify(key);
        let ts = lldp.open_timestamp(key);
        let mut d = detector.clone();
        let v = d.inspect(5.2);
        (ok, ts, v)
    });

    let ms = |s: harness::Summary| s.median_ns as f64 / 1e6;
    let mut out = String::from("TABLE II: TOPOGUARD+ overhead on the LLDP path\n\n");
    out.push_str(&format!(
        "{:<22} {:<14} {:<14} {:<14} {}\n",
        "Function", "baseline", "TOPOGUARD+", "overhead", "paper overhead"
    ));
    out.push_str(&format!(
        "{:<22} {:<14} {:<14} {:<14} {}\n",
        "LLDP Construction",
        format!("{:.4} ms", ms(plain_construct)),
        format!("{:.4} ms", ms(tgp_construct)),
        format!("{:+.4} ms", ms(tgp_construct) - ms(plain_construct)),
        "0.134 ms",
    ));
    out.push_str(&format!(
        "{:<22} {:<14} {:<14} {:<14} {}\n",
        "LLDP Processing",
        format!("{:.4} ms", ms(plain_process)),
        format!("{:.4} ms", ms(tgp_process)),
        format!("{:+.4} ms", ms(tgp_process) - ms(plain_process)),
        "0.299 ms",
    ));
    out.push_str("\n(sub-millisecond control-plane-only cost: negligible, matching the paper's conclusion)\n");
    out
}

/// Table III: link discovery interval and link timeout per controller
/// personality, validated behaviorally: probe cadence is measured from a
/// live run, and expiry is measured by cutting a link and timing its
/// removal from the topology.
pub fn table3(seed: u64) -> String {
    let mut out = String::from(
        "TABLE III: Link discovery intervals and timeouts (validated in simulation)\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:<12} {:<12} {:<18} {:<16}\n",
        "Controller", "interval", "timeout", "measured cadence", "measured expiry"
    ));
    for (_, profile) in PROFILES {
        let (cadence, expiry) = measure_profile(profile, seed);
        out.push_str(&format!(
            "{:<14} {:<12} {:<12} {:<18} {:<16}\n",
            profile.name,
            format!("{}s", profile.link_discovery_interval.as_millis() / 1000),
            format!("{}s", profile.link_timeout.as_millis() / 1000),
            format!("{cadence:.1}s between rounds"),
            format!("{expiry:.1}s after cut"),
        ));
    }
    out
}

pub(crate) fn measure_profile(profile: ControllerProfile, seed: u64) -> (f64, f64) {
    let s1 = DatapathId::new(1);
    let s2 = DatapathId::new(2);
    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    spec.link_switches(
        s1,
        PortNo::new(1),
        s2,
        PortNo::new(1),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec.add_host(
        HostId::new(1),
        MacAddr::from_index(1),
        IpAddr::new(10, 0, 0, 1),
    );
    spec.attach_host(
        HostId::new(1),
        s1,
        PortNo::new(2),
        LinkProfile::fixed(Duration::from_millis(5)),
    );
    spec.set_controller(Box::new(SdnController::new(ControllerConfig {
        profile,
        ..ControllerConfig::default()
    })));
    spec.set_telemetry(Telemetry::new());
    let mut sim = Simulator::new(spec, seed);

    // Cadence: probes emitted over 60 s / rounds.
    sim.run_for(Duration::from_secs(61));
    let emitted = sim.metrics_snapshot().counter("controller.lldp.emitted");
    let probes = emitted.unwrap_or(0) as f64;
    let ports = 3.0; // two trunk endpoints + one host port
    let rounds = probes / ports;
    // First round fires 0.1 s after startup; cadence is the spacing between
    // consecutive rounds.
    let cadence = (61.0 - 0.1) / (rounds - 1.0);

    // Expiry: cut the trunk, poll until the topology empties.
    let cut_at = sim.now();
    sim.set_switch_port_admin(s1, PortNo::new(1), false);
    let mut expiry = f64::NAN;
    for _ in 0..2000 {
        sim.run_for(Duration::from_millis(100));
        let ctrl: &SdnController = sim.controller_as().expect("controller");
        if ctrl.topology().is_empty() {
            expiry = sim.now().since(cut_at).as_secs_f64();
            break;
        }
    }
    (cadence, expiry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_rows() {
        let t = table1(1);
        for name in ["ICMP Ping", "TCP SYN", "ARP ping", "TCP Idle Scan"] {
            assert!(t.contains(name), "{t}");
        }
    }

    #[test]
    fn table3_expiry_within_expected_bounds() {
        for profile in ControllerProfile::ALL {
            let (cadence, expiry) = measure_profile(profile, 3);
            let interval = profile.link_discovery_interval.as_secs_f64();
            assert!(
                (cadence - interval).abs() < interval * 0.15,
                "{}: cadence {cadence} vs {interval}",
                profile.name
            );
            let timeout = profile.link_timeout.as_secs_f64();
            // The link's age is measured from its last LLDP refresh (up to
            // one interval before the cut) and expiry is checked at
            // discovery rounds, so the cut-relative expiry lands within
            // ±one interval of the nominal timeout.
            assert!(
                expiry >= timeout - interval - 1.0 && expiry <= timeout + interval + 1.0,
                "{}: expiry {expiry} vs timeout {timeout}",
                profile.name
            );
        }
    }
}
