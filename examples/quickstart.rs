//! Quickstart: build a small SDN, let the controller discover the topology
//! and track hosts, and watch pings flow over reactively-installed paths.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use topomirage::controller::{ControllerConfig, SdnController};
use topomirage::netsim::apps::PeriodicPinger;
use topomirage::netsim::{LinkProfile, NetworkSpec, Simulator};
use topomirage::telemetry::Telemetry;
use topomirage::types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};

fn main() {
    // Two switches joined by a 5 ms link, one host on each.
    let s1 = DatapathId::new(0x1);
    let s2 = DatapathId::new(0x2);
    let h1 = HostId::new(1);
    let h2 = HostId::new(2);
    let link = LinkProfile::fixed(Duration::from_millis(5));

    let mut spec = NetworkSpec::new();
    spec.add_switch(s1);
    spec.add_switch(s2);
    spec.link_switches(s1, PortNo::new(1), s2, PortNo::new(1), link);
    spec.add_host(h1, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.add_host(h2, MacAddr::from_index(2), IpAddr::new(10, 0, 0, 2));
    spec.attach_host(h1, s1, PortNo::new(2), link);
    spec.attach_host(h2, s2, PortNo::new(2), link);

    // A Floodlight-personality controller (15 s LLDP rounds, 35 s link
    // timeout) with reactive shortest-path forwarding.
    spec.set_controller(Box::new(SdnController::new(ControllerConfig::default())));

    // h1 pings h2 every 200 ms.
    spec.set_host_app(
        h1,
        Box::new(PeriodicPinger::new(
            IpAddr::new(10, 0, 0, 2),
            Duration::from_millis(200),
        )),
    );

    spec.set_telemetry(Telemetry::new());
    let mut sim = Simulator::new(spec, 42);
    sim.run_for(Duration::from_secs(10));

    let ctrl: &SdnController = sim.controller_as().expect("controller type");
    println!("== discovered links ==");
    for (link, state) in ctrl.topology().links() {
        println!(
            "  {} -> {}   (first seen {}, last verified {})",
            link.src, link.dst, state.first_seen, state.last_seen
        );
    }

    println!("\n== tracked hosts ==");
    for dev in ctrl.devices().devices() {
        let ips: Vec<String> = dev.ips.iter().map(|ip| ip.to_string()).collect();
        println!(
            "  {} [{}] at {}   ({} moves)",
            dev.mac,
            ips.join(", "),
            dev.location,
            dev.move_count
        );
    }

    let pinger: &PeriodicPinger = sim.host_app_as(h1).expect("app type");
    let mean_rtt = pinger.rtts_ms.iter().sum::<f64>() / pinger.rtts_ms.len().max(1) as f64;
    println!(
        "\n== traffic ==\n  {} pings sent, {} replies, mean RTT {:.1} ms",
        pinger.sent, pinger.received, mean_rtt
    );
    let probes = sim.metrics_snapshot().counter("controller.lldp.emitted");
    println!("  LLDP probes emitted: {}", probes.unwrap_or(0));
    assert!(pinger.received > 0, "quickstart network must carry traffic");
}
