//! Capture the Port Amnesia attack from the victim network's perspective
//! and export it as a pcap you can open in Wireshark.
//!
//! A `FrameRecorder` taps the benign host h2 while the Fig. 1 out-of-band
//! attack runs; everything h2's NIC sees — including the pings that
//! secretly transited the attackers' fabricated link — lands in
//! `target/port_amnesia.pcap` with simulation-exact timestamps.
//!
//! ```sh
//! cargo run --example capture_pcap
//! wireshark target/port_amnesia.pcap
//! ```

use topomirage::netsim::apps::FrameRecorder;
use topomirage::netsim::pcap::PcapWriter;
use topomirage::netsim::Simulator;
use topomirage::scenarios::linkfab::{self, LinkFabScenario, RelayMode};
use topomirage::scenarios::DefenseStack;

fn main() {
    let scenario = LinkFabScenario::new(RelayMode::OutOfBand, DefenseStack::TopoGuard, 2026);
    let (mut spec, endpoints, _) = linkfab::setup(&scenario);
    // The tap: record everything h2, the benign pinger's target, receives.
    let (_, h2, _) = endpoints.pinger.expect("Fig. 1 has a benign ping pair");
    spec.set_host_app(h2, Box::new(FrameRecorder::new()));

    let mut sim = Simulator::new(spec, scenario.seed);
    sim.run_for(scenario.run_for);

    let recorder: &FrameRecorder = sim.host_app_as(h2).expect("tap installed");
    let path = "target/port_amnesia.pcap";
    let mut writer = PcapWriter::create(path).expect("create pcap");
    writer
        .write_all_frames(&recorder.frames)
        .expect("write frames");
    let written = writer.frames_written();
    writer.finish().expect("flush");

    println!("captured {written} frames at h2 -> {path}");
    println!("(those pings crossed two switches with no physical link between");
    println!(" them — every one was ferried by the attackers' relay, and");
    println!(" TopoGuard said nothing)");
    assert!(written > 50, "expected a meaningful capture");
}
