//! Regression test: a physical link is a FIFO pipe. Frames sent
//! back-to-back over a heavily jittered link must arrive in send order —
//! independently sampled per-transit delays used to let later frames
//! overtake earlier ones, perturbing LLDP/probe ordering.

use netsim::{
    ControllerCtx, ControllerLogic, FrameDisposition, HostApp, HostCtx, LinkProfile, NetworkSpec,
    Simulator, TimerId,
};
use openflow::{Action, FlowMatch, FlowModCommand, OfMessage};
use sdn_types::packet::{EthernetFrame, Payload};
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo};
use tm_telemetry::Telemetry;

const SW1: DatapathId = DatapathId::new(1);
const H1: HostId = HostId::new(1);
const H2: HostId = HostId::new(2);
const FRAMES: u16 = 150;

/// Installs one wildcard rule on start: everything out port 2 (toward H2).
struct StaticForwarder;

impl ControllerLogic for StaticForwarder {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        ctx.send(
            SW1,
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::new(),
                priority: 1,
                idle_timeout_secs: 0,
                hard_timeout_secs: 0,
                actions: vec![Action::Output(PortNo::new(2))],
                cookie: 0,
            },
        );
    }
    fn on_message(&mut self, _ctx: &mut ControllerCtx<'_>, _dpid: DatapathId, _msg: OfMessage) {}
    fn on_timer(&mut self, _ctx: &mut ControllerCtx<'_>, _id: TimerId) {}
}

/// Records the sequence numbers of every opaque frame it receives.
#[derive(Default)]
struct Recorder {
    seen: Vec<u16>,
}

impl HostApp for Recorder {
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: &EthernetFrame) -> FrameDisposition {
        if let Payload::Opaque {
            ethertype: 0x1234,
            data,
        } = &frame.payload
        {
            self.seen.push(u16::from_le_bytes([data[0], data[1]]));
        }
        FrameDisposition::Consume
    }
}

fn numbered_frame(i: u16) -> EthernetFrame {
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        Payload::Opaque {
            ethertype: 0x1234,
            data: i.to_le_bytes().to_vec(),
        },
    )
}

fn jittery_spec() -> NetworkSpec {
    // Jitter SD comparable to the base latency: without FIFO enforcement,
    // back-to-back frames reorder with near certainty.
    let wild = LinkProfile::jittered(Duration::from_millis(5), Duration::from_millis(2));
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW1);
    spec.add_host(H1, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.add_host(H2, MacAddr::from_index(2), IpAddr::new(10, 0, 0, 2));
    spec.attach_host(H1, SW1, PortNo::new(1), wild);
    spec.attach_host(H2, SW1, PortNo::new(2), wild);
    spec.set_host_app(H2, Box::<Recorder>::default());
    spec.set_controller(Box::new(StaticForwarder));
    spec.set_telemetry(Telemetry::new());
    spec
}

#[test]
fn jittered_link_delivers_in_send_order() {
    for seed in [1_u64, 7, 42, 1234] {
        let mut sim = Simulator::new(jittery_spec(), seed);
        // Let the wildcard rule land before traffic starts.
        sim.run_for(Duration::from_millis(2));
        // A burst of back-to-back frames: all enter the wire in the same
        // instant, so independent jitter samples would scramble them.
        for i in 0..FRAMES {
            assert!(sim.host_send_frame(H1, numbered_frame(i)));
        }
        sim.run_for(Duration::from_secs(2));

        let recorder = sim.host_app_as::<Recorder>(H2).expect("recorder");
        assert_eq!(
            recorder.seen.len(),
            usize::from(FRAMES),
            "seed {seed}: all frames must be delivered"
        );
        let expected: Vec<u16> = (0..FRAMES).collect();
        assert_eq!(
            recorder.seen, expected,
            "seed {seed}: frames must arrive in send order"
        );

        // The burst is tight enough that the clamp must actually fire.
        let metrics = sim.metrics_snapshot();
        let clamped = metrics.counter("netsim.link.fifo_clamped").unwrap_or(0);
        assert!(
            clamped > 0,
            "seed {seed}: expected FIFO clamps on a jittered burst, got none"
        );
    }
}

#[test]
fn fifo_clamp_never_fires_on_fixed_links() {
    let fixed = LinkProfile::fixed(Duration::from_millis(1));
    let mut spec = NetworkSpec::new();
    spec.add_switch(SW1);
    spec.add_host(H1, MacAddr::from_index(1), IpAddr::new(10, 0, 0, 1));
    spec.add_host(H2, MacAddr::from_index(2), IpAddr::new(10, 0, 0, 2));
    spec.attach_host(H1, SW1, PortNo::new(1), fixed);
    spec.attach_host(H2, SW1, PortNo::new(2), fixed);
    spec.set_host_app(H2, Box::<Recorder>::default());
    spec.set_controller(Box::new(StaticForwarder));
    spec.set_telemetry(Telemetry::new());
    let mut sim = Simulator::new(spec, 9);
    sim.run_for(Duration::from_millis(2));
    for i in 0..FRAMES {
        assert!(sim.host_send_frame(H1, numbered_frame(i)));
    }
    sim.run_for(Duration::from_secs(1));
    let metrics = sim.metrics_snapshot();
    assert_eq!(metrics.counter("netsim.link.fifo_clamped"), None);
    let recorder = sim.host_app_as::<Recorder>(H2).expect("recorder");
    assert_eq!(recorder.seen.len(), usize::from(FRAMES));
}
