//! Table II, rigorously: the LLDP construction/processing cost with and
//! without the TOPOGUARD+ extensions (HMAC signature + encrypted timestamp
//! TLV + IQR inspection).

use bench::harness::{black_box, Bench};

use sdn_types::crypto::Key;
use sdn_types::packet::{EthernetFrame, LldpPacket, Payload};
use sdn_types::{DatapathId, MacAddr, PortNo, SimTime};
use tm_stats::IqrOutlierDetector;

const KEY: Key = Key::new(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
const DPID: DatapathId = DatapathId::new(7);
const PORT: PortNo = PortNo::new(3);

fn construct_plain() -> Vec<u8> {
    let lldp = LldpPacket::new(DPID, PORT);
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::LLDP_MULTICAST,
        Payload::Lldp(lldp),
    )
    .encode()
}

fn construct_topoguard_plus() -> Vec<u8> {
    let lldp = LldpPacket::new(DPID, PORT)
        .with_timestamp(KEY, SimTime::from_millis(123))
        .signed(KEY);
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::LLDP_MULTICAST,
        Payload::Lldp(lldp),
    )
    .encode()
}

fn main() {
    let construction = Bench::new("lldp_construction");
    construction.bench("baseline", construct_plain);
    construction.bench("topoguard_plus", construct_topoguard_plus);

    let wire_plain = construct_plain();
    let wire_tgp = construct_topoguard_plus();

    let processing = Bench::new("lldp_processing");
    processing.bench("baseline", || {
        let frame = EthernetFrame::parse(black_box(&wire_plain)).expect("parses");
        frame.lldp().map(|l| (l.dpid, l.port))
    });

    let mut detector = IqrOutlierDetector::paper_default();
    for i in 0..50 {
        detector.inspect(5.0 + (i % 5) as f64 * 0.1);
    }
    processing.bench_with_setup(
        "topoguard_plus",
        || detector.clone(),
        |mut det| {
            let frame = EthernetFrame::parse(black_box(&wire_tgp)).expect("parses");
            let lldp = frame.lldp().expect("lldp");
            let ok = lldp.verify(KEY);
            let ts = lldp.open_timestamp(KEY);
            let verdict = det.inspect(5.2);
            (ok, ts, verdict)
        },
    );
}
