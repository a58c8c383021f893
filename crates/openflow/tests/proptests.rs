//! Property tests for flow-table invariants.

use tm_prop::prelude::*;

use openflow::{Action, FlowEntry, FlowMatch, FlowTable, MatchOutcome};
use sdn_types::packet::{EthernetFrame, Payload};
use sdn_types::{Duration, MacAddr, PortNo, SimTime};

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        option::of(0u16..8),
        option::of(any::<u8>()),
        option::of(any::<u8>()),
    )
        .prop_map(|(in_port, src, dst)| {
            let mut m = FlowMatch::new();
            if let Some(p) = in_port {
                m = m.with_in_port(PortNo::new(p));
            }
            if let Some(s) = src {
                m = m.with_eth_src(MacAddr::new([s; 6]));
            }
            if let Some(d) = dst {
                m = m.with_eth_dst(MacAddr::new([d; 6]));
            }
            m
        })
}

fn arb_entry() -> impl Strategy<Value = FlowEntry> {
    (arb_match(), 0u16..1000, 0u16..8).prop_map(|(m, priority, port)| {
        FlowEntry::new(m, vec![Action::Output(PortNo::new(port))]).with_priority(priority)
    })
}

fn frame(src: u8, dst: u8) -> EthernetFrame {
    EthernetFrame::new(
        MacAddr::new([src; 6]),
        MacAddr::new([dst; 6]),
        Payload::Opaque {
            ethertype: 0x1234,
            data: vec![0; 10],
        },
    )
}

tm_prop! {
    /// The table always consults rules in non-increasing priority order.
    #[test]
    fn priorities_are_sorted_after_any_insert_sequence(entries in collection::vec(arb_entry(), 0..40)) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let priorities: Vec<u16> = table.entries().map(|e| e.priority).collect();
        for pair in priorities.windows(2) {
            prop_assert!(pair[0] >= pair[1], "priorities must be non-increasing: {priorities:?}");
        }
    }

    /// A returned match must actually match the frame, and must be the
    /// first (highest-priority) matching rule.
    #[test]
    fn process_returns_highest_priority_match(
        entries in collection::vec(arb_entry(), 1..30),
        src in any::<u8>(),
        dst in any::<u8>(),
        in_port in 0u16..8,
    ) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let f = frame(src, dst);
        let port = PortNo::new(in_port);
        let expected = table
            .entries()
            .find(|e| e.flow_match.matches(&f, port))
            .map(|e| e.actions.clone());
        let snapshot: Vec<FlowEntry> = table.entries().cloned().collect();
        match (table.process(&f, port, SimTime::ZERO), expected) {
            (MatchOutcome::Miss, None) => {}
            (MatchOutcome::Miss, Some(_)) => prop_assert!(false, "missed but a rule matches"),
            (MatchOutcome::Forward { .. }, None) => prop_assert!(false, "forwarded with no matching rule: {snapshot:?}"),
            (MatchOutcome::Forward { ports, .. }, Some(actions)) => {
                let want: Vec<PortNo> = actions.iter().map(|&Action::Output(p)| p).collect();
                prop_assert_eq!(ports, want);
            }
        }
    }

    /// Counters: total packet count across rules equals the number of hits.
    #[test]
    fn counters_sum_to_hits(
        entries in collection::vec(arb_entry(), 1..10),
        frames in collection::vec((any::<u8>(), any::<u8>(), 0u16..8), 0..50),
    ) {
        let mut table = FlowTable::new();
        for e in entries {
            table.insert(e, SimTime::ZERO);
        }
        let mut hits = 0u64;
        for (src, dst, port) in frames {
            if let MatchOutcome::Forward { .. } =
                table.process(&frame(src, dst), PortNo::new(port), SimTime::ZERO)
            {
                hits += 1;
            }
        }
        let total: u64 = table.stats().iter().map(|s| s.packet_count).sum();
        prop_assert_eq!(total, hits);
    }

    /// Expiry is total: after expire(t ≥ all hard timeouts), no timed rule
    /// survives, and expire never removes a rule with no timeout.
    #[test]
    fn expiry_respects_timeouts(
        timeouts in collection::vec(option::of(1u64..100), 1..20),
    ) {
        let mut table = FlowTable::new();
        let mut timed = 0usize;
        for (i, t) in timeouts.iter().enumerate() {
            let mut e = FlowEntry::new(
                FlowMatch::new().with_in_port(PortNo::new(i as u16)),
                vec![Action::Output(PortNo::new(1))],
            );
            if let Some(secs) = t {
                e = e.with_hard_timeout(Duration::from_secs(*secs));
                timed += 1;
            }
            table.insert(e, SimTime::ZERO);
        }
        let total = table.len();
        let removed = table.expire(SimTime::from_secs(200));
        prop_assert_eq!(removed.len(), timed);
        prop_assert_eq!(table.len(), total - timed);
    }
}
