//! Property tests for controller data structures: host tracking under
//! arbitrary observation sequences, topology expiry invariants,
//! shortest-path sanity, and the topology's derived index against
//! from-scratch computations.
//!
//! The echo tracker and the topology's link table are checked against the
//! map-based implementations they replaced.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tm_prop::prelude::*;

use controller::latency::SAMPLES_AVERAGED;
use controller::{CtrlLatencyTracker, DeviceTable, DirectedLink, LinkState, Topology};
use sdn_types::{DatapathId, Duration, MacAddr, PortNo, SimTime, SwitchPort};

fn sp(d: u8, p: u8) -> SwitchPort {
    SwitchPort::new(
        DatapathId::new(u64::from(d) % 4 + 1),
        PortNo::new(u16::from(p) % 8 + 1),
    )
}

/// Every port of the 4 switches x 8 ports the generators draw from.
fn all_ports() -> impl Iterator<Item = SwitchPort> {
    (0u8..4).flat_map(|d| (0u8..8).map(move |p| sp(d, p)))
}

/// `port` is an endpoint of some link, by scanning every link.
fn scan_is_infrastructure_port(topo: &Topology, port: SwitchPort) -> bool {
    topo.links().any(|(l, _)| l.src == port || l.dst == port)
}

/// BFS shortest path over an adjacency map rebuilt from the links.
fn bfs_shortest_path(
    topo: &Topology,
    from: DatapathId,
    to: DatapathId,
) -> Option<Vec<DirectedLink>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut adj: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
    for (link, _) in topo.links() {
        adj.entry(link.src.dpid).or_default().push(link);
    }
    let mut prev: BTreeMap<DatapathId, DirectedLink> = BTreeMap::new();
    let mut visited: BTreeSet<DatapathId> = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from {
                let link = prev[&cur];
                path.push(link);
                cur = link.src.dpid;
            }
            path.reverse();
            return Some(path);
        }
        for link in adj.get(&node).into_iter().flatten() {
            if visited.insert(link.dst.dpid) {
                prev.insert(link.dst.dpid, *link);
                queue.push_back(link.dst.dpid);
            }
        }
    }
    None
}

/// BFS spanning tree over an undirected adjacency rebuilt from the links:
/// roots in dpid order, neighbors in link order.
fn bfs_spanning_tree(topo: &Topology) -> BTreeSet<SwitchPort> {
    let mut adj: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
    for (link, _) in topo.links() {
        adj.entry(link.src.dpid).or_default().push(link);
        adj.entry(link.dst.dpid).or_default().push(link.reversed());
    }
    let mut tree = BTreeSet::new();
    let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
    for &root in adj.keys() {
        if !visited.insert(root) {
            continue;
        }
        let mut queue = VecDeque::from([root]);
        while let Some(node) = queue.pop_front() {
            for link in &adj[&node] {
                if visited.insert(link.dst.dpid) {
                    tree.insert(link.src);
                    tree.insert(link.dst);
                    queue.push_back(link.dst.dpid);
                }
            }
        }
    }
    tree
}

/// The echo tracker as it was before its xid-ordered queue and inline
/// RTT rings: a map of outstanding xids and a deque of RTTs per switch.
#[derive(Default)]
struct EchoModel {
    rtts: BTreeMap<DatapathId, VecDeque<Duration>>,
    outstanding: BTreeMap<u64, (DatapathId, SimTime)>,
}

impl EchoModel {
    fn echo_received(&mut self, xid: u64, now: SimTime) -> Option<Duration> {
        let (dpid, sent) = self.outstanding.remove(&xid)?;
        let rtt = now.since(sent);
        let window = self.rtts.entry(dpid).or_default();
        if window.len() == SAMPLES_AVERAGED {
            window.pop_front();
        }
        window.push_back(rtt);
        Some(rtt)
    }

    fn prune_stale(&mut self, now: SimTime, horizon: Duration) -> usize {
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(horizon.as_nanos()));
        let before = self.outstanding.len();
        self.outstanding.retain(|_, (_, sent)| *sent >= cutoff);
        before - self.outstanding.len()
    }

    fn avg_rtt(&self, dpid: DatapathId) -> Option<Duration> {
        let window = self.rtts.get(&dpid)?;
        let total: u64 = window.iter().map(|d| d.as_nanos()).sum();
        let len = window.len() as u64;
        Some(Duration::from_nanos((total + len / 2) / len))
    }
}

tm_prop! {
    /// After any observation sequence, each device's location equals the
    /// location of its most recent observation, and move_count equals the
    /// number of location changes.
    #[test]
    fn device_table_tracks_last_observation(
        obs in collection::vec((0u8..5, 0u8..4, 0u8..8), 1..100)
    ) {
        let mut table = DeviceTable::new();
        let mut expected: std::collections::BTreeMap<u8, (SwitchPort, u64)> =
            std::collections::BTreeMap::new();
        for (i, (mac_i, d, p)) in obs.iter().enumerate() {
            let mac = MacAddr::from_index(u32::from(*mac_i));
            let loc = sp(*d, *p);
            table.commit(mac, None, loc, SimTime::from_millis(i as u64));
            let entry = expected.entry(*mac_i).or_insert((loc, 0));
            if entry.0 != loc {
                entry.1 += 1;
                entry.0 = loc;
            }
        }
        for (mac_i, (loc, moves)) in expected {
            let mac = MacAddr::from_index(u32::from(mac_i));
            let dev = table.get(&mac).expect("committed");
            prop_assert_eq!(dev.location, loc);
            prop_assert_eq!(dev.move_count, moves);
        }
    }

    /// classify() never mutates, and commit() after a Moved classification
    /// always lands on the new location.
    #[test]
    fn classify_commit_agree(
        first in (0u8..4, 0u8..8),
        second in (0u8..4, 0u8..8),
    ) {
        let mac = MacAddr::from_index(7);
        let mut table = DeviceTable::new();
        let loc1 = sp(first.0, first.1);
        let loc2 = sp(second.0, second.1);
        table.commit(mac, None, loc1, SimTime::ZERO);
        let snapshot = table.location_of(&mac);
        let _ = table.classify(mac, None, loc2, SimTime::from_secs(1));
        prop_assert_eq!(table.location_of(&mac), snapshot, "classify must not mutate");
        table.commit(mac, None, loc2, SimTime::from_secs(1));
        prop_assert_eq!(table.location_of(&mac), Some(loc2));
    }

    /// Expiry removes exactly the links older than the timeout, never
    /// younger ones.
    #[test]
    fn topology_expiry_is_exact(
        links in collection::vec(((0u8..4, 0u8..8), (0u8..4, 0u8..8), 0u64..100), 1..50),
        timeout_s in 1u64..50,
        now_s in 50u64..200,
    ) {
        let mut topo = Topology::new();
        let mut expected_alive = std::collections::BTreeSet::new();
        for ((sd, spp), (dd, dp), seen) in &links {
            let link = DirectedLink::new(sp(*sd, *spp), sp(*dd, *dp));
            // Later observations refresh earlier ones; emulate by keeping max.
            topo.observe(link, SimTime::from_secs(*seen), None);
        }
        // Recompute expected from final last_seen values.
        let snapshot: Vec<(DirectedLink, SimTime)> = topo
            .links()
            .map(|(l, s)| (l, s.last_seen))
            .collect();
        for (link, last_seen) in &snapshot {
            if SimTime::from_secs(now_s).since(*last_seen) < Duration::from_secs(timeout_s) {
                expected_alive.insert(*link);
            }
        }
        let removed = topo.expire(SimTime::from_secs(now_s), Duration::from_secs(timeout_s));
        for link in &removed {
            prop_assert!(!expected_alive.contains(link), "young link expired: {link:?}");
        }
        prop_assert_eq!(topo.len(), expected_alive.len());
    }

    /// Any path returned by shortest_path is connected (each hop starts at
    /// the previous hop's destination switch) and begins/ends correctly.
    #[test]
    fn shortest_paths_are_connected(
        links in collection::vec(((0u8..4, 0u8..8), (0u8..4, 0u8..8)), 1..40),
        from in 0u8..4,
        to in 0u8..4,
    ) {
        let mut topo = Topology::new();
        for ((sd, spp), (dd, dp)) in &links {
            topo.observe(
                DirectedLink::new(sp(*sd, *spp), sp(*dd, *dp)),
                SimTime::ZERO,
                None,
            );
        }
        let from = DatapathId::new(u64::from(from) % 4 + 1);
        let to = DatapathId::new(u64::from(to) % 4 + 1);
        if let Some(path) = topo.shortest_path(from, to) {
            if from == to {
                prop_assert!(path.is_empty());
            } else {
                prop_assert_eq!(path.first().unwrap().src.dpid, from);
                prop_assert_eq!(path.last().unwrap().dst.dpid, to);
                for pair in path.windows(2) {
                    prop_assert_eq!(pair[0].dst.dpid, pair[1].src.dpid);
                }
                // BFS shortest: no repeated switches.
                let mut seen = std::collections::BTreeSet::new();
                seen.insert(from);
                for hop in &path {
                    prop_assert!(seen.insert(hop.dst.dpid), "loop in path");
                }
            }
        }
    }

    /// The cached index answers like a from-scratch computation after
    /// every step of any sequence of new links, refreshes, removals and
    /// expiries: infrastructure ports, the spanning tree, and the
    /// shortest path between every pair of switches.
    #[test]
    fn topology_index_matches_recomputation(
        steps in collection::vec((0u8..4, (0u8..4, 0u8..8), (0u8..4, 0u8..8), 0u64..8), 1..60)
    ) {
        let mut topo = Topology::new();
        for (i, (op, (sd, spp), (dd, dp), arg)) in steps.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let known: Vec<DirectedLink> = topo.links().map(|(l, _)| l).collect();
            let pick = known.get((usize::from(*sd) * 8 + usize::from(*spp)) % known.len().max(1));
            match (op, pick) {
                (0, _) => {
                    topo.observe(DirectedLink::new(sp(*sd, *spp), sp(*dd, *dp)), now, None);
                }
                (1, Some(link)) => {
                    prop_assert!(!topo.observe(*link, now, None), "a refresh is not new");
                }
                (2, Some(link)) => {
                    prop_assert!(topo.remove(link));
                }
                (3, _) => {
                    topo.expire(now, Duration::from_secs(*arg));
                }
                _ => {}
            }
            for port in all_ports() {
                prop_assert_eq!(
                    topo.is_infrastructure_port(port),
                    scan_is_infrastructure_port(&topo, port),
                    "step {i}: port {port}"
                );
            }
            prop_assert_eq!(
                topo.spanning_tree().keys().collect::<BTreeSet<_>>(),
                bfs_spanning_tree(&topo),
                "step {i}"
            );
            for from in 1..=4 {
                for to in 1..=4 {
                    let (from, to) = (DatapathId::new(from), DatapathId::new(to));
                    prop_assert_eq!(
                        topo.shortest_path(from, to),
                        bfs_shortest_path(&topo, from, to),
                        "step {i}: {from} -> {to}"
                    );
                }
            }
        }
    }

    /// The link table agrees with a `BTreeMap<DirectedLink, LinkState>`
    /// model after every step of any sequence of new links, refreshes with
    /// and without a latency, removals and expiries: the same links in the
    /// same order, expiries returned in link order, and the same lookups.
    /// Sources come from 12 ports and destinations from 32, so most
    /// source ports carry several links.
    #[test]
    fn topology_links_match_the_btreemap_model(
        steps in collection::vec((0u8..6, (0u8..4, 0u8..3), (0u8..4, 0u8..8), 0u64..8), 1..80)
    ) {
        let mut topo = Topology::new();
        let mut model: BTreeMap<DirectedLink, LinkState> = BTreeMap::new();
        for (i, &(op, (sd, spp), (dd, dp), arg)) in steps.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let link = DirectedLink::new(sp(sd, spp), sp(dd, dp));
            match op {
                0..=2 => {
                    let latency_ms = (arg % 2 == 1).then_some(arg as f64);
                    let is_new = match model.get_mut(&link) {
                        Some(state) => {
                            state.last_seen = now;
                            if latency_ms.is_some() {
                                state.last_latency_ms = latency_ms;
                            }
                            false
                        }
                        None => {
                            let state = LinkState {
                                first_seen: now,
                                last_seen: now,
                                last_latency_ms: latency_ms,
                            };
                            model.insert(link, state);
                            true
                        }
                    };
                    prop_assert_eq!(topo.observe(link, now, latency_ms), is_new, "step {i}");
                }
                3 => prop_assert_eq!(topo.remove(&link), model.remove(&link).is_some(), "step {i}"),
                4 => {
                    let timeout = Duration::from_secs(arg);
                    let expired: Vec<DirectedLink> = model
                        .iter()
                        .filter(|(_, s)| now.since(s.last_seen) >= timeout)
                        .map(|(l, _)| *l)
                        .collect();
                    model.retain(|_, s| now.since(s.last_seen) < timeout);
                    prop_assert_eq!(topo.expire(now, timeout), expired, "step {i}");
                }
                _ => {
                    prop_assert_eq!(topo.get(&link), model.get(&link), "step {i}");
                    prop_assert_eq!(topo.contains(&link), model.contains_key(&link), "step {i}");
                }
            }
            prop_assert_eq!(topo.len(), model.len(), "step {i}");
            prop_assert_eq!(topo.is_empty(), model.is_empty(), "step {i}");
            let links: Vec<(DirectedLink, LinkState)> = topo.links().map(|(l, s)| (l, *s)).collect();
            let expected: Vec<(DirectedLink, LinkState)> = model.iter().map(|(l, s)| (*l, *s)).collect();
            prop_assert_eq!(links, expected, "step {i}");
        }
    }

    /// The tracker agrees with the map model on every return value and
    /// every estimate, whatever order echoes go out and come back in:
    /// fresh xids from a counter, re-sent and out-of-order xids, replies
    /// to unknown, answered or pruned xids, and four switches interleaved.
    #[test]
    fn echo_tracker_matches_the_map_model(
        ops in collection::vec((0u8..6, 0u8..24, 0u16..2_000), 0..300),
    ) {
        let mut tracker = CtrlLatencyTracker::new();
        let mut model = EchoModel::default();
        let mut next_xid = 1u64;
        let mut now = SimTime::ZERO;
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            now += Duration::from_micros(u64::from(b));
            let dpid = DatapathId::new(u64::from(a % 4) + 1);
            match kind {
                // The controller's path: the next xid from the counter.
                0 | 1 => {
                    tracker.echo_sent(next_xid, dpid, now);
                    model.outstanding.insert(next_xid, (dpid, now));
                    next_xid += 1;
                }
                // An xid at or below the counter: a re-send, or one that
                // lands between outstanding xids.
                2 => {
                    let xid = u64::from(a);
                    tracker.echo_sent(xid, dpid, now);
                    model.outstanding.insert(xid, (dpid, now));
                }
                // A reply to one of the last few xids, known or not.
                3 | 4 => {
                    let xid = next_xid.saturating_sub(u64::from(a % 8) + 1);
                    prop_assert_eq!(
                        tracker.echo_received(xid, now),
                        model.echo_received(xid, now),
                        "step {i}: reply to xid {xid}"
                    );
                }
                _ => {
                    let horizon = Duration::from_micros(u64::from(b) * 4);
                    prop_assert_eq!(
                        tracker.prune_stale(now, horizon),
                        model.prune_stale(now, horizon),
                        "step {i}: prune"
                    );
                }
            }
            prop_assert_eq!(tracker.outstanding_count(), model.outstanding.len(), "step {i}");
            prop_assert_eq!(tracker.measured_switches(), model.rtts.len(), "step {i}");
            for d in 1..=4 {
                let d = DatapathId::new(d);
                prop_assert_eq!(tracker.avg_rtt(d), model.avg_rtt(d), "step {i}: {d}");
                prop_assert_eq!(
                    tracker.one_way(d),
                    model.avg_rtt(d).map(|rtt| rtt.div(2)),
                    "step {i}: {d}"
                );
            }
        }
    }
}
