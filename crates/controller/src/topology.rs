//! The controller's topology view: directed switch-to-switch links inferred
//! from LLDP, with refresh/expiry and shortest-path search.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdn_types::{DatapathId, Duration, SimTime, SwitchPort};

/// A directed link from one switch port to another, as inferred from one
/// LLDP traversal (probe emitted at `src`, received at `dst`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirectedLink {
    /// The emitting switch port.
    pub src: SwitchPort,
    /// The receiving switch port.
    pub dst: SwitchPort,
}

impl DirectedLink {
    /// Creates a link.
    pub fn new(src: SwitchPort, dst: SwitchPort) -> Self {
        DirectedLink { src, dst }
    }

    /// The same link in the opposite direction.
    pub fn reversed(&self) -> DirectedLink {
        DirectedLink {
            src: self.dst,
            dst: self.src,
        }
    }
}

/// Per-link state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkState {
    /// When the link was first inferred.
    pub first_seen: SimTime,
    /// When the link was last re-verified by LLDP.
    pub last_seen: SimTime,
    /// The most recent latency estimate, if LLDP timestamping is enabled
    /// (milliseconds).
    pub last_latency_ms: Option<f64>,
}

/// The link table.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    links: BTreeMap<DirectedLink, LinkState>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Records (or refreshes) a link observation. Returns `true` if the
    /// link is new.
    pub fn observe(&mut self, link: DirectedLink, now: SimTime, latency_ms: Option<f64>) -> bool {
        match self.links.get_mut(&link) {
            Some(state) => {
                state.last_seen = now;
                if latency_ms.is_some() {
                    state.last_latency_ms = latency_ms;
                }
                false
            }
            None => {
                self.links.insert(
                    link,
                    LinkState {
                        first_seen: now,
                        last_seen: now,
                        last_latency_ms: latency_ms,
                    },
                );
                true
            }
        }
    }

    /// Removes a link explicitly. Returns `true` if it existed.
    pub fn remove(&mut self, link: &DirectedLink) -> bool {
        self.links.remove(link).is_some()
    }

    /// Expires links not re-verified within `timeout`, returning them.
    pub fn expire(&mut self, now: SimTime, timeout: Duration) -> Vec<DirectedLink> {
        let expired: Vec<DirectedLink> = self
            .links
            .iter()
            .filter(|(_, s)| now.since(s.last_seen) >= timeout)
            .map(|(l, _)| *l)
            .collect();
        for l in &expired {
            self.links.remove(l);
        }
        expired
    }

    /// Number of directed links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if no links are known.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Looks up a link's state.
    pub fn get(&self, link: &DirectedLink) -> Option<&LinkState> {
        self.links.get(link)
    }

    /// Returns `true` if the link is currently known.
    pub fn contains(&self, link: &DirectedLink) -> bool {
        self.links.contains_key(&link.clone())
    }

    /// Iterates all links.
    pub fn links(&self) -> impl Iterator<Item = (&DirectedLink, &LinkState)> {
        self.links.iter()
    }

    /// Returns `true` if `port` is an endpoint of any known link — an
    /// "infrastructure port" from which host learning is suppressed.
    pub fn is_infrastructure_port(&self, port: SwitchPort) -> bool {
        self.links.keys().any(|l| l.src == port || l.dst == port)
    }

    /// Shortest path (by hop count, BFS) from switch `from` to switch `to`.
    ///
    /// Returns the sequence of directed links to traverse; empty if
    /// `from == to`; `None` if unreachable.
    pub fn shortest_path(&self, from: DatapathId, to: DatapathId) -> Option<Vec<DirectedLink>> {
        if from == to {
            return Some(Vec::new());
        }
        // Adjacency: dpid -> outgoing links.
        let mut adj: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
        for link in self.links.keys() {
            adj.entry(link.src.dpid).or_default().push(*link);
        }
        let mut prev: BTreeMap<DatapathId, DirectedLink> = BTreeMap::new();
        let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        visited.insert(from);
        queue.push_back(from);
        while let Some(node) = queue.pop_front() {
            if node == to {
                // Reconstruct.
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    debug_assert!(prev.contains_key(&cur), "BFS recorded a predecessor");
                    let link = prev[&cur];
                    path.push(link);
                    cur = link.src.dpid;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(out) = adj.get(&node) {
                for link in out {
                    let next = link.dst.dpid;
                    if visited.insert(next) {
                        prev.insert(next, *link);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    /// The set of switch ports on a deterministic BFS spanning tree of the
    /// switch graph (one tree per connected component, rooted at the
    /// component's smallest dpid, neighbors explored in link order).
    ///
    /// Flooding scoped to these trunk ports — plus any port not on a known
    /// link — delivers a broadcast to every switch exactly once even when
    /// the physical fabric has cycles (fat-tree, ring), which is how real
    /// controllers avoid broadcast storms without STP on the switches.
    pub fn spanning_tree(&self) -> BTreeSet<SwitchPort> {
        // Undirected adjacency: dpid -> links out of it (either direction).
        let mut adj: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
        for link in self.links.keys() {
            adj.entry(link.src.dpid).or_default().push(*link);
            adj.entry(link.dst.dpid).or_default().push(link.reversed());
        }
        let mut tree: BTreeSet<SwitchPort> = BTreeSet::new();
        let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
        let roots: Vec<DatapathId> = adj.keys().copied().collect();
        for root in roots {
            if visited.contains(&root) {
                continue;
            }
            visited.insert(root);
            let mut queue = VecDeque::new();
            queue.push_back(root);
            while let Some(node) = queue.pop_front() {
                if let Some(out) = adj.get(&node) {
                    for link in out {
                        if visited.insert(link.dst.dpid) {
                            tree.insert(link.src);
                            tree.insert(link.dst);
                            queue.push_back(link.dst.dpid);
                        }
                    }
                }
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::PortNo;

    fn sp(d: u64, p: u16) -> SwitchPort {
        SwitchPort::new(DatapathId::new(d), PortNo::new(p))
    }

    fn link(a: (u64, u16), b: (u64, u16)) -> DirectedLink {
        DirectedLink::new(sp(a.0, a.1), sp(b.0, b.1))
    }

    /// A 3-switch line: 1 <-> 2 <-> 3 (both directions).
    fn line() -> Topology {
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        t.observe(link((1, 2), (2, 1)), now, None);
        t.observe(link((2, 1), (1, 2)), now, None);
        t.observe(link((2, 2), (3, 1)), now, None);
        t.observe(link((3, 1), (2, 2)), now, None);
        t
    }

    #[test]
    fn observe_and_refresh() {
        let mut t = Topology::new();
        let l = link((1, 1), (2, 1));
        assert!(t.observe(l, SimTime::from_secs(1), Some(5.0)));
        assert!(!t.observe(l, SimTime::from_secs(2), None));
        let state = t.get(&l).unwrap();
        assert_eq!(state.first_seen, SimTime::from_secs(1));
        assert_eq!(state.last_seen, SimTime::from_secs(2));
        assert_eq!(state.last_latency_ms, Some(5.0), "latency retained");
    }

    #[test]
    fn expiry_follows_last_seen() {
        let mut t = Topology::new();
        let l1 = link((1, 1), (2, 1));
        let l2 = link((2, 1), (1, 1));
        t.observe(l1, SimTime::from_secs(0), None);
        t.observe(l2, SimTime::from_secs(0), None);
        t.observe(l1, SimTime::from_secs(20), None); // refresh only l1
        let expired = t.expire(SimTime::from_secs(35), Duration::from_secs(35));
        assert_eq!(expired, vec![l2]);
        assert!(t.contains(&l1));
    }

    #[test]
    fn infrastructure_ports() {
        let t = line();
        assert!(t.is_infrastructure_port(sp(1, 2)));
        assert!(t.is_infrastructure_port(sp(2, 1)));
        assert!(!t.is_infrastructure_port(sp(1, 1)));
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line();
        let path = t
            .shortest_path(DatapathId::new(1), DatapathId::new(3))
            .unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], link((1, 2), (2, 1)));
        assert_eq!(path[1], link((2, 2), (3, 1)));
    }

    #[test]
    fn path_to_self_is_empty() {
        let t = line();
        assert_eq!(
            t.shortest_path(DatapathId::new(2), DatapathId::new(2)),
            Some(vec![])
        );
    }

    #[test]
    fn unreachable_is_none() {
        let t = line();
        assert_eq!(
            t.shortest_path(DatapathId::new(1), DatapathId::new(9)),
            None
        );
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // Diamond: 1->2->4, 1->3->4, plus direct 1->4.
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        t.observe(link((1, 1), (2, 1)), now, None);
        t.observe(link((2, 2), (4, 1)), now, None);
        t.observe(link((1, 2), (3, 1)), now, None);
        t.observe(link((3, 2), (4, 2)), now, None);
        t.observe(link((1, 3), (4, 3)), now, None);
        let path = t
            .shortest_path(DatapathId::new(1), DatapathId::new(4))
            .unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0], link((1, 3), (4, 3)));
    }

    #[test]
    fn remove_is_directional() {
        let mut t = line();
        assert!(t.remove(&link((1, 2), (2, 1))));
        assert!(!t.contains(&link((1, 2), (2, 1))));
        assert!(t.contains(&link((2, 1), (1, 2))));
    }

    #[test]
    fn spanning_tree_breaks_the_ring() {
        // 4-switch ring: 1-2-3-4-1, both directions on every trunk.
        let mut t = Topology::new();
        let now = SimTime::ZERO;
        for (a, b) in [
            ((1, 2), (2, 1)),
            ((2, 2), (3, 1)),
            ((3, 2), (4, 1)),
            ((4, 2), (1, 1)),
        ] {
            t.observe(link(a, b), now, None);
            t.observe(link(b, a), now, None);
        }
        let tree = t.spanning_tree();
        // A spanning tree of 4 nodes has 3 edges = 6 trunk ports; exactly
        // one ring segment (2 ports) is excluded.
        assert_eq!(tree.len(), 6, "{tree:?}");
        // Every switch is on the tree.
        let dpids: BTreeSet<u64> = tree.iter().map(|p| p.dpid.raw()).collect();
        assert_eq!(dpids, BTreeSet::from([1, 2, 3, 4]));
        // Deterministic: recomputing yields the same tree.
        assert_eq!(t.spanning_tree(), tree);
    }

    #[test]
    fn spanning_tree_of_a_line_keeps_every_trunk() {
        let t = line();
        let tree = t.spanning_tree();
        assert_eq!(
            tree,
            BTreeSet::from([sp(1, 2), sp(2, 1), sp(2, 2), sp(3, 1)])
        );
    }
}
