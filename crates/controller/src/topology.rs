//! The controller's topology view: directed switch-to-switch links inferred
//! from LLDP, with refresh/expiry and shortest-path search.
//!
//! Every Packet-In asks the topology whether its port is infrastructure,
//! and every unicast miss or scoped flood asks for a path or the spanning
//! tree, while the link set changes only when LLDP discovers, removes or
//! expires a link. So the answers come from one derived index — the link
//! endpoints, the outgoing links per switch and the BFS spanning tree —
//! built on first use and dropped whenever the link set changes. A refresh
//! of a known link keeps it. Floodlight likewise rebuilds its topology
//! instance only when links change.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdn_types::{DatapathId, Duration, SimTime, SwitchPort, SwitchPortSet, SwitchPortTable, Table};

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

/// A map from directed links to values, iterated in link order: a row of
/// links per source port, sorted by destination. A source port usually
/// carries one link, and a row holds exactly the links it has; one carries
/// several when, say, a relayed probe is heard at two receivers.
#[derive(Clone, Debug)]
pub struct LinkTable<V> {
    rows: SwitchPortTable<Vec<(SwitchPort, V)>>,
    /// The links over every row.
    len: usize,
}

impl<V> LinkTable<V> {
    /// Creates an empty table.
    pub const fn new() -> Self {
        LinkTable {
            rows: SwitchPortTable::new(),
            len: 0,
        }
    }

    /// The number of links.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no link.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in link order: by source port, then destination.
    pub fn iter(&self) -> impl Iterator<Item = (DirectedLink, &V)> + '_ {
        self.rows.iter().flat_map(|(src, row)| {
            row.iter()
                .map(move |(dst, value)| (DirectedLink::new(src, *dst), value))
        })
    }

    /// The links in link order.
    pub fn keys(&self) -> impl Iterator<Item = DirectedLink> + '_ {
        self.iter().map(|(link, _)| link)
    }

    /// The value of `link`.
    pub fn get(&self, link: &DirectedLink) -> Option<&V> {
        let row = self.rows.get(&link.src)?;
        let at = row.binary_search_by_key(&link.dst, |(dst, _)| *dst).ok()?;
        row.get(at).map(|(_, value)| value)
    }

    /// The value of `link`, mutable.
    pub fn get_mut(&mut self, link: &DirectedLink) -> Option<&mut V> {
        let row = self.rows.get_mut(&link.src)?;
        let at = row.binary_search_by_key(&link.dst, |(dst, _)| *dst).ok()?;
        row.get_mut(at).map(|(_, value)| value)
    }

    /// The value of `link`, set to `make()` first if it has none.
    pub fn get_or_insert_with(&mut self, link: DirectedLink, make: impl FnOnce() -> V) -> &mut V {
        let row = self.rows.get_or_insert_with(link.src, Vec::new);
        let at = match row.binary_search_by_key(&link.dst, |(dst, _)| *dst) {
            Ok(at) => at,
            Err(at) => {
                row.reserve_exact(1);
                row.insert(at, (link.dst, make()));
                self.len += 1;
                at
            }
        };
        debug_assert!(at < row.len(), "the row holds the link");
        &mut row[at].1
    }

    /// Removes the value of `link` and returns it.
    pub fn remove(&mut self, link: &DirectedLink) -> Option<V> {
        let row = self.rows.get_mut(&link.src)?;
        let at = row.binary_search_by_key(&link.dst, |(dst, _)| *dst).ok()?;
        let (_, value) = row.remove(at);
        if row.is_empty() {
            self.rows.remove(&link.src);
        }
        self.len -= 1;
        Some(value)
    }

    /// Keeps the entries `keep` approves, visiting them in link order.
    /// Links come off the wire, and a forged probe can name any port, so
    /// the ports left with no link give up their slots once they outnumber
    /// those with one (see [`SwitchPortTable::compact`]).
    pub fn retain(&mut self, mut keep: impl FnMut(DirectedLink, &mut V) -> bool) {
        let mut len = 0;
        self.rows.retain(|src, row| {
            row.retain_mut(|(dst, value)| keep(DirectedLink::new(src, *dst), value));
            len += row.len();
            !row.is_empty()
        });
        self.rows.compact();
        self.len = len;
    }
}

impl<V> Default for LinkTable<V> {
    fn default() -> Self {
        LinkTable::new()
    }
}

/// What the queries need from one link set, derived from it in one pass.
#[derive(Clone, Debug)]
struct Index {
    /// Every port that is an endpoint of some link.
    endpoints: SwitchPortSet,
    /// Outgoing links per switch, in link order.
    out: Table<DatapathId, Vec<DirectedLink>>,
    /// The ports on the BFS spanning tree (see [`Topology::spanning_tree`]).
    tree: SwitchPortSet,
}

impl Index {
    fn build(links: &LinkTable<LinkState>) -> Self {
        let endpoints = links
            .keys()
            .flat_map(|link| [(link.src, ()), (link.dst, ())])
            .collect();
        let mut out: Table<DatapathId, Vec<DirectedLink>> = Table::new();
        // Undirected adjacency: dpid -> links out of it (either direction).
        let mut undirected: BTreeMap<DatapathId, Vec<DirectedLink>> = BTreeMap::new();
        for link in links.keys() {
            out.get_or_insert_with(link.src.dpid, Vec::new).push(link);
            undirected.entry(link.src.dpid).or_default().push(link);
            undirected
                .entry(link.dst.dpid)
                .or_default()
                .push(link.reversed());
        }
        let mut tree = Vec::new();
        let mut visited: BTreeSet<DatapathId> = BTreeSet::new();
        for &root in undirected.keys() {
            if !visited.insert(root) {
                continue;
            }
            let mut queue = VecDeque::from([root]);
            while let Some(node) = queue.pop_front() {
                for link in undirected.get(&node).into_iter().flatten() {
                    if visited.insert(link.dst.dpid) {
                        tree.push((link.src, ()));
                        tree.push((link.dst, ()));
                        queue.push_back(link.dst.dpid);
                    }
                }
            }
        }
        Index {
            endpoints,
            out,
            tree: tree.into_iter().collect(),
        }
    }
}

/// The link table.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    links: LinkTable<LinkState>,
    /// Derived from `links` on first use; reset whenever a link is added,
    /// removed or expired.
    index: OnceCell<Index>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Index::build(&self.links))
    }

    /// Records (or refreshes) a link observation. Returns `true` if the
    /// link is new.
    pub fn observe(&mut self, link: DirectedLink, now: SimTime, latency_ms: Option<f64>) -> bool {
        if let Some(state) = self.links.get_mut(&link) {
            state.last_seen = now;
            if latency_ms.is_some() {
                state.last_latency_ms = latency_ms;
            }
            return false;
        }
        self.links.get_or_insert_with(link, || LinkState {
            first_seen: now,
            last_seen: now,
            last_latency_ms: latency_ms,
        });
        self.index.take();
        true
    }

    /// Removes a link explicitly. Returns `true` if it existed.
    pub fn remove(&mut self, link: &DirectedLink) -> bool {
        let existed = self.links.remove(link).is_some();
        if existed {
            self.index.take();
        }
        existed
    }

    /// Expires links not re-verified within `timeout`, returning them in
    /// link order.
    pub fn expire(&mut self, now: SimTime, timeout: Duration) -> Vec<DirectedLink> {
        let mut expired = Vec::new();
        self.links.retain(|link, state| {
            let fresh = now.since(state.last_seen) < timeout;
            if !fresh {
                expired.push(link);
            }
            fresh
        });
        if !expired.is_empty() {
            self.index.take();
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
        self.links.get(link).is_some()
    }

    /// Iterates all links in link order.
    pub fn links(&self) -> impl Iterator<Item = (DirectedLink, &LinkState)> + '_ {
        self.links.iter()
    }

    /// Returns `true` if `port` is an endpoint of any known link — an
    /// "infrastructure port" from which host learning is suppressed.
    pub fn is_infrastructure_port(&self, port: SwitchPort) -> bool {
        self.index().endpoints.contains_key(&port)
    }

    /// Shortest path (by hop count, BFS) from switch `from` to switch `to`.
    ///
    /// Returns the sequence of directed links to traverse; empty if
    /// `from == to`; `None` if unreachable.
    pub fn shortest_path(&self, from: DatapathId, to: DatapathId) -> Option<Vec<DirectedLink>> {
        if from == to {
            return Some(Vec::new());
        }
        let adj = &self.index().out;
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
    pub fn spanning_tree(&self) -> &SwitchPortSet {
        &self.index().tree
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
        let dpids: BTreeSet<u64> = tree.keys().map(|p| p.dpid.raw()).collect();
        assert_eq!(dpids, BTreeSet::from([1, 2, 3, 4]));
        // Deterministic: the same links observed in another order yield
        // the same tree.
        let mut again = Topology::new();
        for (l, _) in t.links().collect::<Vec<_>>().into_iter().rev() {
            again.observe(l, now, None);
        }
        assert_eq!(again.spanning_tree(), tree);
    }

    #[test]
    fn spanning_tree_of_a_line_keeps_every_trunk() {
        let t = line();
        let tree = t.spanning_tree();
        assert_eq!(
            tree.keys().collect::<Vec<_>>(),
            [sp(1, 2), sp(2, 1), sp(2, 2), sp(3, 1)]
        );
    }
}
