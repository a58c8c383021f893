//! The switch flow table: priority-ordered rules with timeouts and
//! counters.

use std::cmp::Reverse;
use std::collections::btree_map::Entry as BandEntry;
use std::collections::BTreeMap;

use sdn_types::packet::EthernetFrame;
use sdn_types::{Duration, PortNo, SimTime};

use crate::actions::apply_actions;
use crate::messages::{FlowRemovedReason, FlowStatsEntry};
use crate::{Action, FlowMatch};

/// One installed flow rule.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEntry {
    /// The match guard.
    pub flow_match: FlowMatch,
    /// Priority; higher values are consulted first.
    pub priority: u16,
    /// Actions applied on match (empty = drop).
    pub actions: Vec<Action>,
    /// Idle timeout; rule is evicted after this long without a hit.
    pub idle_timeout: Option<Duration>,
    /// Hard timeout; rule is evicted this long after installation
    /// regardless of traffic.
    pub hard_timeout: Option<Duration>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Packets that matched this rule.
    pub packet_count: u64,
    /// Bytes that matched this rule.
    pub byte_count: u64,
    installed_at: SimTime,
    last_hit: SimTime,
}

impl FlowEntry {
    /// Creates a rule with default priority 100 and no timeouts.
    pub fn new(flow_match: FlowMatch, actions: Vec<Action>) -> Self {
        FlowEntry {
            flow_match,
            priority: 100,
            actions,
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
            packet_count: 0,
            byte_count: 0,
            installed_at: SimTime::ZERO,
            last_hit: SimTime::ZERO,
        }
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: u16) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Sets the hard timeout.
    pub fn with_hard_timeout(mut self, timeout: Duration) -> Self {
        self.hard_timeout = Some(timeout);
        self
    }

    /// Sets the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    fn expired_reason(&self, now: SimTime) -> Option<FlowRemovedReason> {
        if let Some(hard) = self.hard_timeout {
            if now.since(self.installed_at) >= hard {
                return Some(FlowRemovedReason::HardTimeout);
            }
        }
        if let Some(idle) = self.idle_timeout {
            if now.since(self.last_hit) >= idle {
                return Some(FlowRemovedReason::IdleTimeout);
            }
        }
        None
    }
}

/// A rule evicted from the table, with the reason and final counters —
/// the payload of a FlowRemoved message.
#[derive(Clone, Debug, PartialEq)]
pub struct RemovedFlow {
    /// The evicted rule.
    pub entry: FlowEntry,
    /// Why it was evicted.
    pub reason: FlowRemovedReason,
}

/// The outcome of offering a packet to the table.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchOutcome {
    /// A rule matched; the frame must be emitted on these ports. An empty
    /// list means the rule dropped the packet.
    Forward {
        /// Output ports, in action order.
        ports: Vec<PortNo>,
    },
    /// No rule matched (table miss) — becomes a PacketIn.
    Miss,
}

/// One priority level: rules in installation order plus a match index so
/// duplicate detection on insert is a lookup, not a scan.
#[derive(Clone, Debug, Default)]
struct Band {
    entries: Vec<FlowEntry>,
    by_match: BTreeMap<FlowMatch, usize>,
}

impl Band {
    /// Drops entries failing `keep`, appending them to `removed` with the
    /// reason `reason_of` yields, and reindexes if anything left.
    fn evict<K, R>(&mut self, removed: &mut Vec<RemovedFlow>, mut keep: K, mut reason_of: R)
    where
        K: FnMut(&FlowEntry) -> bool,
        R: FnMut(&FlowEntry) -> FlowRemovedReason,
    {
        let before = self.entries.len();
        self.entries.retain(|e| {
            if keep(e) {
                true
            } else {
                removed.push(RemovedFlow {
                    entry: e.clone(),
                    reason: reason_of(e),
                });
                false
            }
        });
        if self.entries.len() != before {
            self.by_match = self
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.flow_match, i))
                .collect();
        }
    }
}

/// A priority-ordered flow table.
///
/// Rules are consulted highest-priority first; among equal priorities the
/// earliest-installed wins (stable order). Internally rules live in
/// per-priority bands (a `BTreeMap` keyed by descending priority), each
/// carrying a match→slot index, so `insert` does two ordered-map lookups
/// instead of the two full-table scans a flat vector needs — the difference
/// between O(log n) and O(n²) when a controller pushes thousands of rules
/// at one priority.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    bands: BTreeMap<Reverse<u16>, Band>,
    len: usize,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over installed rules in consultation order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.bands.values().flat_map(|b| b.entries.iter())
    }

    /// Installs `entry` at time `now`. An existing rule with identical match
    /// and priority is replaced in place (counters reset), per OpenFlow
    /// semantics — replacement keeps the rule's consultation slot among its
    /// equal-priority peers.
    pub fn insert(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed_at = now;
        entry.last_hit = now;
        entry.packet_count = 0;
        entry.byte_count = 0;
        let band = self.bands.entry(Reverse(entry.priority)).or_default();
        match band.by_match.entry(entry.flow_match) {
            BandEntry::Occupied(slot) => {
                band.entries[*slot.get()] = entry;
            }
            BandEntry::Vacant(slot) => {
                slot.insert(band.entries.len());
                band.entries.push(entry);
                self.len += 1;
            }
        }
    }

    /// Deletes all rules subsumed by the wildcard pattern `flow_match`
    /// (OpenFlow 1.0 DELETE semantics), returning them in consultation
    /// order.
    pub fn delete(&mut self, flow_match: &FlowMatch) -> Vec<RemovedFlow> {
        let mut removed = Vec::new();
        for band in self.bands.values_mut() {
            band.evict(
                &mut removed,
                |e| !flow_match.subsumes(&e.flow_match),
                |_| FlowRemovedReason::Delete,
            );
        }
        self.finish_eviction(&removed);
        removed
    }

    /// Deletes every rule, returning them (used on switch restart).
    pub fn clear(&mut self) -> Vec<RemovedFlow> {
        let removed = self
            .bands
            .values_mut()
            .flat_map(|b| b.entries.drain(..))
            .map(|entry| RemovedFlow {
                entry,
                reason: FlowRemovedReason::Delete,
            })
            .collect();
        self.bands.clear();
        self.len = 0;
        removed
    }

    /// Offers `frame` (arriving on `in_port` at `now`) to the table.
    ///
    /// On a hit the matched rule's counters and idle timer are updated and
    /// its output ports are returned.
    pub fn process(
        &mut self,
        frame: &EthernetFrame,
        in_port: PortNo,
        now: SimTime,
    ) -> MatchOutcome {
        let wire_len = frame.wire_len() as u64;
        for entry in self.bands.values_mut().flat_map(|b| b.entries.iter_mut()) {
            if entry.expired_reason(now).is_some() {
                continue; // expired rules never match; eviction happens in `expire`
            }
            if entry.flow_match.matches(frame, in_port) {
                entry.packet_count += 1;
                entry.byte_count += wire_len;
                entry.last_hit = now;
                return MatchOutcome::Forward {
                    ports: apply_actions(&entry.actions),
                };
            }
        }
        MatchOutcome::Miss
    }

    /// Evicts expired rules as of `now`, returning them in consultation
    /// order for FlowRemoved notifications.
    pub fn expire(&mut self, now: SimTime) -> Vec<RemovedFlow> {
        let mut removed = Vec::new();
        for band in self.bands.values_mut() {
            band.evict(
                &mut removed,
                |e| e.expired_reason(now).is_none(),
                // The closure runs only on entries whose expiry is Some.
                |e| e.expired_reason(now).unwrap_or(FlowRemovedReason::Delete),
            );
        }
        self.finish_eviction(&removed);
        removed
    }

    /// Drops now-empty bands and accounts for `removed` entries.
    fn finish_eviction(&mut self, removed: &[RemovedFlow]) {
        self.bands.retain(|_, b| !b.entries.is_empty());
        self.len -= removed.len();
    }

    /// Snapshots per-flow statistics (for a FlowStatsReply).
    pub fn stats(&self) -> Vec<FlowStatsEntry> {
        self.entries()
            .map(|e| FlowStatsEntry {
                flow_match: e.flow_match,
                priority: e.priority,
                packet_count: e.packet_count,
                byte_count: e.byte_count,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::packet::Payload;
    use sdn_types::MacAddr;

    fn frame(dst: u8) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::new([1; 6]),
            MacAddr::new([dst; 6]),
            Payload::Opaque {
                ethertype: 0x1234,
                data: vec![0; 50],
            },
        )
    }

    fn out(port: u16) -> Vec<Action> {
        vec![Action::Output(PortNo::new(port))]
    }

    #[test]
    fn miss_on_empty_table() {
        let mut table = FlowTable::new();
        assert_eq!(
            table.process(&frame(2), PortNo::new(1), SimTime::ZERO),
            MatchOutcome::Miss
        );
    }

    #[test]
    fn higher_priority_wins() {
        let mut table = FlowTable::new();
        table.insert(
            FlowEntry::new(FlowMatch::new(), out(1)).with_priority(1),
            SimTime::ZERO,
        );
        table.insert(
            FlowEntry::new(FlowMatch::new().with_eth_dst(MacAddr::new([2; 6])), out(2))
                .with_priority(10),
            SimTime::ZERO,
        );
        match table.process(&frame(2), PortNo::new(9), SimTime::ZERO) {
            MatchOutcome::Forward { ports, .. } => assert_eq!(ports, vec![PortNo::new(2)]),
            other => panic!("expected forward, got {other:?}"),
        }
        // Non-matching dst falls through to the low-priority catch-all.
        match table.process(&frame(3), PortNo::new(9), SimTime::ZERO) {
            MatchOutcome::Forward { ports, .. } => assert_eq!(ports, vec![PortNo::new(1)]),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut table = FlowTable::new();
        table.insert(FlowEntry::new(FlowMatch::new(), out(1)), SimTime::ZERO);
        let f = frame(2);
        let len = f.wire_len() as u64;
        for _ in 0..3 {
            table.process(&f, PortNo::new(1), SimTime::ZERO);
        }
        let stats = table.stats();
        assert_eq!(stats[0].packet_count, 3);
        assert_eq!(stats[0].byte_count, 3 * len);
    }

    #[test]
    fn reinsert_resets_counters() {
        let mut table = FlowTable::new();
        table.insert(FlowEntry::new(FlowMatch::new(), out(1)), SimTime::ZERO);
        table.process(&frame(2), PortNo::new(1), SimTime::ZERO);
        table.insert(
            FlowEntry::new(FlowMatch::new(), out(2)),
            SimTime::from_secs(1),
        );
        assert_eq!(table.len(), 1);
        assert_eq!(table.stats()[0].packet_count, 0);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut table = FlowTable::new();
        table.insert(
            FlowEntry::new(FlowMatch::new(), out(1)).with_hard_timeout(Duration::from_secs(10)),
            SimTime::ZERO,
        );
        assert!(table.expire(SimTime::from_secs(9)).is_empty());
        let removed = table.expire(SimTime::from_secs(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
        assert!(table.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_hit() {
        let mut table = FlowTable::new();
        table.insert(
            FlowEntry::new(FlowMatch::new(), out(1)).with_idle_timeout(Duration::from_secs(5)),
            SimTime::ZERO,
        );
        // Traffic at t=4 keeps the rule alive past t=5.
        table.process(&frame(2), PortNo::new(1), SimTime::from_secs(4));
        assert!(table.expire(SimTime::from_secs(8)).is_empty());
        // No traffic from t=4 to t=9 -> idle-expired.
        let removed = table.expire(SimTime::from_secs(9));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
    }

    #[test]
    fn expired_rule_does_not_match_before_eviction() {
        let mut table = FlowTable::new();
        table.insert(
            FlowEntry::new(FlowMatch::new(), out(1)).with_hard_timeout(Duration::from_secs(1)),
            SimTime::ZERO,
        );
        assert_eq!(
            table.process(&frame(2), PortNo::new(1), SimTime::from_secs(2)),
            MatchOutcome::Miss
        );
    }

    #[test]
    fn delete_by_match() {
        let mut table = FlowTable::new();
        let m = FlowMatch::new().with_eth_dst(MacAddr::new([2; 6]));
        table.insert(FlowEntry::new(m, out(1)), SimTime::ZERO);
        table.insert(FlowEntry::new(FlowMatch::new(), out(2)), SimTime::ZERO);
        let removed = table.delete(&m);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::Delete);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn drop_rule_forwards_nowhere() {
        let mut table = FlowTable::new();
        table.insert(FlowEntry::new(FlowMatch::new(), vec![]), SimTime::ZERO);
        match table.process(&frame(2), PortNo::new(1), SimTime::ZERO) {
            MatchOutcome::Forward { ports, .. } => assert!(ports.is_empty()),
            other => panic!("expected forward(drop), got {other:?}"),
        }
    }

    #[test]
    fn consultation_order_is_priority_then_installation() {
        let mut table = FlowTable::new();
        let m = |d: u8| FlowMatch::new().with_eth_dst(MacAddr::new([d; 6]));
        table.insert(FlowEntry::new(m(1), out(1)).with_priority(5), SimTime::ZERO);
        table.insert(FlowEntry::new(m(2), out(2)).with_priority(9), SimTime::ZERO);
        table.insert(FlowEntry::new(m(3), out(3)).with_priority(5), SimTime::ZERO);
        table.insert(FlowEntry::new(m(4), out(4)).with_priority(7), SimTime::ZERO);
        let order: Vec<u16> = table.entries().map(|e| e.priority).collect();
        assert_eq!(order, vec![9, 7, 5, 5]);
        let dsts: Vec<_> = table.entries().map(|e| e.flow_match.eth_dst).collect();
        assert_eq!(
            dsts,
            vec![
                Some(MacAddr::new([2; 6])),
                Some(MacAddr::new([4; 6])),
                Some(MacAddr::new([1; 6])),
                Some(MacAddr::new([3; 6])),
            ]
        );
    }

    #[test]
    fn replace_keeps_the_original_consultation_slot() {
        // Two same-priority catch-alls that both match the test frame:
        // replacing the first must not demote it behind the second.
        let mut table = FlowTable::new();
        let first = FlowMatch::new().with_eth_src(MacAddr::new([1; 6]));
        let second = FlowMatch::new();
        table.insert(FlowEntry::new(first, out(1)), SimTime::ZERO);
        table.insert(FlowEntry::new(second, out(2)), SimTime::ZERO);
        table.insert(FlowEntry::new(first, out(3)), SimTime::from_secs(1));
        assert_eq!(table.len(), 2);
        match table.process(&frame(2), PortNo::new(9), SimTime::from_secs(1)) {
            MatchOutcome::Forward { ports, .. } => assert_eq!(ports, vec![PortNo::new(3)]),
            other => panic!("expected replaced rule to match first, got {other:?}"),
        }
    }

    #[test]
    fn expire_insert_interleaving_preserves_eviction_order_and_index() {
        let mut table = FlowTable::new();
        let m = |d: u8| FlowMatch::new().with_eth_dst(MacAddr::new([d; 6]));
        // Three same-priority rules; the middle one will idle out first.
        table.insert(
            FlowEntry::new(m(1), out(1)).with_idle_timeout(Duration::from_secs(10)),
            SimTime::ZERO,
        );
        table.insert(
            FlowEntry::new(m(2), out(2)).with_idle_timeout(Duration::from_secs(2)),
            SimTime::ZERO,
        );
        table.insert(
            FlowEntry::new(m(3), out(3)).with_hard_timeout(Duration::from_secs(4)),
            SimTime::ZERO,
        );
        let removed = table.expire(SimTime::from_secs(5));
        // Eviction order follows consultation order: m2 (idle) before m3 (hard).
        assert_eq!(
            removed
                .iter()
                .map(|r| (r.entry.flow_match.eth_dst, r.reason))
                .collect::<Vec<_>>(),
            vec![
                (Some(MacAddr::new([2; 6])), FlowRemovedReason::IdleTimeout),
                (Some(MacAddr::new([3; 6])), FlowRemovedReason::HardTimeout),
            ]
        );
        assert_eq!(table.len(), 1);
        // The survivor's index slot must have been rebuilt: replacing it
        // still lands on the survivor, not a stale position.
        table.insert(
            FlowEntry::new(m(1), out(7)).with_idle_timeout(Duration::from_secs(10)),
            SimTime::from_secs(5),
        );
        assert_eq!(table.len(), 1);
        match table.process(&frame(1), PortNo::new(9), SimTime::from_secs(5)) {
            MatchOutcome::Forward { ports, .. } => assert_eq!(ports, vec![PortNo::new(7)]),
            other => panic!("expected replaced survivor, got {other:?}"),
        }
        // Reinstalling an evicted match is a fresh install at the band tail.
        table.insert(FlowEntry::new(m(2), out(8)), SimTime::from_secs(5));
        assert_eq!(table.len(), 2);
        let dsts: Vec<_> = table.entries().map(|e| e.flow_match.eth_dst).collect();
        assert_eq!(
            dsts,
            vec![Some(MacAddr::new([1; 6])), Some(MacAddr::new([2; 6]))]
        );
    }

    #[test]
    fn delete_drops_empty_bands_and_keeps_len_consistent() {
        let mut table = FlowTable::new();
        let m = FlowMatch::new().with_eth_dst(MacAddr::new([2; 6]));
        table.insert(FlowEntry::new(m, out(1)).with_priority(50), SimTime::ZERO);
        table.insert(FlowEntry::new(FlowMatch::new(), out(2)), SimTime::ZERO);
        assert_eq!(table.delete(&m).len(), 1);
        assert_eq!(table.len(), 1);
        // Re-adding at the emptied priority works from scratch.
        table.insert(FlowEntry::new(m, out(3)).with_priority(50), SimTime::ZERO);
        assert_eq!(table.len(), 2);
        assert_eq!(table.entries().count(), 2);
    }

    #[test]
    fn clear_returns_all() {
        let mut table = FlowTable::new();
        table.insert(FlowEntry::new(FlowMatch::new(), out(1)), SimTime::ZERO);
        table.insert(
            FlowEntry::new(FlowMatch::new().with_in_port(PortNo::new(2)), out(2)),
            SimTime::ZERO,
        );
        assert_eq!(table.clear().len(), 2);
        assert!(table.is_empty());
    }
}
