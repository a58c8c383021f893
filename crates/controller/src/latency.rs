//! Control-link latency tracking via OpenFlow echoes.
//!
//! TopoGuard+ estimates switch-link latency as `T_LLDP − T_SW1 − T_SW2`
//! (§VI-D). The `T_SW` terms come from echo round trips: "we take the
//! average of the latest three latency measurements of the control links in
//! order to minimize variance."

use std::collections::VecDeque;

use sdn_types::{DatapathId, Duration, SimTime, Table};

/// How many recent RTTs the paper averages.
pub const SAMPLES_AVERAGED: usize = 3;

/// Tracks per-switch control-channel round-trip times.
#[derive(Clone, Debug, Default)]
pub struct CtrlLatencyTracker {
    /// Each measured switch's latest RTTs, by dpid.
    rtts: Table<DatapathId, RttWindow>,
    /// Echoes awaiting a reply as `(xid, switch, sent)`, ascending by xid.
    /// xids come from one counter, so a send appends and the oldest reply
    /// is due at the front.
    outstanding: VecDeque<(u64, DatapathId, SimTime)>,
}

/// The latest [`SAMPLES_AVERAGED`] RTTs of one switch, as a ring. Only
/// their sum is read, so the ring's order does not matter.
#[derive(Clone, Copy, Debug, Default)]
struct RttWindow {
    samples: [Duration; SAMPLES_AVERAGED],
    /// Slots filled so far, at most [`SAMPLES_AVERAGED`].
    len: usize,
    /// The slot the next RTT overwrites.
    next: usize,
}

impl RttWindow {
    fn push(&mut self, rtt: Duration) {
        if let Some(slot) = self.samples.get_mut(self.next) {
            *slot = rtt;
        }
        self.next = (self.next + 1) % SAMPLES_AVERAGED;
        self.len = (self.len + 1).min(SAMPLES_AVERAGED);
    }

    /// The mean RTT, rounded to the nearest nanosecond; `None` when empty.
    fn mean(&self) -> Option<Duration> {
        // Unfilled slots hold zero, so summing every slot sums the filled.
        let total: u64 = self.samples.iter().map(|d| d.as_nanos()).sum();
        let len = self.len as u64;
        total
            .checked_add(len / 2)?
            .checked_div(len)
            .map(Duration::from_nanos)
    }
}

impl CtrlLatencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        CtrlLatencyTracker::default()
    }

    /// Records that an echo with transaction id `xid` was sent to `dpid`.
    /// Re-sending an outstanding xid replaces its entry.
    pub fn echo_sent(&mut self, xid: u64, dpid: DatapathId, at: SimTime) {
        let entry = (xid, dpid, at);
        if self.outstanding.back().is_none_or(|&(last, ..)| last < xid) {
            self.outstanding.push_back(entry);
            return;
        }
        match self.outstanding.binary_search_by_key(&xid, |&(x, ..)| x) {
            Ok(i) => {
                if let Some(slot) = self.outstanding.get_mut(i) {
                    *slot = entry;
                }
            }
            Err(i) => self.outstanding.insert(i, entry),
        }
    }

    /// Records an echo reply; returns the measured RTT if the xid was known.
    pub fn echo_received(&mut self, xid: u64, now: SimTime) -> Option<Duration> {
        // Replies come back in the order their echoes went out wherever
        // every switch has the same control latency: the front first.
        let i = match self.outstanding.front() {
            Some(&(front, ..)) if front == xid => 0,
            _ => self
                .outstanding
                .binary_search_by_key(&xid, |&(x, ..)| x)
                .ok()?,
        };
        let (_, dpid, sent) = self.outstanding.remove(i)?;
        let rtt = now.since(sent);
        self.rtts
            .get_or_insert_with(dpid, RttWindow::default)
            .push(rtt);
        Some(rtt)
    }

    /// Forgets outstanding echoes sent before `now − horizon` and returns
    /// how many were dropped. Lost or reordered replies would otherwise pin
    /// their entries forever, growing the queue without bound over a long
    /// run.
    pub fn prune_stale(&mut self, now: SimTime, horizon: Duration) -> usize {
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(horizon.as_nanos()));
        let before = self.outstanding.len();
        self.outstanding.retain(|&(_, _, sent)| sent >= cutoff);
        before - self.outstanding.len()
    }

    /// Number of echoes awaiting a reply (diagnostics).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// The average of the latest three RTTs for `dpid`, or `None` if no
    /// measurement has completed yet. Rounded to the nearest nanosecond:
    /// truncation would bias `T_SW` low, and therefore the LLI's
    /// `T_LLDP − T_SW1 − T_SW2` estimate high.
    pub fn avg_rtt(&self, dpid: DatapathId) -> Option<Duration> {
        self.rtts.get(&dpid)?.mean()
    }

    /// The estimated one-way control-link delay (`T_SW`): half the averaged
    /// RTT.
    pub fn one_way(&self, dpid: DatapathId) -> Option<Duration> {
        self.avg_rtt(dpid).map(|rtt| rtt.div(2))
    }

    /// Number of switches with at least one completed measurement.
    pub fn measured_switches(&self) -> usize {
        // A window is created by its first measurement.
        self.rtts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SW: DatapathId = DatapathId::new(7);

    #[test]
    fn rtt_measurement_round_trip() {
        let mut t = CtrlLatencyTracker::new();
        t.echo_sent(1, SW, SimTime::from_millis(100));
        let rtt = t.echo_received(1, SimTime::from_millis(102)).unwrap();
        assert_eq!(rtt, Duration::from_millis(2));
        assert_eq!(t.avg_rtt(SW), Some(Duration::from_millis(2)));
        assert_eq!(t.one_way(SW), Some(Duration::from_millis(1)));
    }

    #[test]
    fn unknown_xid_ignored() {
        let mut t = CtrlLatencyTracker::new();
        assert!(t.echo_received(99, SimTime::from_millis(5)).is_none());
    }

    #[test]
    fn averages_latest_three_only() {
        let mut t = CtrlLatencyTracker::new();
        // Four echoes with RTTs 10, 2, 4, 6 ms: the first must fall out.
        for (i, (sent, rtt)) in [(0u64, 10u64), (20, 2), (40, 4), (60, 6)]
            .iter()
            .enumerate()
        {
            let xid = i as u64;
            t.echo_sent(xid, SW, SimTime::from_millis(*sent));
            t.echo_received(xid, SimTime::from_millis(sent + rtt));
        }
        assert_eq!(t.avg_rtt(SW), Some(Duration::from_millis(4)));
    }

    #[test]
    fn no_measurement_is_none() {
        let t = CtrlLatencyTracker::new();
        assert!(t.avg_rtt(SW).is_none());
        assert!(t.one_way(SW).is_none());
        assert_eq!(t.measured_switches(), 0);
    }

    #[test]
    fn avg_rtt_rounds_to_nearest_instead_of_truncating() {
        let mut t = CtrlLatencyTracker::new();
        // RTTs of 1 ns, 2 ns, 2 ns: total 5, len 3. Truncation would give
        // 1 ns; round-to-nearest gives 2 ns.
        for (xid, (sent, rtt)) in [(0u64, 1u64), (100, 2), (200, 2)].iter().enumerate() {
            let xid = xid as u64;
            t.echo_sent(xid, SW, SimTime::from_nanos(*sent));
            t.echo_received(xid, SimTime::from_nanos(sent + rtt));
        }
        assert_eq!(t.avg_rtt(SW), Some(Duration::from_nanos(2)));

        // And a window that rounds down: 1, 1, 2 → 4/3 → 1 ns.
        let mut t = CtrlLatencyTracker::new();
        for (xid, (sent, rtt)) in [(0u64, 1u64), (100, 1), (200, 2)].iter().enumerate() {
            let xid = xid as u64;
            t.echo_sent(xid, SW, SimTime::from_nanos(*sent));
            t.echo_received(xid, SimTime::from_nanos(sent + rtt));
        }
        assert_eq!(t.avg_rtt(SW), Some(Duration::from_nanos(1)));
    }

    #[test]
    fn prune_drops_only_stale_outstanding_echoes() {
        let mut t = CtrlLatencyTracker::new();
        t.echo_sent(1, SW, SimTime::from_secs(1)); // stale: reply never came
        t.echo_sent(2, SW, SimTime::from_secs(9)); // recent
        assert_eq!(t.outstanding_count(), 2);
        let pruned = t.prune_stale(SimTime::from_secs(10), Duration::from_secs(5));
        assert_eq!(pruned, 1);
        assert_eq!(t.outstanding_count(), 1);
        // The pruned xid no longer yields a measurement...
        assert!(t.echo_received(1, SimTime::from_secs(10)).is_none());
        // ...but the surviving one does.
        assert!(t.echo_received(2, SimTime::from_secs(10)).is_some());
    }

    #[test]
    fn tracks_switches_independently() {
        let mut t = CtrlLatencyTracker::new();
        let sw2 = DatapathId::new(8);
        t.echo_sent(1, SW, SimTime::from_millis(0));
        t.echo_received(1, SimTime::from_millis(2));
        t.echo_sent(2, sw2, SimTime::from_millis(0));
        t.echo_received(2, SimTime::from_millis(8));
        assert_eq!(t.avg_rtt(SW), Some(Duration::from_millis(2)));
        assert_eq!(t.avg_rtt(sw2), Some(Duration::from_millis(8)));
        assert_eq!(t.measured_switches(), 2);
    }
}
