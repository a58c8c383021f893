//! A bounded, typed event trace for tests, debugging, and experiments.

use sdn_types::{DatapathId, HostId, PortNo, SimTime};

/// One traced simulation event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A table-miss or action-directed packet was sent to the controller.
    PacketIn {
        /// When it was sent up.
        at: SimTime,
        /// The switch.
        dpid: DatapathId,
        /// The ingress port.
        port: PortNo,
        /// EtherType of the packet.
        ethertype: u16,
    },
    /// The switch declared a port down (link-pulse loss).
    PortDown {
        /// When detection fired.
        at: SimTime,
        /// The switch.
        dpid: DatapathId,
        /// The port.
        port: PortNo,
    },
    /// The switch declared a port up.
    PortUp {
        /// When detection fired.
        at: SimTime,
        /// The switch.
        dpid: DatapathId,
        /// The port.
        port: PortNo,
    },
    /// A frame was delivered to a host.
    HostRx {
        /// Delivery time.
        at: SimTime,
        /// The host.
        host: HostId,
        /// EtherType of the frame.
        ethertype: u16,
    },
    /// A frame was dropped in transit.
    Dropped {
        /// When.
        at: SimTime,
        /// Why (static description).
        reason: &'static str,
    },
    /// A flow rule was installed on a switch.
    FlowInstalled {
        /// When.
        at: SimTime,
        /// The switch.
        dpid: DatapathId,
    },
    /// A frame crossed an out-of-band channel.
    OobRelay {
        /// Delivery time.
        at: SimTime,
        /// Sender.
        from: HostId,
        /// Receiver.
        to: HostId,
    },
}

impl TraceEvent {
    /// A coarse kind label for counting.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketIn { .. } => "PacketIn",
            TraceEvent::PortDown { .. } => "PortDown",
            TraceEvent::PortUp { .. } => "PortUp",
            TraceEvent::HostRx { .. } => "HostRx",
            TraceEvent::Dropped { .. } => "Dropped",
            TraceEvent::FlowInstalled { .. } => "FlowInstalled",
            TraceEvent::OobRelay { .. } => "OobRelay",
        }
    }
}

/// A bounded trace. Once `capacity` records have been stored, further
/// records are counted but not retained.
#[derive(Clone, Debug)]
pub struct Trace {
    records: Vec<TraceEvent>,
    capacity: usize,
    total: u64,
}

impl Trace {
    /// Creates a trace retaining up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            records: Vec::new(),
            capacity,
            total: 0,
        }
    }

    /// Records an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.records.len() < self.capacity {
            self.records.push(event);
        }
    }

    /// All retained records, in order.
    pub fn records(&self) -> &[TraceEvent] {
        &self.records
    }

    /// Total events observed (including any beyond capacity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Counts retained records of the given kind.
    pub fn count(&self, kind: &str) -> usize {
        self.records.iter().filter(|r| r.kind() == kind).count()
    }

    /// Iterates retained records of the given kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.records.iter().filter(move |r| r.kind() == kind)
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut t = Trace::new(10);
        t.push(TraceEvent::PortDown {
            at: SimTime::ZERO,
            dpid: DatapathId::new(1),
            port: PortNo::new(1),
        });
        t.push(TraceEvent::PortUp {
            at: SimTime::ZERO,
            dpid: DatapathId::new(1),
            port: PortNo::new(1),
        });
        assert_eq!(t.count("PortDown"), 1);
        assert_eq!(t.count("PortUp"), 1);
        assert_eq!(t.total(), 2);
    }

    #[test]
    fn capacity_bounds_retention_not_total() {
        let mut t = Trace::new(2);
        for _ in 0..5 {
            t.push(TraceEvent::Dropped {
                at: SimTime::ZERO,
                reason: "test",
            });
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.total(), 5);
    }
}
