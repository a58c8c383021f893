//! The event trace: a fixed-size digest of every simulation event.
//!
//! A run keeps no per-event records. [`Trace`] counts events by kind and
//! folds each one, in order, into a 64-bit digest, so two runs' traces
//! compare equal exactly when their event sequences were equal (barring
//! a 64-bit collision) — which is all the determinism tests need, at a
//! cost that does not grow with the run.

use sdn_types::{DatapathId, HostId, PortNo, SimTime};
use tm_rand::splitmix64;

/// One traced simulation event.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TraceEvent {
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
    /// The switch declared a port down (link-pulse loss or admin down).
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

/// The kind of a traced event, for [`Trace::count`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet was sent to the controller.
    PacketIn,
    /// A switch declared a port down.
    PortDown,
    /// A switch declared a port up.
    PortUp,
    /// A frame was delivered to a host.
    HostRx,
    /// A frame was dropped in transit.
    Dropped,
    /// A flow rule was installed on a switch.
    FlowInstalled,
    /// A frame crossed an out-of-band channel.
    OobRelay,
}

/// Event counts by kind plus an order-sensitive digest of every event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    total: u64,
    counts: [u64; 7],
    digest: u64,
}

// The trace stays a fixed-size value: per-event storage cannot come back
// without this failing to compile.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Trace>();
};

impl Trace {
    /// Counts `event` and folds its kind and every field into the digest.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        // The kind fixes what each word holds, so distinct events give
        // distinct word sequences.
        let (kind, [a, b, c]) = match event {
            TraceEvent::PacketIn {
                at,
                dpid,
                port,
                ethertype,
            } => (
                TraceKind::PacketIn,
                [at.0, dpid.0, u64::from(port.0) << 16 | u64::from(ethertype)],
            ),
            TraceEvent::PortDown { at, dpid, port } => {
                (TraceKind::PortDown, [at.0, dpid.0, port.0.into()])
            }
            TraceEvent::PortUp { at, dpid, port } => {
                (TraceKind::PortUp, [at.0, dpid.0, port.0.into()])
            }
            TraceEvent::HostRx {
                at,
                host,
                ethertype,
            } => (TraceKind::HostRx, [at.0, host.0.into(), ethertype.into()]),
            // FNV-1a over the reason's bytes.
            TraceEvent::Dropped { at, reason } => (
                TraceKind::Dropped,
                [
                    at.0,
                    reason.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                    }),
                    0,
                ],
            ),
            TraceEvent::FlowInstalled { at, dpid } => (TraceKind::FlowInstalled, [at.0, dpid.0, 0]),
            TraceEvent::OobRelay { at, from, to } => {
                (TraceKind::OobRelay, [at.0, from.0.into(), to.0.into()])
            }
        };
        self.total += 1;
        if let Some(n) = self.counts.get_mut(kind as usize) {
            *n += 1;
        }
        for word in [kind as u64, a, b, c] {
            self.fold(word);
        }
    }

    /// Mixes one word into the digest. Each step is a bijection of the
    /// running digest, so the result depends on every word and its order.
    fn fold(&mut self, word: u64) {
        let mut state = self.digest ^ word;
        self.digest = splitmix64(&mut state);
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events of the given kind observed.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts.get(kind as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port_down(ms: u64) -> TraceEvent {
        TraceEvent::PortDown {
            at: SimTime::from_millis(ms),
            dpid: DatapathId::new(1),
            port: PortNo::new(1),
        }
    }

    /// One event of every kind.
    fn script() -> Vec<TraceEvent> {
        let at = SimTime::from_millis(5);
        vec![
            TraceEvent::PacketIn {
                at,
                dpid: DatapathId::new(1),
                port: PortNo::new(2),
                ethertype: 0x88cc,
            },
            port_down(6),
            TraceEvent::PortUp {
                at,
                dpid: DatapathId::new(1),
                port: PortNo::new(1),
            },
            TraceEvent::HostRx {
                at,
                host: HostId::new(3),
                ethertype: 0x0806,
            },
            TraceEvent::Dropped {
                at,
                reason: "egress port down",
            },
            TraceEvent::FlowInstalled {
                at,
                dpid: DatapathId::new(2),
            },
            TraceEvent::OobRelay {
                at,
                from: HostId::new(4),
                to: HostId::new(5),
            },
        ]
    }

    fn trace_of(events: &[TraceEvent]) -> Trace {
        let mut t = Trace::default();
        for &e in events {
            t.push(e);
        }
        t
    }

    #[test]
    fn count_and_total_are_exact() {
        let mut events = script();
        events.extend([port_down(7), port_down(8)]);
        let t = trace_of(&events);
        assert_eq!(t.total(), 9);
        assert_eq!(t.count(TraceKind::PortDown), 3);
        for kind in [
            TraceKind::PacketIn,
            TraceKind::PortUp,
            TraceKind::HostRx,
            TraceKind::Dropped,
            TraceKind::FlowInstalled,
            TraceKind::OobRelay,
        ] {
            assert_eq!(t.count(kind), 1, "{kind:?}");
        }
        assert_eq!(Trace::default().total(), 0);
    }

    #[test]
    fn equal_sequences_give_equal_traces() {
        assert_eq!(trace_of(&script()), trace_of(&script()));
        assert_ne!(trace_of(&script()), Trace::default());
    }

    #[test]
    fn swapping_two_events_changes_the_digest() {
        let base = trace_of(&script());
        let mut swapped = script();
        swapped.swap(1, 2);
        let swapped = trace_of(&swapped);
        assert_eq!(swapped.counts, base.counts, "same multiset of events");
        assert_ne!(swapped.digest, base.digest);
    }

    #[test]
    fn changing_any_field_changes_the_digest() {
        let base = trace_of(&script()).digest;
        let edits: Vec<(usize, TraceEvent)> = vec![
            (
                0,
                TraceEvent::PacketIn {
                    at: SimTime::from_millis(5),
                    dpid: DatapathId::new(1),
                    port: PortNo::new(2),
                    ethertype: 0x0800,
                },
            ),
            (1, port_down(7)),
            (
                2,
                TraceEvent::PortUp {
                    at: SimTime::from_millis(5),
                    dpid: DatapathId::new(1),
                    port: PortNo::new(3),
                },
            ),
            (
                3,
                TraceEvent::HostRx {
                    at: SimTime::from_millis(5),
                    host: HostId::new(9),
                    ethertype: 0x0806,
                },
            ),
            (
                4,
                TraceEvent::Dropped {
                    at: SimTime::from_millis(5),
                    reason: "egress port down!",
                },
            ),
            (
                5,
                TraceEvent::FlowInstalled {
                    at: SimTime::from_millis(5),
                    dpid: DatapathId::new(3),
                },
            ),
            (
                6,
                TraceEvent::OobRelay {
                    at: SimTime::from_millis(5),
                    from: HostId::new(5),
                    to: HostId::new(4),
                },
            ),
            // Same fields, another kind.
            (
                2,
                TraceEvent::PortDown {
                    at: SimTime::from_millis(5),
                    dpid: DatapathId::new(1),
                    port: PortNo::new(1),
                },
            ),
        ];
        for (i, edit) in edits {
            let mut events = script();
            events[i] = edit;
            assert_ne!(trace_of(&events).digest, base, "edit {edit:?}");
        }
    }
}
