//! The discrete-event core: clock, deterministic event queue, RNG.

use std::collections::BinaryHeap;

use tm_rand::StdRng;
use tm_telemetry::Telemetry;

use crate::metrics::HotMetrics;

use openflow::OfMessage;
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};

/// The IEEE 802.3 link-integrity-pulse window: a switch declares a port down
/// after `16 ± 8` ms without link pulses (§V-A). The simulator samples the
/// detection delay uniformly from `[8 ms, 24 ms)`.
pub const PULSE_WINDOW: (Duration, Duration) =
    (Duration::from_millis(8), Duration::from_millis(24));

/// Payload of [`Event::DeliverToSwitch`]: a dataplane frame headed for a
/// switch port. Boxed so [`Scheduled`] entries stay sift-cheap.
#[derive(Debug)]
pub(crate) struct SwitchDelivery {
    /// Receiving switch.
    pub(crate) dpid: DatapathId,
    /// Ingress port.
    pub(crate) port: PortNo,
    /// The frame.
    pub(crate) frame: EthernetFrame,
}

/// Payload of [`Event::DeliverToHost`]: a dataplane frame headed for a host
/// interface.
#[derive(Debug)]
pub(crate) struct HostDelivery {
    /// Receiving host.
    pub(crate) host: HostId,
    /// The frame.
    pub(crate) frame: EthernetFrame,
}

/// Payload of [`Event::DeliverOob`]: a side-channel frame between hosts.
#[derive(Debug)]
pub(crate) struct OobDelivery {
    /// Receiving host.
    pub(crate) to: HostId,
    /// Sending host.
    pub(crate) from: HostId,
    /// The frame.
    pub(crate) frame: EthernetFrame,
}

/// Payload of [`Event::CtrlToSwitch`] / [`Event::CtrlToController`]: an
/// OpenFlow message in flight on a control channel.
#[derive(Debug)]
pub(crate) struct CtrlDelivery {
    /// The switch end of the control channel.
    pub(crate) dpid: DatapathId,
    /// The message.
    pub(crate) msg: OfMessage,
}

/// Payload of [`Event::PulseCheck`]: a link-integrity-pulse deadline.
#[derive(Debug)]
pub(crate) struct PulseDue {
    /// The switch.
    pub(crate) dpid: DatapathId,
    /// The port.
    pub(crate) port: PortNo,
    /// The interface down-epoch this check corresponds to.
    pub(crate) down_epoch: u64,
}

/// Payload of [`Event::HostIfaceUp`]: a completing interface bring-up.
#[derive(Debug)]
pub(crate) struct IfaceUp {
    /// The host.
    pub(crate) host: HostId,
    /// The bring-up epoch (stale events are ignored).
    pub(crate) epoch: u64,
    /// New identity to assume, if the bring-up changes identifiers.
    pub(crate) identity: Option<(MacAddr, IpAddr)>,
}

/// An event in the simulation.
///
/// Variants whose payload exceeds a couple of machine words (frames,
/// OpenFlow messages, identity tuples) carry it boxed: every pending event
/// is moved repeatedly by heap sifts, so the inline size of this enum —
/// not the payload size — is what the scheduler pays per comparison. See
/// the `scheduled_entries_are_sift_cheap` test for the enforced bound.
#[derive(Debug)]
pub(crate) enum Event {
    /// A dataplane frame arrives at a switch port.
    DeliverToSwitch(Box<SwitchDelivery>),
    /// A dataplane frame arrives at a host interface.
    DeliverToHost(Box<HostDelivery>),
    /// An out-of-band (side channel) frame arrives at a host.
    DeliverOob(Box<OobDelivery>),
    /// A control message arrives at a switch.
    CtrlToSwitch(Box<CtrlDelivery>),
    /// A control message arrives at the controller.
    CtrlToController(Box<CtrlDelivery>),
    /// A controller timer fires.
    ControllerTimer {
        /// Timer id chosen by the controller.
        id: u64,
    },
    /// A host timer fires.
    HostTimer {
        /// Owning host.
        host: HostId,
        /// Timer id chosen by the host app.
        id: u64,
    },
    /// Periodic flow-table expiry scan on a switch.
    SwitchExpiryTick {
        /// The switch.
        dpid: DatapathId,
    },
    /// Link-integrity-pulse deadline: if the host interface attached to this
    /// port has been down continuously since `down_epoch`, the switch
    /// declares the port down.
    PulseCheck(Box<PulseDue>),
    /// Link pulses resumed on a port whose attached interface came back up;
    /// the switch re-detects the link unless traffic already did.
    PulseCheckUp {
        /// The switch.
        dpid: DatapathId,
        /// The port.
        port: PortNo,
    },
    /// An in-progress `ifconfig`-style interface bring-up completes.
    HostIfaceUp(Box<IfaceUp>),
    /// A windowed fault (loss / latency spike / control congestion)
    /// activates.
    FaultWindowStart {
        /// Which fault table the index points into.
        kind: crate::faults::FaultWindowKind,
        /// Index into that table of the installed plan.
        index: usize,
    },
    /// A windowed fault deactivates.
    FaultWindowEnd {
        /// Which fault table the index points into.
        kind: crate::faults::FaultWindowKind,
        /// Index into that table of the installed plan.
        index: usize,
    },
    /// An injected link flap takes the port down.
    FaultLinkDown {
        /// Index into the plan's flap table.
        index: usize,
    },
    /// An injected link flap brings the port back up.
    FaultLinkUp {
        /// Index into the plan's flap table.
        index: usize,
    },
    /// A flow-level traffic arrival for a traffic group. Arrivals carry
    /// the group's on-phase epoch so a chain cancelled by an off-phase
    /// toggle cannot fire stale events.
    TrafficArrival {
        /// Index into the installed traffic plan's group table.
        group: u32,
        /// The group on-phase epoch this arrival belongs to.
        epoch: u32,
    },
    /// A traffic group's on/off phase edge (the first one, at the group's
    /// window start, turns the group on).
    TrafficPhase {
        /// Index into the installed traffic plan's group table.
        group: u32,
    },
    /// An injected switch restart wipes the flow table.
    FaultSwitchRestart {
        /// Index into the plan's restart table.
        index: usize,
    },
    /// A restarted switch re-runs its controller handshake.
    FaultSwitchReconnect {
        /// Index into the plan's restart table.
        index: usize,
    },
}

/// Size in bytes of one queued entry — what every heap sift moves per
/// swap. Kept ≤ 32 by boxing fat event payloads (see `Event`); exposed so
/// benches can record the footprint next to their throughput numbers.
pub fn sched_entry_bytes() -> usize {
    std::mem::size_of::<Scheduled>()
}

/// A queued event with its firing time and tie-break sequence number.
#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    // tm-lint: allow(float-ordering) -- PartialOrd impl over integer (SimTime, seq) keys; no floats involved
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Debug-build runtime invariant checker: the dynamic half of the
/// determinism contract that `tm-lint` enforces statically (see DESIGN.md
/// §"Determinism contract"). Tracks the last popped `(time, seq)` pair and
/// panics the moment a scheduler bug lets time run backwards or a tie pop
/// out of insertion order — the exact ordering sensitivities topology
/// tampering attacks exploit, caught at the source instead of three
/// scenarios downstream in a diverged BENCH_JSON snapshot.
#[cfg(debug_assertions)]
#[derive(Default)]
struct PopInvariants {
    last: Option<(SimTime, u64)>,
}

#[cfg(debug_assertions)]
impl PopInvariants {
    fn check(&mut self, at: SimTime, seq: u64, clock: SimTime) {
        assert!(
            at >= clock,
            "invariant violated: popped event at {at:?} is before the clock {clock:?}"
        );
        if let Some((last_at, last_seq)) = self.last {
            assert!(
                at >= last_at,
                "invariant violated: pop times went backwards ({at:?} after {last_at:?})"
            );
            assert!(
                at > last_at || seq > last_seq,
                "invariant violated: tie at {at:?} popped out of insertion order \
                 (seq {seq} after {last_seq})"
            );
        }
        self.last = Some((at, seq));
    }
}

/// Clock + queue + RNG. Shared mutably by every dispatch path.
pub(crate) struct SimCore {
    clock: SimTime,
    seq: u64,
    /// Pending events; pops in strictly ascending `(time, seq)` order.
    queue: BinaryHeap<Scheduled>,
    pub(crate) rng: StdRng,
    /// Shared metrics handle (disabled by default: every publish is a no-op).
    pub(crate) telemetry: Telemetry,
    /// The hot-path metrics, resolved from `telemetry`.
    pub(crate) metrics: HotMetrics,
    // Engine totals kept as plain scalars on the hot path and flushed into
    // the registry only when a snapshot is taken.
    events_scheduled: u64,
    events_processed: u64,
    queue_highwater: usize,
    #[cfg(debug_assertions)]
    invariants: PopInvariants,
}

impl SimCore {
    pub(crate) fn new(seed: u64, telemetry: Telemetry) -> Self {
        SimCore {
            clock: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: HotMetrics::resolve(&telemetry),
            telemetry,
            events_scheduled: 0,
            events_processed: 0,
            queue_highwater: 0,
            #[cfg(debug_assertions)]
            invariants: PopInvariants::default(),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub(crate) fn schedule(&mut self, delay: Duration, event: Event) {
        let at = self.clock + delay;
        self.schedule_at(at, event);
    }

    /// Schedules `event` at an absolute time (clamped to the present — the
    /// queue never travels backwards).
    pub(crate) fn schedule_at(&mut self, at: SimTime, event: Event) {
        let at = at.max(self.clock);
        let seq = self.seq;
        // Tie-break seqs are dense by construction (each schedule takes
        // the next integer); overflow would wrap ties back to the front.
        debug_assert!(seq < u64::MAX, "seq counter exhausted");
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
        self.events_scheduled += 1;
        if self.queue.len() > self.queue_highwater {
            self.queue_highwater = self.queue.len();
        }
    }

    /// Pops the next event if it fires at or before `horizon`, advancing the
    /// clock to the event time.
    pub(crate) fn pop_until(&mut self, horizon: SimTime) -> Option<Event> {
        if self.queue.peek()?.at > horizon {
            return None;
        }
        let s = self.queue.pop()?;
        #[cfg(debug_assertions)]
        self.invariants.check(s.at, s.seq, self.clock);
        self.clock = s.at;
        self.events_processed += 1;
        Some(s.event)
    }

    /// Flushes the scalar engine totals into the registry (idempotent
    /// absolute writes; called when a snapshot is taken).
    pub(crate) fn flush_engine_metrics(&self) {
        self.telemetry
            .counter_set("netsim.engine.events_scheduled", self.events_scheduled);
        self.telemetry
            .counter_set("netsim.engine.events_processed", self.events_processed);
        self.telemetry.gauge_set(
            "netsim.engine.queue_highwater",
            i64::try_from(self.queue_highwater).unwrap_or(i64::MAX),
        );
        self.telemetry.gauge_set(
            "netsim.engine.clock_ns",
            i64::try_from(self.clock.as_nanos()).unwrap_or(i64::MAX),
        );
    }

    /// Advances the clock to `horizon` (used after draining events).
    pub(crate) fn advance_to(&mut self, horizon: SimTime) {
        if horizon > self.clock {
            self.clock = horizon;
        }
    }

    /// Number of pending events.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pushes a raw `(at, seq)` entry, bypassing the monotonic clamp and
    /// the dense seq counter — i.e. deliberately breaks the scheduler.
    /// Exists only so tests can prove the invariant checker catches it.
    #[cfg(test)]
    pub(crate) fn push_raw_for_test(&mut self, at: SimTime, seq: u64, event: Event) {
        self.queue.push(Scheduled { at, seq, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_entries_are_sift_cheap() {
        // Every pending event is moved by heap sifts; boxing the fat
        // payloads keeps each move to at most four machine words: `at` +
        // `seq` + a 16-byte `Event` (tag plus one aligned word). A
        // regression here means someone inlined a payload.
        assert!(
            std::mem::size_of::<Event>() <= 16,
            "Event grew to {} bytes — box the new payload",
            std::mem::size_of::<Event>()
        );
        assert!(
            std::mem::size_of::<Scheduled>() <= 32,
            "Scheduled grew to {} bytes — the sift bound is 32",
            std::mem::size_of::<Scheduled>()
        );
    }

    fn core() -> SimCore {
        SimCore::new(1, Telemetry::disabled())
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut core = core();
        core.schedule(Duration::from_millis(30), Event::ControllerTimer { id: 3 });
        core.schedule(Duration::from_millis(10), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(20), Event::ControllerTimer { id: 2 });
        let mut ids = Vec::new();
        while let Some(Event::ControllerTimer { id }) = core.pop_until(SimTime::from_secs(1)) {
            ids.push(id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(core.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut core = core();
        for id in 0..5 {
            core.schedule(Duration::from_millis(10), Event::ControllerTimer { id });
        }
        let mut ids = Vec::new();
        while let Some(Event::ControllerTimer { id }) = core.pop_until(SimTime::from_secs(1)) {
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn horizon_is_respected() {
        let mut core = core();
        core.schedule(Duration::from_millis(10), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(50), Event::ControllerTimer { id: 2 });
        assert!(core.pop_until(SimTime::from_millis(20)).is_some());
        assert!(core.pop_until(SimTime::from_millis(20)).is_none());
        assert_eq!(core.pending(), 1);
        core.advance_to(SimTime::from_millis(20));
        assert_eq!(core.now(), SimTime::from_millis(20));
    }

    #[test]
    fn far_future_timers_survive() {
        // An hour-long timer parked behind a near one: the near one pops
        // first, the far one waits out an intermediate horizon.
        let mut core = core();
        core.schedule(Duration::from_secs(3600), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(5), Event::ControllerTimer { id: 2 });
        assert!(core.pop_until(SimTime::from_secs(1)).is_some());
        assert!(core.pop_until(SimTime::from_secs(1)).is_none());
        assert!(core.pop_until(SimTime::from_secs(7200)).is_some());
        assert_eq!(core.now(), SimTime::from_secs(3600));
        assert_eq!(core.pending(), 0);
    }

    /// Runs `f` on a fresh core and reports whether it panicked, with the
    /// default panic hook silenced so expected panics don't spam test
    /// output.
    fn panics(f: impl FnOnce(&mut SimCore) + std::panic::UnwindSafe) -> bool {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(move || {
            let mut core = core();
            f(&mut core);
        });
        std::panic::set_hook(prev);
        result.is_err()
    }

    #[test]
    fn broken_scheduler_event_in_the_past_is_caught() {
        assert!(panics(|core| {
            core.advance_to(SimTime::from_millis(10));
            // A correct scheduler clamps to the present; push_raw does not.
            core.push_raw_for_test(SimTime::from_millis(5), 0, Event::ControllerTimer { id: 1 });
            core.pop_until(SimTime::from_secs(1));
        }));
    }

    #[test]
    fn broken_scheduler_duplicate_tie_break_is_caught() {
        assert!(panics(|core| {
            // Two entries with the same (at, seq): the second pop violates
            // the strictly-increasing-seq-within-a-tie invariant.
            core.push_raw_for_test(SimTime::from_millis(5), 7, Event::ControllerTimer { id: 1 });
            core.push_raw_for_test(SimTime::from_millis(5), 7, Event::ControllerTimer { id: 2 });
            core.pop_until(SimTime::from_secs(1));
            core.pop_until(SimTime::from_secs(1));
        }));
    }

    #[test]
    fn well_behaved_scheduling_passes_the_invariant_checker() {
        assert!(!panics(|core| {
            for id in 0..100 {
                core.schedule(Duration::from_millis(id % 7), Event::ControllerTimer { id });
            }
            while core.pop_until(SimTime::from_secs(1)).is_some() {}
        }));
    }

    #[test]
    fn clock_does_not_go_backward_on_advance() {
        let mut core = core();
        core.advance_to(SimTime::from_millis(20));
        core.advance_to(SimTime::from_millis(10));
        assert_eq!(core.now(), SimTime::from_millis(20));
    }
}
