//! The discrete-event core: clock, deterministic event queue, RNG.

use std::collections::{BinaryHeap, VecDeque};

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
/// OpenFlow messages, identity tuples) carry it boxed: every event in the
/// heap is moved repeatedly by sifts, and every event in a lane is copied
/// in and out of a block, so the inline size of this enum — not the
/// payload size — is what the scheduler pays per move. See the
/// `scheduled_entries_are_sift_cheap` test for the enforced bound.
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

/// A queued event with its firing time and tie-break sequence number.
#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn key(&self) -> u128 {
        key(self.at, self.seq)
    }
}

/// `(at, seq)` packed into one integer that orders the same way.
fn key(at: SimTime, seq: u64) -> u128 {
    u128::from(at.as_nanos()) << 64 | u128::from(seq)
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

/// The key of an empty lane. No event carries it: seqs stay below
/// `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// How many FIFO lanes the queue keeps in front of its heap.
const LANES: usize = 8;

/// Events per lane block.
const BLOCK: usize = 256;

/// The delay of a lane no event has claimed yet.
const UNKEYED: u64 = u64::MAX;

/// FIFO lanes, each holding events scheduled with one delay.
///
/// An event scheduled `d` after the clock fires at `clock + d`, and the
/// clock never goes back, so events that share `d` arrive in ascending
/// `(at, seq)` order: a lane is a FIFO that needs no sifting. Each lane
/// holds its events in blocks of at most [`BLOCK`], drawn from one pool
/// that every lane shares and returned to it when drained, so a lane's
/// memory follows its backlog.
struct Lanes {
    /// The delay, in ns, of every event each lane holds.
    delays: [u64; LANES],
    /// The key of each lane's front event, [`EMPTY`] for an empty lane: a
    /// pop compares these without touching lane memory.
    fronts: [u128; LANES],
    /// Each lane's blocks, oldest first. An empty lane holds none.
    queues: [VecDeque<VecDeque<Scheduled>>; LANES],
    /// Drained blocks.
    pool: Vec<VecDeque<Scheduled>>,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            delays: [UNKEYED; LANES],
            fronts: [EMPTY; LANES],
            queues: std::array::from_fn(|_| VecDeque::new()),
            pool: Vec::new(),
        }
    }

    /// Appends `entry` to the lane keyed `delay`. If no lane is, and
    /// `repeat` says the delay went to the heap last time too, an empty
    /// lane is keyed `delay` first. Hands `entry` back if no lane takes it.
    fn offer(&mut self, delay: u64, repeat: bool, entry: Scheduled) -> Option<Scheduled> {
        let lane = match self.delays.iter().position(|&d| d == delay) {
            Some(lane) => lane,
            None if repeat => match self.fronts.iter().position(|&k| k == EMPTY) {
                Some(lane) => lane,
                None => return Some(entry),
            },
            None => return Some(entry),
        };
        let (Some(d), Some(front), Some(queue)) = (
            self.delays.get_mut(lane),
            self.fronts.get_mut(lane),
            self.queues.get_mut(lane),
        ) else {
            return Some(entry);
        };
        debug_assert!(
            queue
                .back()
                .and_then(VecDeque::back)
                .is_none_or(|last| last.key() < entry.key()),
            "lane for delay {delay} ns out of order"
        );
        *d = delay;
        if *front == EMPTY {
            *front = entry.key();
        }
        match queue.back_mut() {
            Some(block) if block.len() < BLOCK => block.push_back(entry),
            _ => {
                let mut block = self
                    .pool
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(BLOCK));
                block.push_back(entry);
                queue.push_back(block);
            }
        }
        None
    }

    /// The lane whose front event pops first, with that event's key
    /// ([`EMPTY`] if every lane is empty).
    fn first(&self) -> (usize, u128) {
        self.fronts.iter().enumerate().fold(
            (0, EMPTY),
            |best, (lane, &k)| if k < best.1 { (lane, k) } else { best },
        )
    }

    /// Pops `lane`'s front event, returning a drained block to the pool.
    fn pop(&mut self, lane: usize) -> Option<Scheduled> {
        let queue = self.queues.get_mut(lane)?;
        let block = queue.front_mut()?;
        let entry = block.pop_front()?;
        let mut next = block.front().map(Scheduled::key);
        if next.is_none() {
            self.pool.extend(queue.pop_front());
            next = queue.front().and_then(VecDeque::front).map(Scheduled::key);
        }
        if let Some(front) = self.fronts.get_mut(lane) {
            *front = next.unwrap_or(EMPTY);
        }
        Some(entry)
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
///
/// The queue is the heap plus the lanes, and pops in strictly ascending
/// `(time, seq)` order: the least of the heap's top and the lanes' fronts.
/// A delay gets a lane once it goes to the heap twice in a row, so the
/// heap orders only delays that do not repeat.
pub(crate) struct SimCore {
    clock: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    lanes: Lanes,
    /// The delay, in ns, of the last event that went to the heap.
    heap_delay: u64,
    /// Events pending in the heap and the lanes together.
    pending: usize,
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
            heap: BinaryHeap::new(),
            lanes: Lanes::new(),
            heap_delay: UNKEYED,
            pending: 0,
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
        let delay = at.as_nanos() - self.clock.as_nanos();
        let entry = Scheduled { at, seq, event };
        if let Some(entry) = self.lanes.offer(delay, delay == self.heap_delay, entry) {
            self.heap_delay = delay;
            self.heap.push(entry);
        }
        self.events_scheduled += 1;
        self.pending += 1;
        if self.pending > self.queue_highwater {
            self.queue_highwater = self.pending;
        }
    }

    /// Pops the next event if it fires at or before `horizon`, advancing the
    /// clock to the event time.
    pub(crate) fn pop_until(&mut self, horizon: SimTime) -> Option<Event> {
        let (lane, lane_key) = self.lanes.first();
        let heap_key = self.heap.peek().map_or(EMPTY, Scheduled::key);
        let next = lane_key.min(heap_key);
        if next == EMPTY || next > key(horizon, u64::MAX) {
            return None;
        }
        let s = if lane_key < heap_key {
            self.lanes.pop(lane)?
        } else {
            self.heap.pop()?
        };
        self.pending -= 1;
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
        self.pending
    }

    /// Pushes a raw `(at, seq)` entry, bypassing the monotonic clamp and
    /// the dense seq counter — i.e. deliberately breaks the scheduler.
    /// Exists only so tests can prove the invariant checker catches it.
    #[cfg(test)]
    pub(crate) fn push_raw_for_test(&mut self, at: SimTime, seq: u64, event: Event) {
        self.heap.push(Scheduled { at, seq, event });
        self.pending += 1;
    }
}

#[cfg(test)]
mod tests {
    use tm_prop::prelude::*;

    use super::*;

    #[test]
    fn scheduled_entries_are_sift_cheap() {
        // Every pending event is moved by heap sifts or lane copies;
        // boxing the fat payloads keeps each move to at most four machine
        // words: `at` + `seq` + a 16-byte `Event` (tag plus one aligned
        // word). A regression here means someone inlined a payload.
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

    fn lane_backlog(core: &SimCore) -> usize {
        core.lanes.queues.iter().flatten().map(VecDeque::len).sum()
    }

    #[test]
    fn a_delay_repeated_at_the_heap_takes_a_lane_until_none_is_empty() {
        let mut core = core();
        // Each delay's first event goes to the heap and its second takes
        // an empty lane; the ninth delay finds none.
        for ms in 1..=9 {
            for _ in 0..2 {
                core.schedule(Duration::from_millis(ms), Event::ControllerTimer { id: ms });
            }
        }
        assert_eq!(lane_backlog(&core), 8);
        assert_eq!(core.heap.len(), 10);
        assert_eq!(core.pending(), 18);
        let mut ids = Vec::new();
        while let Some(Event::ControllerTimer { id }) = core.pop_until(SimTime::from_secs(1)) {
            ids.push(id);
        }
        let expected: Vec<u64> = (1..=9).flat_map(|ms| [ms, ms]).collect();
        assert_eq!(ids, expected);
        assert_eq!(core.pending(), 0);
        // Drained lanes hold no blocks: every block is back in the pool.
        assert_eq!(lane_backlog(&core), 0);
        assert!(core.lanes.queues.iter().all(VecDeque::is_empty));
        assert_eq!(core.lanes.pool.len(), 8);
    }

    /// Delays a generated program repeats: more than [`LANES`] of them,
    /// small enough that events of different lanes and the heap tie.
    const REPEATED: [u64; 12] = [
        0, 1, 2, 3, 5, 8, 50, 1_000, 1_050, 50_000, 1_000_000, 1_050_000,
    ];

    /// One step of a generated queue program.
    #[derive(Clone, Debug)]
    enum Op {
        /// Schedules this many events, each `REPEATED[k]` after the clock.
        Repeat(usize, u16),
        /// Schedules one event this many ns after the clock.
        OneOff(u64),
        /// Schedules one event this many ns before the clock (clamped).
        Past(u64),
        /// Pops every event up to this many ns past the clock, then
        /// advances the clock there, as `run_until` does.
        RunFor(u64),
        /// Pops at most one event up to this many ns past the clock.
        PopOne(u64),
        /// Advances the clock up to this many ns without popping, but not
        /// past the next pending event.
        Advance(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..REPEATED.len(), 1u16..300).prop_map(|(k, n)| Op::Repeat(k, n)),
            (0u64..3_000_000).prop_map(Op::OneOff),
            (0u64..5_000).prop_map(Op::Past),
            (0u64..2_000_000).prop_map(Op::RunFor),
            (0u64..100_000).prop_map(Op::PopOne),
            (0u64..500_000).prop_map(Op::Advance),
        ]
    }

    /// The queue the lanes replaced: one heap over `(at, seq)`.
    #[derive(Default)]
    struct Reference {
        clock: SimTime,
        seq: u64,
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        highwater: usize,
    }

    impl Reference {
        fn schedule_at(&mut self, at: SimTime) {
            self.heap
                .push(std::cmp::Reverse((at.max(self.clock), self.seq)));
            self.seq += 1;
            self.highwater = self.highwater.max(self.heap.len());
        }

        fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
            let std::cmp::Reverse((at, seq)) = *self.heap.peek()?;
            if at > horizon {
                return None;
            }
            self.heap.pop();
            self.clock = at;
            Some((at, seq))
        }
    }

    /// Runs `program` on a core and on the reference, checking every pop,
    /// the pending count and the high-water mark after every step, and
    /// that the pool never holds more blocks than the lanes' backlogs
    /// need: a lane's events span at most one block more than they fill,
    /// so the pool holds at most `Σ ⌈peak backlog / BLOCK⌉ + LANES`.
    fn check_against_reference(program: &[Op]) {
        let mut core = core();
        let mut reference = Reference::default();
        let mut peaks = [0usize; LANES];
        let pop = |core: &mut SimCore, reference: &mut Reference, horizon: SimTime| {
            let expected = reference.pop_until(horizon);
            let got = core.pop_until(horizon).map(|event| match event {
                Event::ControllerTimer { id } => (core.now(), id),
                other => panic!("unexpected event {other:?}"),
            });
            assert_eq!(got, expected, "pop up to {horizon:?}");
            got.is_some()
        };
        for step in program {
            let now = core.now();
            let mut schedule = |core: &mut SimCore, at: SimTime| {
                core.schedule_at(at, Event::ControllerTimer { id: reference.seq });
                reference.schedule_at(at);
            };
            match *step {
                Op::Repeat(k, n) => {
                    for _ in 0..n {
                        schedule(&mut core, now + Duration::from_nanos(REPEATED[k]));
                    }
                }
                Op::OneOff(ns) => schedule(&mut core, now + Duration::from_nanos(ns)),
                Op::Past(ns) => schedule(
                    &mut core,
                    SimTime::from_nanos(now.as_nanos().saturating_sub(ns)),
                ),
                Op::RunFor(ns) => {
                    let horizon = now + Duration::from_nanos(ns);
                    while pop(&mut core, &mut reference, horizon) {}
                    core.advance_to(horizon);
                    reference.clock = reference.clock.max(horizon);
                }
                Op::PopOne(ns) => {
                    pop(&mut core, &mut reference, now + Duration::from_nanos(ns));
                }
                Op::Advance(ns) => {
                    let next = reference.heap.peek().map(|r| r.0 .0);
                    let horizon = next.map_or(now + Duration::from_nanos(ns), |next| {
                        next.min(now + Duration::from_nanos(ns))
                    });
                    core.advance_to(horizon);
                    reference.clock = reference.clock.max(horizon);
                }
            }
            assert_eq!(core.now(), reference.clock);
            assert_eq!(core.pending(), reference.heap.len());
            assert_eq!(core.queue_highwater, reference.highwater);
            for (peak, queue) in peaks.iter_mut().zip(&core.lanes.queues) {
                *peak = (*peak).max(queue.iter().map(VecDeque::len).sum());
            }
            let blocks =
                core.lanes.pool.len() + core.lanes.queues.iter().map(VecDeque::len).sum::<usize>();
            let bound = peaks.iter().map(|p| p.div_ceil(BLOCK)).sum::<usize>() + LANES;
            assert!(
                blocks <= bound,
                "{blocks} blocks for peak lane backlogs {peaks:?}"
            );
        }
        while pop(&mut core, &mut reference, SimTime::from_nanos(u64::MAX)) {}
        assert_eq!(core.pending(), 0);
    }

    tm_prop::tm_prop! {
        /// The heap plus lanes pops exactly what one heap over `(at, seq)`
        /// pops, whatever mix of repeated, one-off, zero and past delays
        /// is scheduled and however the pops are sliced.
        #[test]
        fn lanes_pop_exactly_what_one_heap_pops(
            program in tm_prop::collection::vec(op(), 1..60),
        ) {
            check_against_reference(&program);
        }
    }
}
