//! Workspace determinism regression tests.
//!
//! The reproduction's headline guarantee is *exact replay*: every
//! scenario is a pure function of its parameters and seed. These tests
//! pin that guarantee at the strongest available granularity — a digest
//! of every simulator event, in order — so any accidental
//! nondeterminism (hash-map iteration order, wall-clock leakage, RNG
//! stream misuse) fails loudly rather than silently skewing reproduced
//! numbers.

use topomirage::controller::{ControllerConfig, ControllerProfile};
use topomirage::netsim::{LinkProfile, Simulator, TrafficWindow};
use topomirage::scenarios::fabric::TRAFFIC_START;
use topomirage::scenarios::hijack::{self, HijackScenario};
use topomirage::scenarios::linkfab::{self, LinkFabScenario, RelayMode};
use topomirage::scenarios::{DefenseStack, TrafficLoad};
use topomirage::telemetry::Telemetry;
use topomirage::topo::TopoKind;
use topomirage::types::{Duration, SimTime};

fn hijack_scenario(seed: u64) -> HijackScenario {
    HijackScenario {
        victim_rejoins: true,
        tail: Duration::from_millis(500),
        ..HijackScenario::new(DefenseStack::TopoGuardSphinx, seed)
    }
}

fn linkfab_scenario(seed: u64) -> LinkFabScenario {
    LinkFabScenario {
        run_for: Duration::from_secs(30),
        attack_start: Duration::from_secs(10),
        ..LinkFabScenario::new(RelayMode::OutOfBand, DefenseStack::TopoGuard, seed)
    }
}

#[test]
fn hijack_trace_replays_exactly_per_seed() {
    for seed in [1u64, 7, 1234] {
        let a = hijack::run(&hijack_scenario(seed));
        let b = hijack::run(&hijack_scenario(seed));
        assert!(a.trace.total() > 0, "seed {seed}: trace must be captured");
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: two runs must produce identical event traces"
        );
        // The derived outcome must agree too (it is a function of the trace
        // plus controller state, so divergence here means hidden state).
        assert_eq!(a.controller_ack_at, b.controller_ack_at, "seed {seed}");
        assert_eq!(a.alerts_total, b.alerts_total, "seed {seed}");
        assert_eq!(
            a.client_pings_during_hijack, b.client_pings_during_hijack,
            "seed {seed}"
        );
        // The full telemetry snapshot is part of the determinism contract:
        // every counter, gauge and histogram bucket must replay exactly.
        assert!(
            !a.metrics.is_empty(),
            "seed {seed}: metrics must be captured"
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "seed {seed}: two runs must produce byte-identical metrics snapshots"
        );
    }
}

#[test]
fn linkfab_trace_replays_exactly_per_seed() {
    for seed in [2u64, 99] {
        let a = linkfab::run(&linkfab_scenario(seed));
        let b = linkfab::run(&linkfab_scenario(seed));
        assert!(a.trace.total() > 0, "seed {seed}: trace must be captured");
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: two runs must produce identical event traces"
        );
        assert_eq!(a.link_established, b.link_established, "seed {seed}");
        assert_eq!(a.alerts_total, b.alerts_total, "seed {seed}");
        assert_eq!(a.bridged_frames, b.bridged_frames, "seed {seed}");
        assert!(
            !a.metrics.is_empty(),
            "seed {seed}: metrics must be captured"
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "seed {seed}: two runs must produce byte-identical metrics snapshots"
        );
    }
}

#[test]
fn metrics_snapshots_differ_across_seeds() {
    // Jittered links make frame timings seed-dependent, and the transit
    // histogram records them — so distinct seeds must produce distinct
    // snapshots. (If they ever agreed, the telemetry would have stopped
    // observing the simulation.)
    let a = hijack::run(&hijack_scenario(41));
    let b = hijack::run(&hijack_scenario(42));
    assert_ne!(
        a.metrics.render(),
        b.metrics.render(),
        "distinct seeds should draw distinct jitter and diverge in the histograms"
    );
}

#[test]
fn cross_seed_outcomes_are_stable_but_timings_vary() {
    // The paper's qualitative claims must hold for *any* seed; only the
    // jittered timings move. Distinct seeds must therefore produce
    // distinct traces (different link-jitter draws) while agreeing on
    // every headline outcome.
    let mut traces = Vec::new();
    for seed in [10u64, 20, 30] {
        let out = hijack::run(&HijackScenario {
            victim_rejoins: false,
            ..HijackScenario::new(DefenseStack::TopoGuard, seed)
        });
        assert!(out.hijack_succeeded(), "seed {seed}: hijack must land");
        assert!(
            out.undetected_before_rejoin(),
            "seed {seed}: plain TopoGuard must not alert during impersonation"
        );
        traces.push(out.trace);
    }
    assert!(
        traces[0] != traces[1] || traces[1] != traces[2],
        "distinct seeds should draw distinct jitter and diverge in the trace"
    );
}

#[test]
fn fabric_hijack_trace_replays_exactly() {
    // The fabric path adds a whole elaboration layer (generated topology,
    // role mapping from the forked attacker stream, tree-scoped flooding)
    // between parameters and simulator spec — the replay guarantee must
    // survive all of it.
    let scenario = HijackScenario::on_fabric(
        topomirage::topo::TopoKind::FatTree { k: 4 },
        DefenseStack::TopoGuardSphinx,
        11,
    );
    let a = hijack::run(&scenario);
    let b = hijack::run(&scenario);
    assert!(a.trace.total() > 0, "fabric trace must be captured");
    assert_eq!(a.trace, b.trace, "fabric hijack must replay exactly");
    assert_eq!(a.metrics.render(), b.metrics.render());
}

#[test]
fn fabric_linkfab_trace_replays_exactly() {
    let scenario = LinkFabScenario::on_fabric(
        RelayMode::OutOfBand,
        topomirage::topo::TopoKind::Ring {
            switches: 4,
            hosts_per_switch: 2,
        },
        DefenseStack::TopoGuardPlus,
        13,
    );
    let a = linkfab::run(&scenario);
    let b = linkfab::run(&scenario);
    assert!(a.trace.total() > 0, "fabric trace must be captured");
    assert_eq!(a.trace, b.trace, "fabric linkfab must replay exactly");
    assert_eq!(a.link_established, b.link_established);
    assert_eq!(a.metrics.render(), b.metrics.render());
}

#[test]
fn topo_matrix_render_is_reproducible() {
    // The rendered table is what EXPERIMENTS.md quotes; it must be a pure
    // function of (fabric kind, stacks, base seed).
    use topomirage::scenarios::matrix::{self, Attack, MatrixEntry};
    use topomirage::scenarios::FaultProfile;
    let kind = topomirage::topo::TopoKind::Ring {
        switches: 4,
        hosts_per_switch: 2,
    };
    // A crashing cell panics the test itself.
    let run = || -> Vec<MatrixEntry> {
        [DefenseStack::None, DefenseStack::TopoGuardPlus]
            .into_iter()
            .flat_map(|stack| {
                Attack::PAPER.map(|attack| {
                    let seed = 0xD5_2018;
                    let cell =
                        matrix::run_cell(attack, stack, Some(kind), FaultProfile::Clean, seed);
                    MatrixEntry::new(attack, stack, Ok(cell))
                })
            })
            .collect()
    };
    let (a, b) = (run(), run());
    assert_eq!(matrix::render(&a), matrix::render(&b));
}

/// A fat-tree-4 TOPOGUARD+ soak under steady flow-level load, built as
/// `tm_core::load` builds it. Its control messages share a few fixed
/// delays, and its flow arrivals draw their gaps, so the event queue's
/// lanes and its heap both carry events.
fn loaded_soak(until: SimTime) -> Simulator {
    let kind = TopoKind::FatTree { k: 4 };
    let seed = 0xD5_2018;
    let mut spec = kind.generate(seed, 0).build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec.set_controller(Box::new(DefenseStack::TopoGuardPlus.build_controller(
        ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            tree_scoped_flood: true,
            ..ControllerConfig::default()
        },
    )));
    spec.set_telemetry(Telemetry::new());
    let window = TrafficWindow::new(SimTime::ZERO + TRAFFIC_START, until);
    let plan = TrafficLoad::steady(50, 2.0).plan_for(kind, window);
    Simulator::with_traffic_plan(spec, seed, plan)
}

#[test]
fn a_run_sliced_at_uneven_deadlines_replays_the_whole_run() {
    let end = SimTime::from_secs(12);
    let mut whole = loaded_soak(end);
    whole.run_until(end);

    let events = |sim: &Simulator| {
        sim.metrics_snapshot()
            .counter("netsim.engine.events_processed")
            .unwrap_or(0)
    };
    // Deadlines that fall exactly on event times: the handshake arrives
    // 1 ms after start, the traffic window opens at TRAFFIC_START, and
    // flow-expiry scans run on the whole-second grid once rules exist.
    // The slice ends 1 ns earlier first, so each deadline's events are
    // the first ones run_until must still pop.
    let on_events = [
        SimTime::from_millis(1),
        SimTime::ZERO + TRAFFIC_START,
        SimTime::from_secs(3),
        SimTime::from_secs(7),
    ];
    let between = [
        SimTime::from_nanos(1_000_001),
        SimTime::from_nanos(3_700_000),
        SimTime::from_nanos(1_000_999_999),
        SimTime::from_nanos(2_500_000_333),
        SimTime::from_nanos(4_123_456_789),
        SimTime::from_nanos(6_000_000_001),
        SimTime::from_nanos(9_500_000_000),
        SimTime::from_nanos(11_999_999_999),
    ];
    let mut sliced = loaded_soak(end);
    let mut deadlines: Vec<(SimTime, bool)> = on_events
        .iter()
        .map(|&t| (t, true))
        .chain(between.iter().map(|&t| (t, false)))
        .collect();
    deadlines.sort();
    for (deadline, on_event) in deadlines {
        if on_event {
            sliced.run_until(SimTime::from_nanos(deadline.as_nanos() - 1));
            let before = events(&sliced);
            sliced.run_until(deadline);
            assert!(
                events(&sliced) > before,
                "no event fires exactly at {deadline:?}"
            );
        } else {
            sliced.run_until(deadline);
        }
        assert_eq!(sliced.now(), deadline);
    }
    sliced.run_until(end);

    assert!(whole.trace().total() > 0);
    assert_eq!(whole.trace(), sliced.trace());
    assert_eq!(
        whole.metrics_snapshot().render(),
        sliced.metrics_snapshot().render()
    );
}
