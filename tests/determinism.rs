//! Workspace determinism regression tests.
//!
//! The reproduction's headline guarantee is *exact replay*: every
//! scenario is a pure function of its parameters and seed. These tests
//! pin that guarantee at the strongest available granularity — a digest
//! of every simulator event, in order — so any accidental
//! nondeterminism (hash-map iteration order, wall-clock leakage, RNG
//! stream misuse) fails loudly rather than silently skewing reproduced
//! numbers.

use topomirage::scenarios::hijack::{self, HijackScenario};
use topomirage::scenarios::linkfab::{self, LinkFabScenario, RelayMode};
use topomirage::scenarios::DefenseStack;
use topomirage::types::Duration;

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
