//! Registry adapters exposing the workspace's real scenarios to the
//! `tm-campaign` runner, plus the machine-readable summary emission.
//!
//! Each adapter wraps one `tm_core` scenario (or a sampling model) as a
//! [`Scenario`]: a typed parameter grid plus a `(grid point, seed) →
//! metrics` closure. The closure must stay a pure function of its two
//! arguments — the campaign runner derives per-run seeds itself and
//! relies on that purity for worker-count-independent output.

use attacks::IdentChangeModel;
use sdn_types::Duration;
use tm_campaign::{Axis, CampaignReport, GridPoint, MetricAggregate, Metrics, Registry, Scenario};
use tm_core::floodsc::{self, FloodScenario};
use tm_core::hijack::{self, HijackScenario};
use tm_core::linkfab::{self, LinkFabScenario, RelayMode};
use tm_core::load::{self, LoadPattern, LoadScenario, TrafficLoad};
use tm_core::matrix::{run_cell, Attack, CellOutcome};
use tm_core::robustness::FaultProfile;
use tm_core::scale::{self, ScaleScenario};
use tm_core::DefenseStack;
use tm_rand::StdRng;
use tm_stats::{quantile, Summary};
use tm_topo::TopoKind;

use crate::json::JsonValue;
use crate::tables::{PROBES, PROFILES};

/// The scenarios cheap enough for the CI smoke campaign (sampling models,
/// no full simulation): run in seconds even at several seeds per cell.
pub const SMOKE_SCENARIOS: [&str; 2] = ["probe-overhead", "ident-change"];

/// Default topology grid for the `fabric-matrix` campaign: two kinds at
/// two sizes each, so a verdict flip between a small and a large fabric
/// of the same kind is visible in one run.
pub const FABRIC_MATRIX_TOPOS: [&str; 4] = ["fat-tree-4", "fat-tree-8", "ring-4x2", "ring-8x2"];

/// Default attack grid for the `fabric-matrix` campaign (the paper's four
/// matrix rows).
pub const FABRIC_MATRIX_DEFAULT_ATTACKS: [&str; 4] = [
    "naive-relay",
    "oob-amnesia",
    "in-band",
    "port-probing-hijack",
];

/// Default defense-stack grid for the `fabric-matrix` campaign (the
/// paper's five matrix columns).
pub const FABRIC_MATRIX_STACKS: [&str; 5] =
    ["none", "topoguard", "sphinx", "tg-sphinx", "topoguard-plus"];

/// The `load` campaign's demands, `<pattern>-<flows/host/s>`.
const DEMANDS: [(&str, (LoadPattern, f64)); 2] = [
    ("steady-0.5", (LoadPattern::Steady, 0.5)),
    ("bursty-2", (LoadPattern::Bursty, 2.0)),
];

/// The stacks the soak campaigns (`scale`, `load`) compare.
const SOAK_STACKS: [DefenseStack; 2] = [DefenseStack::None, DefenseStack::TopoGuardPlus];

/// The `ident-change` campaign's operations, each a one-trial sampler.
type Sampler = fn(&IdentChangeModel, &mut StdRng) -> Duration;
const IDENT_OPS: [(&str, Sampler); 2] = [
    (
        "ident-change",
        IdentChangeModel::sample_ident_change::<StdRng>,
    ),
    ("bare-cycle", IdentChangeModel::sample_bare_cycle::<StdRng>),
];

/// The labels of a bench-local table, in table order.
fn labels<T>(table: &[(&'static str, T)]) -> Vec<&'static str> {
    table.iter().map(|(label, _)| *label).collect()
}

/// The value `label` names in a bench-local table.
fn find<T: Copy>(table: &[(&str, T)], label: &str) -> Option<T> {
    table
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, value)| value)
}

/// The typed value of `point`'s `axis`, read back through its table.
/// A label the table does not know panics with the axis and the label;
/// the runner isolates the run and reports it as `FAILED(...)`.
fn value<T>(point: &GridPoint, axis: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
    let Some(label) = point.get(axis) else {
        panic!("grid point has no `{axis}` axis");
    };
    match parse(label) {
        Some(value) => value,
        None => panic!("unknown {axis} `{label}`"),
    }
}

/// A numeric axis value, parsed strictly.
fn number<T: std::str::FromStr>(point: &GridPoint, axis: &str) -> T {
    value(point, axis, |label| label.parse().ok())
}

/// A relay mode, read back through [`Attack`]'s label table.
fn relay_mode(label: &str) -> Option<RelayMode> {
    match Attack::from_label(label)? {
        Attack::Relay(mode) => Some(mode),
        Attack::PortProbingHijack => None,
    }
}

/// The three fault-robustness campaigns (full Fig. 9 simulations of the
/// relay scenario's benign twin under a degraded network). Heavier than
/// [`SMOKE_SCENARIOS`]; the CI pipeline runs them at reduced seed counts.
pub const FAULT_SCENARIOS: [&str; 3] = [
    "lli-under-jitter",
    "cmm-under-flaps",
    "discovery-under-loss",
];

fn fault_counter(metrics: &tm_telemetry::MetricsSnapshot, name: &str) -> f64 {
    metrics.counter(name).unwrap_or(0) as f64
}

/// One robustness run: the benign twin of the Fig. 9 evaluation under
/// TOPOGUARD+ (colluders idle, h1 pinging h2), `run_for` long, with
/// `profile` degrading the network from `faults_from` to the end. With no
/// attacker present every alert is a false positive; the metrics add the
/// `netsim.fault.*` injection counters attributing the degradation the run
/// actually experienced.
fn benign_fig9(
    profile: FaultProfile,
    seed: u64,
    run_for: Duration,
    faults_from: Duration,
) -> Metrics {
    let outcome = linkfab::run(&LinkFabScenario {
        mode: None,
        run_for,
        faults: profile,
        faults_from,
        ..LinkFabScenario::paper_eval(RelayMode::OutOfBand, DefenseStack::TopoGuardPlus, seed)
    });
    Metrics::new()
        .with("alerts_total", outcome.alerts_total as f64)
        .with("lli_false_positives", outcome.lli_alerts as f64)
        .with("cmm_false_positives", outcome.cmm_alerts as f64)
        .with("link_false_positives", outcome.fabrication_alerts as f64)
        .with("links_discovered", outcome.links_discovered as f64)
        .with("benign_pings_ok", outcome.benign_pings_ok as f64)
        .with(
            "fault_loss_drops",
            fault_counter(&outcome.metrics, "netsim.fault.loss_drops"),
        )
        .with(
            "fault_latency_spikes",
            fault_counter(&outcome.metrics, "netsim.fault.latency_spikes"),
        )
        .with(
            "fault_link_flaps",
            fault_counter(&outcome.metrics, "netsim.fault.link_flaps"),
        )
}

/// Builds the `fabric-matrix` scenario over explicit topology / attack /
/// stack grids. Every label is validated up front so a typo fails the
/// whole campaign loudly instead of silently degrading one cell to a
/// default. The run closure is a pure function of `(grid point, seed)` —
/// the fabric itself is a pure function of its parameters and actor
/// placement comes from the spec's forked attacker stream — so campaign
/// output is byte-identical at any `--workers` count.
pub fn fabric_matrix_scenario(
    topos: &[&str],
    attacks: &[&str],
    stacks: &[&str],
) -> Result<Scenario, String> {
    for label in topos {
        if TopoKind::from_label(label).is_none() {
            return Err(format!(
                "unknown topology label `{label}` (examples: fat-tree-4, core-edge-2x12x2, linear-4x2, ring-4x2)"
            ));
        }
    }
    for attack in attacks {
        if Attack::from_label(attack).is_none() {
            return Err(format!(
                "unknown attack `{attack}` (known: {})",
                Attack::ALL.map(Attack::label).join(", ")
            ));
        }
    }
    for stack in stacks {
        if DefenseStack::from_label(stack).is_none() {
            return Err(format!(
                "unknown defense stack `{stack}` (known: {})",
                DefenseStack::ALL_EXTENDED
                    .map(DefenseStack::label)
                    .join(", ")
            ));
        }
    }
    if topos.is_empty() || attacks.is_empty() || stacks.is_empty() {
        return Err("fabric-matrix needs at least one topology, attack, and stack".to_string());
    }
    Ok(Scenario::new(
        "fabric-matrix",
        "Attack × defense detection matrix on generated fabrics (topology-parameterized §VII)",
        vec![
            Axis::new("topology", topos),
            Axis::new("attack", attacks),
            Axis::new("stack", stacks),
        ],
        fabric_matrix_cell,
    ))
}

fn fabric_matrix_cell(point: &GridPoint, seed: u64) -> Metrics {
    let kind = value(point, "topology", TopoKind::from_label);
    let attack = value(point, "attack", Attack::from_label);
    let stack = value(point, "stack", DefenseStack::from_label);
    let cell = run_cell(attack, stack, Some(kind), FaultProfile::Clean, seed);
    let metrics = Metrics::new()
        .with("succeeded", f64::from(u8::from(cell.succeeded())))
        .with("detected", f64::from(u8::from(cell.detected())))
        .with("alerts_total", cell.alerts() as f64);
    match cell {
        CellOutcome::Relay(o) => metrics.with("benign_pings_ok", o.benign_pings_ok as f64),
        CellOutcome::Hijack(o) => metrics.with(
            "client_pings_during_hijack",
            o.client_pings_during_hijack as f64,
        ),
    }
}

/// The full campaign registry over the workspace's scenarios.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    let mut add = |s: Scenario| {
        // Names are compile-time constants below; duplicates are a bug.
        if let Err(e) = r.register(s) {
            unreachable!("campaign registry: {e}");
        }
    };

    add(Scenario::new(
        "probe-overhead",
        "Table I liveness probe overhead model, 1000 scans per run",
        vec![Axis::new("probe", &labels(&PROBES))],
        |point, seed| {
            let kind = value(point, "probe", |l| find(&PROBES, l));
            let mut rng = StdRng::seed_from_u64(seed);
            let samples: Vec<f64> = (0..1000)
                .map(|_| kind.sample_overhead(&mut rng).as_millis_f64())
                .collect();
            let s = Summary::of(&samples);
            Metrics::new()
                .with("overhead_mean_ms", s.mean)
                .with("overhead_sd_ms", s.sd)
                .with("overhead_q95_ms", quantile(&samples, 0.95).unwrap_or(0.0))
        },
    ));

    add(Scenario::new(
        "ident-change",
        "Fig. 4 ifconfig identifier-change timing model, 1000 trials per run",
        vec![Axis::new("op", &labels(&IDENT_OPS))],
        |point, seed| {
            let sample = value(point, "op", |l| find(&IDENT_OPS, l));
            let model = IdentChangeModel::paper_default();
            let mut rng = StdRng::seed_from_u64(seed);
            let samples: Vec<f64> = (0..1000)
                .map(|_| sample(&model, &mut rng).as_millis_f64())
                .collect();
            let s = Summary::of(&samples);
            Metrics::new()
                .with("latency_mean_ms", s.mean)
                .with("latency_q99_ms", quantile(&samples, 0.99).unwrap_or(0.0))
                .with("latency_max_ms", s.max)
        },
    ));

    add(Scenario::new(
        "hijack",
        "Port Probing hijack (§IV-B) across defense stacks, full simulation",
        vec![Axis::new(
            "stack",
            &DefenseStack::ALL.map(DefenseStack::label),
        )],
        |point, seed| {
            let stack = value(point, "stack", DefenseStack::from_label);
            let outcome = hijack::run(&HijackScenario::new(stack, seed));
            let mut m = Metrics::new()
                .with(
                    "hijack_succeeded",
                    f64::from(u8::from(outcome.hijack_succeeded())),
                )
                .with(
                    "undetected_before_rejoin",
                    f64::from(u8::from(outcome.undetected_before_rejoin())),
                )
                .with("alerts_total", outcome.alerts_total as f64)
                .with(
                    "client_pings_during_hijack",
                    outcome.client_pings_during_hijack as f64,
                );
            if let Some(ms) = outcome.detect_delay_ms() {
                m.push("detect_delay_ms", ms);
            }
            if let Some(ms) = outcome.iface_up_delay_ms() {
                m.push("iface_up_delay_ms", ms);
            }
            if let Some(ms) = outcome.controller_ack_delay_ms() {
                m.push("controller_ack_delay_ms", ms);
            }
            m
        },
    ));

    add(Scenario::new(
        "linkfab",
        "Port Amnesia link fabrication (§IV-A) on the Fig. 1 topology",
        vec![
            Axis::new(
                "mode",
                &[
                    RelayMode::NaiveNoAmnesia,
                    RelayMode::OutOfBand,
                    RelayMode::OutOfBandStealthy,
                ]
                .map(|m| m.name()),
            ),
            Axis::new(
                "stack",
                &[DefenseStack::TopoGuard, DefenseStack::TopoGuardPlus].map(DefenseStack::label),
            ),
        ],
        |point, seed| {
            let mode = value(point, "mode", relay_mode);
            let stack = value(point, "stack", DefenseStack::from_label);
            let outcome = linkfab::run(&LinkFabScenario::new(mode, stack, seed));
            Metrics::new()
                .with(
                    "link_established",
                    f64::from(u8::from(outcome.link_established)),
                )
                .with("detected", f64::from(u8::from(outcome.detected())))
                .with("alerts_total", outcome.alerts_total as f64)
                .with("bridged_frames", outcome.bridged_frames as f64)
                .with("benign_pings_ok", outcome.benign_pings_ok as f64)
        },
    ));

    add(Scenario::new(
        "discovery-profiles",
        "Table III discovery cadence and link expiry per controller profile",
        vec![Axis::new("controller", &labels(&PROFILES))],
        |point, seed| {
            let profile = value(point, "controller", |l| find(&PROFILES, l));
            let (cadence_s, expiry_s) = crate::tables::measure_profile(profile, seed);
            Metrics::new()
                .with("cadence_s", cadence_s)
                .with("expiry_s", expiry_s)
        },
    ));

    add(Scenario::new(
        "alert-flood",
        "Alert flooding (§IV-B) under TopoGuard: alert volume vs spoof rate",
        vec![Axis::new("rate", &["1", "5", "10", "20", "50"])],
        |point, seed| {
            let rate: u64 = number(point, "rate");
            let outcome = floodsc::run(&FloodScenario {
                spoof_rate_per_sec: rate,
                run_for: Duration::from_secs(20),
                ..FloodScenario::new(DefenseStack::TopoGuard, seed)
            });
            Metrics::new()
                .with("spoofs_sent", outcome.spoofs_sent as f64)
                .with("alerts_total", outcome.alerts_total as f64)
                .with("alerts_per_sec", outcome.alerts_per_sec)
                .with(
                    "identities_implicated",
                    outcome.identities_implicated as f64,
                )
        },
    ));

    add(Scenario::new(
        "lli-under-jitter",
        "LLI false positives on a benign Fig. 9 network under trunk jitter spikes (§VIII-A robustness)",
        vec![Axis::new("spike_ms", &["0", "2", "5"])],
        |point, seed| {
            let spike_ms: u16 = number(point, "spike_ms");
            // A 240 s run, jitter active from 150 s — after the LLI's
            // 10-sample baseline has formed at the 15 s LLDP cadence.
            benign_fig9(
                FaultProfile::TrunkJitter { spike_ms },
                seed,
                Duration::from_secs(240),
                Duration::from_secs(150),
            )
        },
    ));

    add(Scenario::new(
        "cmm-under-flaps",
        "CMM false positives on a benign Fig. 9 network while a host port flaps (§VIII-B robustness)",
        vec![Axis::new("flaps", &["0", "2", "5", "10"])],
        |point, seed| {
            let count: u8 = number(point, "flaps");
            // Flaps are fast events; a 60 s run with a 2 s flap cadence
            // from t=20 s exercises them all.
            benign_fig9(
                FaultProfile::HostPortFlaps {
                    count,
                    period_ms: 2000,
                },
                seed,
                Duration::from_secs(60),
                Duration::from_secs(20),
            )
        },
    ));

    add(Scenario::new(
        "discovery-under-loss",
        "Topology discovery convergence on a benign Fig. 9 network under trunk packet loss",
        vec![Axis::new("loss_pct", &["0", "10", "30", "50"])],
        |point, seed| {
            let pct: u8 = number(point, "loss_pct");
            // Loss starts almost immediately: the question is whether LLDP
            // discovery still converges to the 6 ground-truth directed
            // links by the end of a 60 s run.
            benign_fig9(
                FaultProfile::TrunkLoss { pct },
                seed,
                Duration::from_secs(60),
                Duration::from_secs(5),
            )
        },
    ));

    add(Scenario::new(
        "scale",
        "Engine scale soak: generated fabrics under pure control-plane load, 1 simulated second",
        vec![
            Axis::new(
                "topology",
                &["linear-4", "fat-tree-4", "fat-tree-8", "core-edge-4x96x1"],
            ),
            Axis::new("stack", &SOAK_STACKS.map(DefenseStack::label)),
        ],
        |point, seed| {
            let topo = value(point, "topology", TopoKind::from_label);
            let stack = value(point, "stack", DefenseStack::from_label);
            let outcome = scale::run(&ScaleScenario::new(topo, stack, seed));
            Metrics::new()
                .with("events_per_sim_sec", outcome.events_per_sim_sec)
                .with("events_processed", outcome.events_processed as f64)
                .with("links_discovered", outcome.links_discovered as f64)
                .with("alerts_total", outcome.alerts_total as f64)
                .with("switches", outcome.switches as f64)
        },
    ));

    add(Scenario::new(
        "load",
        "Flow-level traffic soak on the fat-tree-4 fabric: hosts/edge x demand x stack, 6 simulated seconds (hosts=12800 is the 102,400-host cell)",
        vec![
            // Per-edge virtual hosts; the fabric has 8 edges, so the axis
            // spans 6,400 -> 102,400 total hosts. fat-tree-8 is deliberately
            // absent: its ARP floods Packet-In at every one of 80 switches,
            // ~10x the wall per host for the same detector coverage.
            Axis::new("hosts", &["800", "3200", "12800"]),
            Axis::new("demand", &labels(&DEMANDS)),
            Axis::new("stack", &SOAK_STACKS.map(DefenseStack::label)),
        ],
        |point, seed| {
            let (pattern, rate) = value(point, "demand", |l| find(&DEMANDS, l));
            let traffic = TrafficLoad {
                hosts_per_edge: number(point, "hosts"),
                flows_per_host_per_sec: rate,
                pattern,
            };
            let stack = value(point, "stack", DefenseStack::from_label);
            let outcome = load::run(&LoadScenario::new(
                TopoKind::FatTree { k: 4 },
                stack,
                traffic,
                seed,
            ));
            Metrics::new()
                .with("hosts_virtual", outcome.hosts_virtual as f64)
                .with("flows_offered", outcome.flows_offered as f64)
                .with("packets_aggregated", outcome.packets_aggregated as f64)
                .with("packets_expanded", outcome.packets_expanded as f64)
                .with("aggregation_ratio", outcome.aggregation_ratio())
                .with("packet_ins", outcome.packet_ins as f64)
                .with("events_processed", outcome.events_processed as f64)
                .with("alerts_total", outcome.alerts_total as f64)
        },
    ));

    match fabric_matrix_scenario(
        &FABRIC_MATRIX_TOPOS,
        &FABRIC_MATRIX_DEFAULT_ATTACKS,
        &FABRIC_MATRIX_STACKS,
    ) {
        Ok(s) => add(s),
        // The default grids above are compile-time constants drawn from
        // the validated vocabularies; a failure here is a bug in this file.
        Err(e) => unreachable!("fabric-matrix default grid: {e}"),
    }

    r
}

/// `head`'s fields followed by the seven statistics of `m`, in the one
/// order both the `BENCH_JSON` lines and the `--json` summary use.
fn metric_json(mut head: Vec<(&str, JsonValue)>, m: &MetricAggregate) -> JsonValue {
    head.extend([
        ("n", m.n.into()),
        ("mean", m.mean.into()),
        ("sd", m.sd.into()),
        ("ci_half", m.ci_half.into()),
        ("q50", m.q50.into()),
        ("min", m.min.into()),
        ("max", m.max.into()),
    ]);
    JsonValue::object(head)
}

/// One `BENCH_JSON` line per (cell, metric): the per-cell records the CI
/// perf-trajectory collector harvests. Deterministic — derived purely
/// from the merged campaign report.
pub fn cell_bench_lines(report: &CampaignReport) -> Vec<String> {
    let mut lines = Vec::new();
    for cell in &report.cells {
        for m in &cell.metrics {
            let record = metric_json(
                vec![
                    ("suite", format!("campaign/{}", report.meta.scenario).into()),
                    ("cell", cell.point.label().into()),
                    ("metric", m.name.as_str().into()),
                ],
                m,
            );
            lines.push(format!("BENCH_JSON {}", record.to_compact()));
        }
    }
    lines
}

/// The machine-readable campaign summary (`--json FILE`).
pub fn summary_json(report: &CampaignReport) -> JsonValue {
    let meta = &report.meta;
    JsonValue::object(vec![
        ("scenario", meta.scenario.as_str().into()),
        ("description", meta.description.as_str().into()),
        ("base_seed", format!("{:#x}", meta.base_seed).into()),
        ("seeds", meta.seeds.into()),
        ("confidence", meta.confidence.into()),
        (
            "cells",
            JsonValue::Array(
                report
                    .cells
                    .iter()
                    .map(|cell| {
                        JsonValue::object(vec![
                            ("cell", cell.point.label().into()),
                            ("ok", cell.ok().into()),
                            ("failed", cell.failures.len().into()),
                            (
                                "metrics",
                                JsonValue::Array(
                                    cell.metrics
                                        .iter()
                                        .map(|m| {
                                            metric_json(vec![("name", m.name.as_str().into())], m)
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "failures",
                                JsonValue::Array(
                                    cell.failures
                                        .iter()
                                        .map(|(seed, cause)| {
                                            JsonValue::object(vec![
                                                ("seed", format!("{seed:#x}").into()),
                                                ("cause", cause.as_str().into()),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total_ok",
            (report.total_runs() - report.total_failures()).into(),
        ),
        ("total_failed", report.total_failures().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_campaign::{run_campaign, CampaignSpec};

    #[test]
    fn registry_contains_the_advertised_scenarios() {
        let r = registry();
        for name in [
            "probe-overhead",
            "ident-change",
            "hijack",
            "linkfab",
            "discovery-profiles",
            "alert-flood",
            "lli-under-jitter",
            "cmm-under-flaps",
            "discovery-under-loss",
            "scale",
            "load",
            "fabric-matrix",
        ] {
            assert!(r.get(name).is_some(), "missing scenario {name}");
        }
        for name in SMOKE_SCENARIOS {
            assert!(r.get(name).is_some(), "missing smoke scenario {name}");
        }
        for name in FAULT_SCENARIOS {
            assert!(r.get(name).is_some(), "missing fault scenario {name}");
        }
    }

    #[test]
    fn smoke_scenarios_are_worker_count_independent() {
        let r = registry();
        for name in SMOKE_SCENARIOS {
            let mut spec = CampaignSpec::new(name, 0xD5_2018);
            spec.seeds = 3;
            let serial = run_campaign(&r, &spec).expect("workers=1");
            spec.workers = 2;
            let pooled = run_campaign(&r, &spec).expect("workers=2");
            assert_eq!(
                serial.render(),
                pooled.render(),
                "{name}: output must not depend on worker count"
            );
            assert_eq!(
                cell_bench_lines(&serial),
                cell_bench_lines(&pooled),
                "{name}: BENCH_JSON lines must not depend on worker count"
            );
        }
    }

    #[test]
    fn fault_campaigns_are_worker_count_independent() {
        // The full acceptance sweep (all three scenarios, --workers 1 vs 8)
        // runs via `experiments campaign`; here the cheapest fault campaign
        // (60 s virtual runs) guards the same adapter plumbing — the other
        // two differ only in profile and run length.
        let r = registry();
        let mut spec = CampaignSpec::new("discovery-under-loss", 0xFA_017);
        spec.seeds = 1;
        let serial = run_campaign(&r, &spec).expect("workers=1");
        spec.workers = 2;
        let pooled = run_campaign(&r, &spec).expect("workers=2");
        assert_eq!(
            serial.render(),
            pooled.render(),
            "fault campaign output must not depend on worker count"
        );
        // The telemetry-derived fault counters made it into the report.
        assert!(
            serial.render().contains("fault_loss_drops"),
            "{}",
            serial.render()
        );
    }

    #[test]
    fn fabric_matrix_rejects_bad_labels_up_front() {
        assert!(fabric_matrix_scenario(&["mesh-4"], &["in-band"], &["none"]).is_err());
        assert!(fabric_matrix_scenario(&["ring-4x2"], &["ddos"], &["none"]).is_err());
        assert!(fabric_matrix_scenario(&["ring-4x2"], &["in-band"], &["kitchen-sink"]).is_err());
        assert!(fabric_matrix_scenario(&[], &["in-band"], &["none"]).is_err());
        assert!(fabric_matrix_scenario(
            &FABRIC_MATRIX_TOPOS,
            &FABRIC_MATRIX_DEFAULT_ATTACKS,
            &FABRIC_MATRIX_STACKS
        )
        .is_ok());
    }

    #[test]
    fn default_fabric_grids_are_the_paper_label_tables() {
        assert_eq!(
            FABRIC_MATRIX_DEFAULT_ATTACKS,
            Attack::PAPER.map(Attack::label)
        );
        assert_eq!(
            FABRIC_MATRIX_STACKS,
            DefenseStack::ALL.map(DefenseStack::label)
        );
    }

    #[test]
    fn an_unknown_axis_label_fails_the_run_instead_of_defaulting() {
        let r = registry();
        for (name, axis) in [
            ("probe-overhead", "probe"),
            ("ident-change", "op"),
            ("discovery-profiles", "controller"),
            ("alert-flood", "rate"),
            ("hijack", "stack"),
        ] {
            let scenario = r.get(name).expect(name);
            let mut point = scenario.cells().remove(0);
            for (a, v) in &mut point.coords {
                if a == axis {
                    *v = "bogus".to_string();
                }
            }
            let err = tm_campaign::isolate(|| (scenario.run)(&point, 1)).expect_err(name);
            assert!(
                err.contains(axis) && err.contains("`bogus`"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn fabric_matrix_is_worker_count_independent() {
        // Cheapest fabric cells (hijack runs are ~13 s virtual; the ring
        // and linear fabrics are tiny). The full default grid runs via
        // `experiments matrix --topo`; this guards the adapter plumbing.
        let mut r = Registry::new();
        r.register(
            fabric_matrix_scenario(
                &["ring-4x2", "linear-4x2"],
                &["port-probing-hijack"],
                &["none"],
            )
            .expect("grid"),
        )
        .expect("register");
        let mut spec = CampaignSpec::new("fabric-matrix", 0xFAB);
        spec.seeds = 2;
        let serial = run_campaign(&r, &spec).expect("workers=1");
        spec.workers = 2;
        let pooled = run_campaign(&r, &spec).expect("workers=2");
        assert_eq!(
            serial.render(),
            pooled.render(),
            "fabric-matrix output must not depend on worker count"
        );
        assert_eq!(cell_bench_lines(&serial), cell_bench_lines(&pooled));
        assert!(serial.render().contains("succeeded"), "{}", serial.render());
    }

    #[test]
    fn summary_json_round_trips_totals() {
        let r = registry();
        let mut spec = CampaignSpec::new("probe-overhead", 7);
        spec.seeds = 2;
        let report = run_campaign(&r, &spec).expect("campaign");
        let json = summary_json(&report).to_compact();
        assert!(json.contains(r#""scenario":"probe-overhead""#), "{json}");
        assert!(json.contains(r#""total_failed":0"#), "{json}");
        assert!(json.contains(r#""base_seed":"0x7""#), "{json}");
    }
}
