//! The benchmark measures the program, not a copy of it: the soaks it
//! assembles by hand, with and without timing decorators, run whole or in
//! interleaved slices, run exactly the simulations `tm_core::load::run`
//! and `tm_core::scale::run` run; the
//! timed matrix `RunFn` leaves the campaign report unchanged; and
//! `BENCHMARK.json` declares exactly the metrics the program prints.

use std::sync::PoisonError;

use bench::campaign::fabric_matrix_scenario;
use sdn_types::{Duration, SimTime};
use tm_campaign::{run_campaign, CampaignSpec, Registry};
use tm_core::{LoadScenario, ScaleScenario, TrafficLoad};
use tm_topo::TopoKind;
use topobench::json::{self, JsonRead};
use topobench::rep::{per_layer, END_TO_END};
use topobench::workloads::{interleave, timed_matrix, Soak, Stack, Workload};

/// Renders the soak's snapshot three ways: untraced on its own, and
/// traced and untraced interleaved slice by slice, as a traced rep runs
/// them.
fn soak_renders(soak: &Soak, seed: u64) -> [String; 3] {
    let mut alone = soak.assemble(seed, false);
    assert!(alone.tracer.is_none());
    alone.run_until(SimTime::ZERO + soak.run_for);
    let mut traced = soak.assemble(seed, true);
    let mut twin = soak.assemble(seed, false);
    interleave(&mut traced, &mut twin, soak.run_for);
    let tracer = traced.tracer.as_ref().expect("a traced build has a tracer");
    assert!(
        tracer.controller.borrow().count.iter().sum::<u64>() > 0,
        "the decorator saw calls"
    );
    [&alone, &traced, &twin].map(|built| {
        let (snapshot, problems) = built.check();
        assert!(problems.is_empty(), "{problems:?}");
        snapshot.render()
    })
}

#[test]
fn loaded_soak_matches_tm_core_load() {
    for stack in [Stack::TopoGuardPlus, Stack::TopoGuardSphinx] {
        let soak = Soak {
            topo: TopoKind::FatTree { k: 4 },
            stack,
            traffic: Some(TrafficLoad::steady(8, 4.0)),
            run_for: Duration::from_secs(4),
        };
        let reference = tm_core::load::run(&LoadScenario {
            run_for: soak.run_for,
            ..LoadScenario::new(soak.topo, stack.defense(), TrafficLoad::steady(8, 4.0), 11)
        })
        .metrics
        .render();
        assert!(reference.contains("traffic.expansions_arp"), "{reference}");
        for render in soak_renders(&soak, 11) {
            assert_eq!(render, reference, "{stack:?}");
        }
    }
}

#[test]
fn unloaded_soak_matches_tm_core_scale() {
    let soak = Soak {
        topo: TopoKind::CoreEdge {
            core: 2,
            edge: 6,
            hosts_per_edge: 1,
        },
        stack: Stack::TopoGuardPlus,
        traffic: None,
        run_for: Duration::from_secs(40),
    };
    let reference = tm_core::scale::run(&ScaleScenario {
        run_for: soak.run_for,
        ..ScaleScenario::new(soak.topo, soak.stack.defense(), 5)
    })
    .metrics
    .render();
    for render in soak_renders(&soak, 5) {
        assert_eq!(render, reference);
    }
}

#[test]
fn timed_matrix_leaves_the_report_unchanged() {
    let scenario = || {
        fabric_matrix_scenario(
            &["ring-4x2"],
            &["naive-relay", "port-probing-hijack"],
            &["none", "topoguard-plus"],
        )
        .expect("valid grid")
    };
    let render = |s| {
        let mut r = Registry::new();
        r.register(s).expect("register");
        let spec = CampaignSpec {
            seeds: 2,
            workers: 2,
            ..CampaignSpec::new("fabric-matrix", 0xd52018)
        };
        run_campaign(&r, &spec).expect("campaign").render()
    };
    let (timed, times) = timed_matrix(scenario());
    assert_eq!(render(timed), render(scenario()));
    let times = times.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(times.len(), 8, "one timing per run");
    assert!(times.iter().all(|&(attack, ns)| attack < 4 && ns > 0));
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let benchmark = json::parse(&text).expect("valid JSON");
    let declared = |key: &str| -> Vec<(String, String)> {
        benchmark
            .get(key)
            .and_then(JsonRead::arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonRead::str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        declared("end_to_end"),
        owned(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        )
    );
    assert_eq!(declared("per_layer"), owned(per_layer()));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
