//! Workspace-level worker-count identity: every registered campaign
//! scenario — the full reproduction pipeline of discovery, defenses,
//! attacks, and fault injection — must render a byte-identical campaign
//! report at `--workers` 1 and 2. Workers only parallelize whole runs, so
//! any difference means a run leaked state into another or the merge
//! depends on completion order.

use bench::campaign::registry;
use tm_campaign::{run_campaign, CampaignSpec};

/// One campaign render at a given worker count.
fn render(scenario: &str, workers: usize) -> String {
    let registry = registry();
    let mut spec = CampaignSpec::new(scenario, 0xD5_2018);
    spec.seeds = 2;
    spec.workers = workers;
    let report = run_campaign(&registry, &spec)
        .unwrap_or_else(|e| panic!("campaign {scenario} failed: {e}"));
    report.render()
}

/// Renders one scenario at 1 and 2 workers and asserts they agree.
fn assert_worker_identical(scenario: &str) {
    assert_eq!(
        render(scenario, 1),
        render(scenario, 2),
        "{scenario}: render differs across worker counts"
    );
}

/// Tier-1 slice: the two designated smoke scenarios, cheap enough for the
/// debug-mode workspace test run.
#[test]
fn smoke_scenarios_are_worker_identical() {
    for scenario in ["probe-overhead", "ident-change"] {
        assert_worker_identical(scenario);
    }
}

/// The full registry sweep — minutes of virtual time per scenario, so it
/// is ignored under the debug tier-1 budget; ci.sh runs it in release via
/// `cargo test --release --test worker_identity -- --ignored`.
///
/// The `load` scenario is exempt: its grid tops out at 102,400 virtual
/// hosts per cell, which would multiply this sweep's wall clock by ~5×.
#[test]
#[ignore = "full-registry sweep; run in release (see ci.sh)"]
fn every_campaign_scenario_is_worker_identical() {
    let names: Vec<String> = registry()
        .scenarios()
        .iter()
        .map(|s| s.name.clone())
        .filter(|n| n != "load")
        .collect();
    assert!(names.len() >= 9, "registry unexpectedly small: {names:?}");
    for scenario in &names {
        assert_worker_identical(scenario);
    }
}
