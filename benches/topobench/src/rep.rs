//! One rep: a fresh child process runs one workload once and prints what
//! it measured as one JSON line for the parent to aggregate.

use std::sync::PoisonError;
use std::time::{Duration, Instant};

use bench::campaign::FABRIC_MATRIX_DEFAULT_ATTACKS;
use sdn_types::SimTime;
use tm_stats::quantile;
use tm_telemetry::MetricsSnapshot;

use crate::json::{JsonRead, JsonValue};
use crate::stats::Summary;
use crate::trace::{Clock, CONTROLLER_KINDS, HOOKS};
use crate::workloads::{
    interleave, MatrixSetup, SetupSplit, Soak, Workload, MATRIX_WORKERS, MODULE_HOOKS,
};

/// The end-to-end metrics and their units, in report order. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_s_per_wall_s", "s/s"),
    ("runs_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Engine event kinds reported per layer (`netsim.event.<kind>`).
const EVENT_KINDS: [&str; 7] = [
    "deliver_to_switch",
    "deliver_to_host",
    "ctrl_to_switch",
    "ctrl_to_controller",
    "controller_timer",
    "switch_expiry_tick",
    "traffic_arrival",
];

/// Every per-layer metric and its unit, in report order. Every workload
/// reports all of them; a layer the workload never reaches reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("tm_topo.generate_s".into(), "s"),
        ("tm_core.load.plan_s".into(), "s"),
        ("netsim.build_s".into(), "s"),
        ("netsim.self_s".into(), "s"),
        ("netsim.ns_per_event".into(), "ns"),
        ("netsim.engine.events_processed".into(), "count"),
        ("netsim.engine.queue_highwater".into(), "count"),
    ];
    for kind in EVENT_KINDS {
        out.push((format!("netsim.event.{kind}"), "count"));
    }
    for name in [
        "traffic.flows_offered",
        "traffic.packets_expanded",
        "traffic.expansions_arp",
    ] {
        out.push((name.into(), "count"));
    }
    out.push(("traffic.aggregation_ratio".into(), "ratio"));
    for kind in CONTROLLER_KINDS {
        out.push((format!("controller.{kind}.count"), "count"));
        out.push((format!("controller.{kind}.busy_s"), "s"));
        out.push((format!("controller.{kind}.mean_ns"), "ns"));
    }
    out.push(("controller.self_s".into(), "s"));
    for (module, hooks) in MODULE_HOOKS {
        out.push((format!("{module}.busy_s"), "s"));
        for hook in hooks {
            out.push((format!("{module}.{hook}.count"), "count"));
            out.push((format!("{module}.{hook}.busy_s"), "s"));
        }
    }
    for attack in FABRIC_MATRIX_DEFAULT_ATTACKS {
        out.push((format!("tm_core.{attack}.run_s.p50"), "s"));
        out.push((format!("tm_core.{attack}.run_s.p90"), "s"));
    }
    out.push(("tm_campaign.worker_util".into(), "ratio"));
    out.push(("tm_campaign.overhead_s".into(), "s"));
    out.push(("trace_overhead".into(), "ratio"));
    out
}

/// What one rep measured.
#[derive(Default)]
pub struct RepOutput {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Simulated seconds the timed phase covered.
    pub sim_s: f64,
    /// Simulation runs the timed phase completed.
    pub runs: f64,
    /// Peak resident set of the rep's process (VmHWM), in MB.
    pub peak_rss_mb: f64,
    /// Median wall seconds of the rep's set-up rounds.
    pub setup_s: f64,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// FNV-1a hash of the rendered snapshot (soaks) or report (matrix).
    pub fingerprint: u64,
    /// Per-layer values; filled by traced reps only.
    pub layers: Vec<(String, f64)>,
}

impl RepOutput {
    /// The JSON form a rep prints for its parent.
    pub fn to_json(&self) -> JsonValue {
        let layers = self
            .layers
            .iter()
            .map(|(name, v)| (name.clone(), (*v).into()))
            .collect();
        JsonValue::object(vec![
            ("wall_s", self.wall_s.into()),
            ("sim_s", self.sim_s.into()),
            ("runs", self.runs.into()),
            ("peak_rss_mb", self.peak_rss_mb.into()),
            ("setup_s", self.setup_s.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("fingerprint", format!("{:x}", self.fingerprint).into()),
            ("layers", JsonValue::Object(layers)),
        ])
    }

    /// Reads [`RepOutput::to_json`] back.
    pub fn from_json(j: &JsonValue) -> Result<RepOutput, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(JsonRead::num)
                .ok_or_else(|| format!("rep output has no number `{key}`"))
        };
        let fingerprint = j
            .get("fingerprint")
            .and_then(JsonRead::str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("rep output has no fingerprint")?;
        let layers = j
            .get("layers")
            .map_or(&[][..], JsonRead::fields)
            .iter()
            .map(|(name, v)| Ok((name.clone(), v.num().ok_or("non-numeric layer value")?)))
            .collect::<Result<_, String>>()?;
        let rep = RepOutput {
            wall_s: num("wall_s")?,
            sim_s: num("sim_s")?,
            runs: num("runs")?,
            peak_rss_mb: num("peak_rss_mb")?,
            setup_s: num("setup_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            fingerprint,
            layers,
        };
        if rep.attempted == 0 {
            return Err("rep reported no checks".to_string());
        }
        Ok(rep)
    }
}

/// FNV-1a over `text`: equal renders hash equal.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs one rep of `workload` in this process, logging failed checks to
/// standard error.
pub fn run_rep(workload: Workload, seed: u64, traced: bool) -> Result<RepOutput, String> {
    let mut rep = match workload.soak() {
        Some(soak) => soak_rep(&soak, seed, traced),
        None => matrix_rep(seed, traced)?,
    };
    rep.peak_rss_mb = peak_rss_mb();
    if traced {
        // Fixed order and a value for every name, so every rep and every
        // workload reports the same set.
        let known = std::mem::take(&mut rep.layers);
        rep.layers = per_layer()
            .into_iter()
            .map(|(name, _)| {
                let v = known
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, v)
            })
            .collect();
    }
    Ok(rep)
}

/// Set-up rounds each rep makes at least, and the least wall time they
/// take together. Set-up is milliseconds or less, so one round is noise;
/// the median of many is not.
const SETUP_MIN_ROUNDS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(200);

/// Builds with `build` again and again, dropping each result before the
/// next build so peak memory is one build's, and returns the last build
/// with the median round's wall seconds.
fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t = Instant::now();
        let built = build();
        rounds.push(t.elapsed().as_secs_f64());
        if rounds.len() >= SETUP_MIN_ROUNDS && start.elapsed() >= SETUP_MIN_TIME {
            return (built, Summary::of(&rounds).median);
        }
        last = Some(built);
    }
}

fn soak_rep(soak: &Soak, seed: u64, traced: bool) -> RepOutput {
    let mut splits: Vec<SetupSplit> = Vec::new();
    let (mut built, setup_s) = repeat_setup(|| {
        let a = soak.assemble(seed, traced);
        splits.push(a.setup);
        a
    });
    let until = SimTime::ZERO + soak.run_for;
    let Some(tracer) = built.tracer.take() else {
        let wall_ns = built.run_until(until);
        let (snapshot, problems) = built.check();
        return soak_output(soak, wall_ns, setup_s, &snapshot, &problems);
    };

    // The traced build runs interleaved with an untraced twin, so the
    // tracing overhead is measured against a run that saw the same
    // machine; both must end in the same snapshot.
    let mut twin = soak.assemble(seed, false);
    let clock = Clock::start();
    let (wall_ns, twin_ns) = interleave(&mut built, &mut twin, soak.run_for);
    let ns_per_tick = clock.ns_per_tick();
    let (snapshot, mut problems) = built.check();
    let (twin_snapshot, twin_problems) = twin.check();
    problems.extend(twin_problems);
    if snapshot.render() != twin_snapshot.render() {
        problems.push("the traced run's snapshot differs from the untraced run's".to_string());
    }
    let mut rep = soak_output(soak, wall_ns, setup_s, &snapshot, &problems);

    let split = |f: fn(&SetupSplit) -> u64| {
        Summary::of(&splits.iter().map(|s| secs(f(s))).collect::<Vec<_>>()).median
    };
    let layers = &mut rep.layers;
    layers.push(("tm_topo.generate_s".into(), split(|s| s.generate_ns)));
    layers.push(("tm_core.load.plan_s".into(), split(|s| s.plan_ns)));
    layers.push(("netsim.build_s".into(), split(|s| s.build_ns)));
    layers.push((
        "trace_overhead".into(),
        wall_ns as f64 / twin_ns.max(1) as f64 - 1.0,
    ));

    let tick_s = |ticks: u64| ticks as f64 * ns_per_tick / 1e9;
    let ctrl = *tracer.controller.borrow();
    for (i, kind) in CONTROLLER_KINDS.iter().enumerate() {
        let (count, busy_s) = (ctrl.count[i], tick_s(ctrl.busy_ticks[i]));
        layers.push((format!("controller.{kind}.count"), count as f64));
        layers.push((format!("controller.{kind}.busy_s"), busy_s));
        let mean_ns = if count == 0 {
            0.0
        } else {
            busy_s * 1e9 / count as f64
        };
        layers.push((format!("controller.{kind}.mean_ns"), mean_ns));
    }
    let mut modules_s = 0.0;
    for (module, tally) in &tracer.modules {
        let t = *tally.borrow();
        modules_s += tick_s(t.total_busy_ticks());
        layers.push((format!("{module}.busy_s"), tick_s(t.total_busy_ticks())));
        for (i, hook) in HOOKS.iter().enumerate() {
            layers.push((format!("{module}.{hook}.count"), t.count[i] as f64));
            layers.push((format!("{module}.{hook}.busy_s"), tick_s(t.busy_ticks[i])));
        }
    }
    let ctrl_s = tick_s(ctrl.total_busy_ticks());
    layers.push(("controller.self_s".into(), ctrl_s - modules_s));
    layers.push(("netsim.self_s".into(), secs(wall_ns) - ctrl_s));
    layers.extend(snapshot_layers(&snapshot, wall_ns));
    rep
}

fn soak_output(
    soak: &Soak,
    wall_ns: u64,
    setup_s: f64,
    snapshot: &MetricsSnapshot,
    problems: &[String],
) -> RepOutput {
    for p in problems {
        eprintln!("topobench: check failed: {p}");
    }
    RepOutput {
        wall_s: secs(wall_ns),
        sim_s: soak.run_for.as_secs_f64(),
        runs: 1.0,
        setup_s,
        attempted: 1,
        failed: u64::from(!problems.is_empty()),
        fingerprint: fingerprint(&snapshot.render()),
        ..RepOutput::default()
    }
}

/// The per-layer values a soak's deterministic snapshot already holds.
fn snapshot_layers(snap: &MetricsSnapshot, wall_ns: u64) -> Vec<(String, f64)> {
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let events = counter("netsim.engine.events_processed");
    let mut out = vec![
        ("netsim.engine.events_processed".to_string(), events),
        (
            "netsim.engine.queue_highwater".to_string(),
            snap.gauge("netsim.engine.queue_highwater").unwrap_or(0) as f64,
        ),
        (
            "netsim.ns_per_event".to_string(),
            if events > 0.0 {
                wall_ns as f64 / events
            } else {
                0.0
            },
        ),
    ];
    for kind in EVENT_KINDS {
        let name = format!("netsim.event.{kind}");
        out.push((name.clone(), counter(&name)));
    }
    for name in [
        "traffic.flows_offered",
        "traffic.packets_expanded",
        "traffic.expansions_arp",
    ] {
        out.push((name.to_string(), counter(name)));
    }
    out.push((
        "traffic.aggregation_ratio".to_string(),
        counter("traffic.packets_aggregated") / counter("traffic.packets_expanded").max(1.0),
    ));
    out
}

fn matrix_rep(seed: u64, traced: bool) -> Result<RepOutput, String> {
    let (mut setup, setup_s) = repeat_setup(|| MatrixSetup::new(traced));
    // A traced rep first runs the campaign untraced, back to back with the
    // traced one, for the tracing overhead.
    let twin = match setup.times {
        Some(_) => {
            let mut twin = MatrixSetup::new(false);
            let (report, wall_ns) = twin.run(seed)?;
            Some((twin.verdicts, report, wall_ns))
        }
        None => None,
    };
    let (report, wall_ns) = setup.run(seed)?;
    let render = report.render();
    let verdicts = &setup.verdicts;
    for p in &verdicts.problems {
        eprintln!("topobench: verdict mismatch: {p}");
    }
    let mut rep = RepOutput {
        wall_s: secs(wall_ns),
        sim_s: verdicts.sim_s,
        runs: verdicts.attempted as f64,
        setup_s,
        attempted: verdicts.attempted,
        failed: verdicts.failed,
        fingerprint: fingerprint(&render),
        ..RepOutput::default()
    };
    let (Some(times), Some((twin_verdicts, twin_report, twin_ns))) = (&setup.times, twin) else {
        return Ok(rep);
    };
    rep.attempted += twin_verdicts.attempted;
    rep.failed += twin_verdicts.failed;
    if twin_report.render() != render {
        eprintln!("topobench: the traced campaign's report differs from the untraced one's");
        rep.failed = rep.attempted;
    }
    let times = times.lock().unwrap_or_else(PoisonError::into_inner);
    for (i, attack) in FABRIC_MATRIX_DEFAULT_ATTACKS.iter().enumerate() {
        let runs: Vec<f64> = times
            .iter()
            .filter(|(a, _)| *a == i)
            .map(|(_, ns)| secs(*ns))
            .collect();
        for (p, q) in [("p50", 0.5), ("p90", 0.9)] {
            rep.layers.push((
                format!("tm_core.{attack}.run_s.{p}"),
                quantile(&runs, q).unwrap_or(0.0),
            ));
        }
    }
    let busy_ns: u64 = times.iter().map(|(_, ns)| ns).sum();
    let capacity = wall_ns as f64 * MATRIX_WORKERS as f64;
    rep.layers.push((
        "tm_campaign.worker_util".into(),
        if capacity > 0.0 {
            busy_ns as f64 / capacity
        } else {
            0.0
        },
    ));
    rep.layers.push((
        "tm_campaign.overhead_s".into(),
        secs(wall_ns) - secs(busy_ns) / MATRIX_WORKERS as f64,
    ));
    rep.layers.push((
        "trace_overhead".into(),
        wall_ns as f64 / twin_ns.max(1) as f64 - 1.0,
    ));
    Ok(rep)
}
