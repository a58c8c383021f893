//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- table1
//! cargo run --release -p bench --bin experiments -- fig5 --trials 500
//! cargo run --release -p bench --bin experiments -- campaign list
//! cargo run --release -p bench --bin experiments -- campaign hijack --seeds 10 --workers 4
//! ```

use std::path::{Path, PathBuf};

use bench::cli::CommonArgs;
use bench::json::JsonValue;
use bench::{ablation, campaign, figures, metrics, runlog, sweeps, tables};
use tm_campaign::{
    aggregate_stream, run_campaign, run_campaign_with, CampaignReport, CampaignSpec, Registry,
    Resume, Shard,
};
use tm_core::matrix;

/// The campaign family's value-taking flags (shared by `campaign`,
/// `matrix --topo`, and `load`). `--resume` is boolean and filtered out
/// before [`CommonArgs::parse`] sees the argument list.
const CAMPAIGN_FLAGS: &[&str] = &["--seeds", "--workers", "--confidence", "--shard", "--state"];

fn matrix_to_json(entries: &[tm_core::MatrixEntry]) -> JsonValue {
    JsonValue::Array(
        entries
            .iter()
            .map(|e| {
                JsonValue::object(vec![
                    ("attack", e.attack.into()),
                    ("defense", e.defense.as_str().into()),
                    ("succeeded", e.succeeded.into()),
                    ("detected", e.detected.into()),
                    ("alerts", e.alerts.into()),
                    (
                        "failure",
                        e.failure
                            .as_deref()
                            .map_or(JsonValue::Null, JsonValue::from),
                    ),
                ])
            })
            .collect(),
    )
}

fn write_json(path: &Option<String>, entries: &[tm_core::MatrixEntry]) {
    if let Some(path) = path {
        let json = matrix_to_json(entries).to_pretty();
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id> [--trials N] [--seed HEX] [--json FILE]\n\
         ids: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig10 fig11 fig12 fig13\n\
              matrix matrix_extended fault_matrix scan_detection alert_flood downtime\n\
              ablations ablation_lli ablation_amnesia ablation_timeout metrics all\n\
              campaign <scenario|smoke|faults|list> [--seeds N] [--workers N] [--confidence P]\n\
                     [--shard I/N] [--state DIR] [--resume]\n\
                     (--shard runs only grid cells `index mod N == I`; seeds stay global,\n\
                      so merged shard output is byte-identical to a single invocation;\n\
                      --state writes a binary run-log per shard;\n\
                      --resume skips cells that run-log already completed)\n\
              campaign replay <LOG...> [--json FILE]\n\
                     (merge shard run-logs and re-aggregate without re-simulating)\n\
              scale [--seeds N] [--workers N]  (alias for `campaign scale`)\n\
              load [--seeds N] [--workers N] [--probe-only]\n\
                     (flow-level traffic campaign + 102,400-host throughput probe;\n\
                      --probe-only skips the campaign)\n\
              matrix --topo <labels|families|default> [--attacks CSV] [--stacks CSV]\n\
                     [--seeds N] [--workers N] [--confidence P] [--shard I/N]\n\
                     [--state DIR] [--resume]\n\
                     (detection matrix on generated fabrics; families fat-tree, ring,\n\
                      linear, core-edge, datacenter expand to a small+large pair;\n\
                      datacenter tops out at 1000 switches)"
    );
    std::process::exit(2);
}

/// Peak resident set size (VmHWM) in kB, from `/proc/self/status`.
/// `None` on platforms without procfs — the record field is just omitted.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

/// Campaign execution options beyond the spec itself: shard assignment
/// and on-disk state (the shard's run-log) with resume.
struct CampaignIo {
    shard: Shard,
    state: Option<PathBuf>,
    resume: bool,
}

impl CampaignIo {
    /// Reads `--shard`/`--state` out of parsed args; `resume` comes from
    /// the caller (boolean flags are filtered before parsing).
    fn from_args(common: &CommonArgs, resume: bool) -> Result<CampaignIo, String> {
        let shard_spec: String = common.extra_parsed("--shard", "0/1".to_string())?;
        let shard = Shard::parse(&shard_spec)?;
        let state: String = common.extra_parsed("--state", String::new())?;
        let state = (!state.is_empty()).then(|| PathBuf::from(state));
        if resume && state.is_none() {
            return Err("--resume needs --state DIR (that is where the run-log lives)".into());
        }
        Ok(CampaignIo {
            shard,
            state,
            resume,
        })
    }
}

/// Runs one campaign under `io`: plain in-memory execution without
/// `--state`; with it, every run streams into the shard's binary run-log,
/// and `--resume` first rebuilds the cells that log already completed.
/// Returns the report plus the run-log size when state is on.
fn execute_campaign(
    registry: &Registry,
    spec: &CampaignSpec,
    io: &CampaignIo,
) -> Result<(CampaignReport, Option<u64>), String> {
    let Some(dir) = &io.state else {
        return run_campaign(registry, spec).map(|report| (report, None));
    };
    let scenario = registry
        .get(&spec.scenario)
        .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
    let log_path = dir.join(format!(
        "{}.shard{}of{}.runlog",
        spec.scenario, spec.shard.index, spec.shard.count
    ));
    let header = runlog::RunLogHeader::for_spec(scenario, spec);
    let (resume, kept) = if io.resume {
        let (resume, kept) = runlog::resume(&log_path, &header)?;
        eprintln!(
            "resume: {} completed cell(s) carried over from {}",
            resume.cells.len(),
            dir.display()
        );
        (resume, kept)
    } else {
        (Resume::none(), Vec::new())
    };
    let mut writer = runlog::Writer::create(&log_path, &header, &kept)?;
    let report = run_campaign_with(registry, spec, &resume, &mut writer)?;
    Ok((report, Some(writer.bytes())))
}

/// The stderr `campaign-wall` perf record: wall clock, peak RSS, and the
/// run-log footprint when state is on. Never in the deterministic stdout.
fn campaign_wall_record(
    name: &str,
    workers: usize,
    shard: Shard,
    report: &CampaignReport,
    wall_ms: f64,
    runlog_bytes: Option<u64>,
) {
    let mut fields = vec![
        ("suite", JsonValue::from("campaign-wall")),
        ("bench", name.into()),
        ("workers", workers.into()),
        ("shard", shard.label().as_str().into()),
        ("runs", report.total_runs.into()),
        ("failed", report.total_failures().into()),
        ("wall_ms", wall_ms.into()),
    ];
    if let Some(kb) = peak_rss_kb() {
        fields.push(("peak_rss_kb", (kb as usize).into()));
    }
    if let Some(bytes) = runlog_bytes {
        fields.push(("runlog_bytes", (bytes as usize).into()));
    }
    eprintln!("BENCH_JSON {}", JsonValue::object(fields).to_compact());
}

/// `campaign replay <LOG...>`: merge shard run-logs and re-aggregate the
/// canonical stream — the exact stdout of the original campaign, with
/// zero simulation work.
fn replay_cmd(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut flags: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            flags.push(args[i].clone());
            if let Some(value) = args.get(i + 1) {
                flags.push(value.clone());
            }
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    let common = CommonArgs::parse(&flags, &[]).unwrap_or_else(|e| {
        eprintln!("campaign replay: {e}");
        usage()
    });
    if files.is_empty() {
        eprintln!("campaign replay: needs at least one run-log file");
        usage()
    }
    let fail = |e: String| -> ! {
        eprintln!("campaign replay: {e}");
        std::process::exit(2)
    };
    let logs: Vec<runlog::RunLog> = files
        .iter()
        .map(|f| runlog::read(Path::new(f)))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail(e));
    for (file, log) in files.iter().zip(&logs) {
        if log.truncated {
            eprintln!("warning: {file} has a damaged tail; incomplete cells will be rejected");
        }
    }
    let (header, records) = runlog::merge(&logs).unwrap_or_else(|e| fail(e));
    let grid = header.grid();
    let report = aggregate_stream(&header.meta(), &grid, records).unwrap_or_else(|e| fail(e));

    print!("{}", report.render());
    for line in campaign::cell_bench_lines(&report) {
        println!("{line}");
    }
    println!();
    eprintln!(
        "replayed {} runs from {} log(s) without re-simulating",
        report.total_runs,
        logs.len()
    );
    if let Some(path) = &common.json {
        let json = campaign::summary_json(&report).to_pretty();
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// Expands a `--topo` grid spec: comma-separated topology labels
/// (`fat-tree-8`, `ring-4x2`, ...) or family names, each family expanding
/// to its small+large default pair so one family still covers two sizes.
/// `default` is the full two-kinds × two-sizes default grid.
fn expand_topo_spec(spec: &str) -> Vec<String> {
    spec.split(',')
        .filter(|item| !item.is_empty())
        .flat_map(|item| match item {
            "default" => campaign::FABRIC_MATRIX_TOPOS.to_vec(),
            "fat-tree" => vec!["fat-tree-4", "fat-tree-8"],
            "ring" => vec!["ring-4x2", "ring-8x2"],
            "linear" => vec!["linear-4x2", "linear-8x2"],
            "core-edge" => vec!["core-edge-2x12x2", "core-edge-4x24x2"],
            // The 1k-switch frontier: hostless cores, single-host edges
            // (role synthesis keeps the paper's geometry — see
            // `tm_core::fabric`). Expect minutes per cell, not seconds.
            "datacenter" => vec!["core-edge-4x96x1", "core-edge-8x992x1"],
            other => vec![other],
        })
        .map(String::from)
        .collect()
}

/// `matrix --topo`: the detection matrix re-run on generated fabrics, as
/// a multi-seed campaign. Same stdout/stderr split as [`campaign_cmd`]:
/// the report and per-cell `BENCH_JSON` lines are deterministic and
/// byte-identical at any `--workers` count; wall time goes to stderr.
fn topo_matrix_cmd(args: &[String]) {
    let resume = args.iter().any(|a| a == "--resume");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--resume")
        .cloned()
        .collect();
    let mut flags: Vec<&str> = vec!["--topo", "--attacks", "--stacks"];
    flags.extend_from_slice(CAMPAIGN_FLAGS);
    let common = CommonArgs::parse(&filtered, &flags).unwrap_or_else(|e| {
        eprintln!("matrix --topo: {e}");
        usage()
    });
    let fail = |e: String| -> ! {
        eprintln!("matrix --topo: {e}");
        std::process::exit(2)
    };
    let topo_spec: String = common
        .extra_parsed("--topo", "default".to_string())
        .unwrap_or_else(|e| fail(e));
    let attacks_spec: String = common
        .extra_parsed(
            "--attacks",
            campaign::FABRIC_MATRIX_DEFAULT_ATTACKS.join(","),
        )
        .unwrap_or_else(|e| fail(e));
    let stacks_spec: String = common
        .extra_parsed("--stacks", campaign::FABRIC_MATRIX_STACKS.join(","))
        .unwrap_or_else(|e| fail(e));
    let seeds: usize = common
        .extra_parsed("--seeds", 5)
        .unwrap_or_else(|e| fail(e));
    let workers: usize = common
        .extra_parsed("--workers", 1)
        .unwrap_or_else(|e| fail(e));
    let confidence: f64 = common
        .extra_parsed("--confidence", 0.95)
        .unwrap_or_else(|e| fail(e));
    let io = CampaignIo::from_args(&common, resume).unwrap_or_else(|e| fail(e));

    let topos = expand_topo_spec(&topo_spec);
    let attacks: Vec<String> = attacks_spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let stacks: Vec<String> = stacks_spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    fn as_refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    let scenario =
        campaign::fabric_matrix_scenario(&as_refs(&topos), &as_refs(&attacks), &as_refs(&stacks))
            .unwrap_or_else(|e| fail(e));
    let mut registry = tm_campaign::Registry::new();
    registry.register(scenario).unwrap_or_else(|e| fail(e));

    let mut spec = CampaignSpec::new("fabric-matrix", common.seed);
    spec.seeds = seeds;
    spec.workers = workers;
    spec.confidence = confidence;
    spec.shard = io.shard;
    spec.quiet_panics = true;

    // tm-lint: allow(wall-clock) -- campaign wall time is the perf-trajectory record; stderr only, never in the deterministic report
    let start = std::time::Instant::now();
    let (report, runlog_bytes) =
        execute_campaign(&registry, &spec, &io).unwrap_or_else(|e| fail(e));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    print!("{}", report.render());
    for line in campaign::cell_bench_lines(&report) {
        println!("{line}");
    }
    println!();

    campaign_wall_record(
        "fabric-matrix",
        workers,
        io.shard,
        &report,
        wall_ms,
        runlog_bytes,
    );

    if let Some(path) = &common.json {
        let json = campaign::summary_json(&report).to_pretty();
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// The `campaign` subcommand: multi-seed parameter-grid campaigns over the
/// registry in `bench::campaign`.
///
/// Everything deterministic — the report and the per-cell `BENCH_JSON`
/// records — goes to **stdout**, so two invocations differing only in
/// `--workers` are byte-identical there (CI diffs exactly that). The
/// wall-clock record, which legitimately varies, goes to **stderr**.
fn campaign_cmd(args: &[String]) {
    let Some(target) = args.first() else { usage() };
    if target == "replay" {
        replay_cmd(&args[1..]);
        return;
    }
    let registry = campaign::registry();

    if target == "list" {
        for s in registry.scenarios() {
            let cells = s.cells().len();
            println!("{:<18} {:>3} cells  {}", s.name, cells, s.description);
        }
        return;
    }

    // `--resume` is boolean; every flag CommonArgs sees takes a value.
    let resume = args[1..].iter().any(|a| a == "--resume");
    let filtered: Vec<String> = args[1..]
        .iter()
        .filter(|a| a.as_str() != "--resume")
        .cloned()
        .collect();
    let common = CommonArgs::parse(&filtered, CAMPAIGN_FLAGS).unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        usage()
    });
    let fail = |e: String| -> ! {
        eprintln!("campaign: {e}");
        std::process::exit(2)
    };
    let seeds: usize = common
        .extra_parsed("--seeds", 5)
        .unwrap_or_else(|e| fail(e));
    let workers: usize = common
        .extra_parsed("--workers", 1)
        .unwrap_or_else(|e| fail(e));
    let confidence: f64 = common
        .extra_parsed("--confidence", 0.95)
        .unwrap_or_else(|e| fail(e));
    let io = CampaignIo::from_args(&common, resume).unwrap_or_else(|e| fail(e));

    let names: Vec<&str> = if target == "smoke" {
        campaign::SMOKE_SCENARIOS.to_vec()
    } else if target == "faults" {
        campaign::FAULT_SCENARIOS.to_vec()
    } else {
        vec![target.as_str()]
    };

    let mut summaries = Vec::new();
    for name in names {
        let mut spec = CampaignSpec::new(name, common.seed);
        spec.seeds = seeds;
        spec.workers = workers;
        spec.confidence = confidence;
        spec.shard = io.shard;
        // The driver owns the process: silence the default panic hook's
        // backtraces while isolated cells fail (they are *reported*).
        spec.quiet_panics = true;

        // tm-lint: allow(wall-clock) -- campaign wall time is the perf-trajectory record; stderr only, never in the deterministic report
        let start = std::time::Instant::now();
        let (report, runlog_bytes) =
            execute_campaign(&registry, &spec, &io).unwrap_or_else(|e| fail(e));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        print!("{}", report.render());
        for line in campaign::cell_bench_lines(&report) {
            println!("{line}");
        }
        println!();

        campaign_wall_record(name, workers, io.shard, &report, wall_ms, runlog_bytes);

        summaries.push(campaign::summary_json(&report));
    }

    if let Some(path) = &common.json {
        let json = if summaries.len() == 1 {
            summaries.remove(0).to_pretty()
        } else {
            JsonValue::Array(summaries).to_pretty()
        };
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// `load`: the flow-level traffic campaign (hosts × demand × stack on the
/// fat-tree-4 fabric) followed by the 102,400-host throughput probe.
/// `--probe-only` skips the campaign — the CI smoke path. Same
/// stdout/stderr split as [`campaign_cmd`]: everything on stdout is a
/// pure function of the seed (diffable across `--workers`); the wall
/// clock goes to stderr as the `traffic-throughput` `BENCH_JSON` record.
fn load_cmd(args: &[String]) {
    let probe_only = args.iter().any(|a| a == "--probe-only");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--probe-only")
        .cloned()
        .collect();
    if !probe_only {
        // `campaign_cmd` handles `--shard`/`--state`/`--resume` itself;
        // forward everything but the probe flag.
        let mut forwarded = vec!["load".to_string()];
        forwarded.extend_from_slice(&filtered);
        campaign_cmd(&forwarded);
    }
    let flagged: Vec<String> = filtered
        .iter()
        .filter(|a| a.as_str() != "--resume")
        .cloned()
        .collect();
    let common = CommonArgs::parse(&flagged, CAMPAIGN_FLAGS).unwrap_or_else(|e| {
        eprintln!("load: {e}");
        usage()
    });
    throughput_probe(common.seed);
}

/// Runs the ≥100k-host flow-level scenario end-to-end and reports the
/// aggregation leverage: how far the flow-level wall clock sits below a
/// per-packet extrapolation. The extrapolation charges one engine event
/// per aggregated packet — a deliberate *underestimate* of per-packet
/// simulation (every real packet crosses several hops), so the printed
/// speedup is a floor.
fn throughput_probe(seed: u64) {
    use tm_core::{DefenseStack, LoadScenario, TrafficLoad};
    use tm_topo::TopoKind;

    let scenario = LoadScenario::new(
        TopoKind::FatTree { k: 4 },
        DefenseStack::TopoGuardPlus,
        TrafficLoad::steady(12_800, 2.0),
        seed,
    );
    // tm-lint: allow(wall-clock) -- the probe's wall time is the perf-trajectory record; stderr only, never in the deterministic report
    let start = std::time::Instant::now();
    let out = tm_core::load::run(&scenario);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Deterministic: counters are a pure function of the seed, and the
    // speedup is a ratio of counters (wall cancels out of the model).
    let speedup =
        (out.events_processed + out.packets_aggregated) as f64 / out.events_processed as f64;
    println!("traffic throughput probe: fat-tree-4, 12800 hosts/edge, steady-2, topoguard-plus, seed {seed:#x}");
    println!("  virtual hosts       {}", out.hosts_virtual);
    println!("  flows offered       {}", out.flows_offered);
    println!("  packets aggregated  {}", out.packets_aggregated);
    println!("  packets expanded    {}", out.packets_expanded);
    println!("  packet-ins          {}", out.packet_ins);
    println!("  events processed    {}", out.events_processed);
    println!("  alerts              {}", out.alerts_total);
    println!("  flow-level speedup  {speedup:.0}x vs per-packet extrapolation");

    let record = JsonValue::object(vec![
        ("suite", "traffic-throughput".into()),
        ("hosts", out.hosts_virtual.into()),
        ("flows_offered", out.flows_offered.into()),
        ("packets_aggregated", out.packets_aggregated.into()),
        ("packets_expanded", out.packets_expanded.into()),
        ("packet_ins", out.packet_ins.into()),
        ("events_processed", out.events_processed.into()),
        ("wall_ms", wall_ms.into()),
        ("extrapolated_wall_ms", (wall_ms * speedup).into()),
        ("speedup", speedup.into()),
    ]);
    eprintln!("BENCH_JSON {}", record.to_compact());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(id) = args.first() else { usage() };
    if id == "campaign" {
        campaign_cmd(&args[1..]);
        return;
    }
    if id == "matrix" && args.iter().any(|a| a == "--topo") {
        // Topology-parameterized variant: runs as a multi-seed campaign so
        // verdicts come with ± CI and output is worker-count independent.
        topo_matrix_cmd(&args[1..]);
        return;
    }
    if id == "scale" {
        // Alias for `campaign scale`: the datacenter-fabric soak grid.
        let mut forwarded = vec!["scale".to_string()];
        forwarded.extend_from_slice(&args[1..]);
        campaign_cmd(&forwarded);
        return;
    }
    if id == "load" {
        load_cmd(&args[1..]);
        return;
    }

    let common = CommonArgs::parse(&args[1..], &[]).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let trials = common.trials;
    let seed = common.seed;
    let json_path = common.json;

    match id.as_str() {
        "table1" => println!("{}", tables::table1(seed)),
        "table2" => println!("{}", tables::table2()),
        "table3" => println!("{}", tables::table3(seed)),
        "fig4" => println!("{}", figures::fig4(seed, trials.max(1000))),
        // Figs. 5-8 come from the same trial batch.
        "fig5" | "fig6" | "fig7" | "fig8" => println!("{}", figures::figs5_to_8(seed, trials)),
        "fig10" => println!("{}", figures::fig10(seed, 100)),
        "fig11" | "fig13" => println!("{}", figures::fig11(seed)),
        "fig12" => {
            println!("{}", figures::fig12(seed));
            println!("alert log:");
            for line in figures::fig12_alerts(seed).iter().take(6) {
                println!("  {line}");
            }
        }
        "matrix" => {
            let entries = matrix::run_matrix(seed);
            println!("{}", matrix::render(&entries));
            write_json(&json_path, &entries);
        }
        "matrix_extended" => {
            let entries = matrix::run_matrix_extended(seed);
            println!("{}", matrix::render(&entries));
            write_json(&json_path, &entries);
        }
        "fault_matrix" => {
            // The detection matrix re-run under each degraded-network
            // profile: does detection survive loss, jitter, congestion,
            // and switch restarts?
            let mut all = Vec::new();
            for profile in tm_core::FaultProfile::MATRIX_SWEEP {
                println!(
                    "DETECTION MATRIX under fault profile: {}\n",
                    profile.label()
                );
                let entries = matrix::run_matrix_under(profile, seed);
                println!("{}", matrix::render(&entries));
                all.extend(entries);
            }
            write_json(&json_path, &all);
        }
        "scan_detection" => println!("{}", sweeps::scan_detection()),
        "alert_flood" => println!("{}", sweeps::alert_flood(seed)),
        "downtime" => println!("{}", sweeps::downtime_windows(80.0)),
        "metrics" => println!("{}", metrics::metrics_report(seed)),
        "ablation_lli" => println!("{}", ablation::lli_fence_sweep(seed)),
        "ablation_amnesia" => println!("{}", ablation::amnesia_hold_sweep(seed)),
        "ablation_timeout" => println!("{}", ablation::probe_timeout_sweep(seed)),
        "ablations" => {
            println!("{}", ablation::lli_fence_sweep(seed));
            println!("{}", ablation::amnesia_hold_sweep(seed));
            println!("{}", ablation::probe_timeout_sweep(seed));
        }
        "all" => {
            println!("{}", tables::table1(seed));
            println!("{}", tables::table2());
            println!("{}", tables::table3(seed));
            println!("{}", figures::fig4(seed, 1000));
            println!("{}", figures::figs5_to_8(seed, trials));
            println!("{}", figures::fig10(seed, 100));
            println!("{}", figures::fig11(seed));
            println!("{}", figures::fig12(seed));
            for line in figures::fig12_alerts(seed).iter().take(6) {
                println!("  {line}");
            }
            println!();
            println!("DETECTION MATRIX (headline result)\n");
            let entries = matrix::run_matrix(seed);
            println!("{}", matrix::render(&entries));
            println!("{}", sweeps::scan_detection());
            println!("{}", sweeps::alert_flood(seed));
            println!("{}", sweeps::downtime_windows(80.0));
            println!("{}", ablation::lli_fence_sweep(seed));
            println!("{}", ablation::amnesia_hold_sweep(seed));
            println!("{}", ablation::probe_timeout_sweep(seed));
            println!("{}", metrics::metrics_report(seed));
        }
        _ => usage(),
    }
}
