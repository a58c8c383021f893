//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- table1
//! cargo run --release -p bench --bin experiments -- fig5 --trials 500
//! cargo run --release -p bench --bin experiments -- campaign list
//! cargo run --release -p bench --bin experiments -- campaign hijack --seeds 10 --workers 4
//! ```

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use bench::cli::CommonArgs;
use bench::json::JsonValue;
use bench::{ablation, campaign, figures, metrics, runlog, sweeps, tables};
use tm_campaign::{
    aggregate_stream, run_campaign, run_campaign_with, CampaignReport, CampaignSpec, Registry,
    Resume, Shard,
};
use tm_core::{matrix, DefenseStack, FaultProfile};

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
                    ("attack", e.attack.label().into()),
                    ("defense", e.defense.to_string().into()),
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

/// Creates subcommand `cmd`'s `--json` file, if one was given. Called
/// before the run, so a path that cannot be written exits 2 like any other
/// bad flag instead of throwing the run's work away.
fn create_json(cmd: &str, path: Option<&str>) -> Option<(String, File)> {
    let path = path?;
    match File::create(path) {
        Ok(file) => Some((path.to_string(), file)),
        Err(e) => fail(cmd, format!("--json {path}: {e}")),
    }
}

/// Writes `json` into the file [`create_json`] created.
fn write_json(cmd: &str, out: Option<(String, File)>, json: JsonValue) {
    let Some((path, mut file)) = out else { return };
    if let Err(e) = file.write_all(json.to_pretty().as_bytes()) {
        fail(cmd, format!("--json {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id> [--trials N] [--seed HEX] [--json FILE]\n\
         (--json FILE is written by matrix, matrix_extended, fault_matrix,\n\
          matrix --topo, scale, campaign <scenario|smoke|faults>, campaign\n\
          replay and load without --probe-only; every other id rejects it)\n\
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

/// Prints `<cmd>: <e>` and exits 2.
fn fail(cmd: &str, e: String) -> ! {
    eprintln!("{cmd}: {e}");
    std::process::exit(2)
}

/// The campaign family's flags, parsed once: the spec's knobs, shard
/// assignment, and on-disk state (the shard's run-log) with resume.
struct CampaignArgs {
    common: CommonArgs,
    seeds: usize,
    workers: usize,
    confidence: f64,
    shard: Shard,
    state: Option<PathBuf>,
    resume: bool,
}

impl CampaignArgs {
    /// Parses `args` for subcommand `cmd` (the error prefix): the campaign
    /// flags plus the value-taking flags in `extra`. An unknown flag
    /// prints usage; a bad value exits 2.
    fn parse(cmd: &str, args: &[String], extra: &[&str]) -> CampaignArgs {
        // `--resume` is boolean; every flag CommonArgs sees takes a value.
        let resume = args.iter().any(|a| a == "--resume");
        let filtered: Vec<String> = args
            .iter()
            .filter(|a| a.as_str() != "--resume")
            .cloned()
            .collect();
        let common = CommonArgs::parse(&filtered, &[extra, CAMPAIGN_FLAGS].concat())
            .unwrap_or_else(|e| {
                eprintln!("{cmd}: {e}");
                usage()
            });
        CampaignArgs::read(common, resume).unwrap_or_else(|e| fail(cmd, e))
    }

    /// Reads the campaign flags back out of `common`.
    fn read(common: CommonArgs, resume: bool) -> Result<CampaignArgs, String> {
        let shard = Shard::parse(&common.extra_parsed("--shard", "0/1".to_string())?)?;
        let state: String = common.extra_parsed("--state", String::new())?;
        let state = (!state.is_empty()).then(|| PathBuf::from(state));
        if resume && state.is_none() {
            return Err("--resume needs --state DIR (that is where the run-log lives)".into());
        }
        Ok(CampaignArgs {
            seeds: common.extra_parsed("--seeds", 5)?,
            workers: common.extra_parsed("--workers", 1)?,
            confidence: common.extra_parsed("--confidence", 0.95)?,
            common,
            shard,
            state,
            resume,
        })
    }
}

/// Runs one campaign under `args`: plain in-memory execution without
/// `--state`; with it, every run streams into the shard's binary run-log,
/// and `--resume` first rebuilds the cells that log already completed.
/// Returns the report plus the run-log size when state is on.
fn execute_campaign(
    registry: &Registry,
    spec: &CampaignSpec,
    args: &CampaignArgs,
) -> Result<(CampaignReport, Option<u64>), String> {
    let Some(dir) = &args.state else {
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
    let (resume, kept) = if args.resume {
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

/// Runs each named campaign in `registry` under `args`.
///
/// Everything deterministic — the report and the per-cell `BENCH_JSON`
/// records — goes to **stdout**, so two invocations differing only in
/// `--workers` are byte-identical there (CI diffs exactly that). The
/// wall-clock record, which legitimately varies, goes to **stderr**.
/// `--json` gets the one summary, or an array of them.
fn run_campaigns(cmd: &str, registry: &Registry, names: &[&str], args: &CampaignArgs) {
    let json = create_json(cmd, args.common.json.as_deref());
    let mut summaries = Vec::new();
    for &name in names {
        let spec = CampaignSpec {
            seeds: args.seeds,
            workers: args.workers,
            confidence: args.confidence,
            shard: args.shard,
            // This binary owns the process: silence the default panic hook's
            // backtraces while isolated cells fail (they are *reported*).
            quiet_panics: true,
            ..CampaignSpec::new(name, args.common.seed)
        };

        // tm-lint: allow(wall-clock) -- campaign wall time is the perf-trajectory record; stderr only, never in the deterministic report
        let start = std::time::Instant::now();
        let (report, runlog_bytes) =
            execute_campaign(registry, &spec, args).unwrap_or_else(|e| fail(cmd, e));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        print!("{}", report.render());
        for line in campaign::cell_bench_lines(&report) {
            println!("{line}");
        }
        println!();

        campaign_wall_record(
            name,
            args.workers,
            args.shard,
            &report,
            wall_ms,
            runlog_bytes,
        );

        summaries.push(campaign::summary_json(&report));
    }

    let summary = if summaries.len() == 1 {
        summaries.remove(0)
    } else {
        JsonValue::Array(summaries)
    };
    write_json(cmd, json, summary);
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
    let json = create_json("campaign replay", common.json.as_deref());
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
    write_json("campaign replay", json, campaign::summary_json(&report));
}

/// Expands a `--topo` grid spec: topology labels (`fat-tree-8`,
/// `ring-4x2`, ...) or family names, each family expanding to its
/// small+large default pair so one family still covers two sizes.
/// `default` is the full two-kinds × two-sizes default grid.
fn expand_topo_spec(items: &[String]) -> Vec<String> {
    items
        .iter()
        .flat_map(|item| match item.as_str() {
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
/// a multi-seed campaign with [`run_campaigns`]' stdout/stderr split.
fn topo_matrix_cmd(args: &[String]) {
    const CMD: &str = "matrix --topo";
    let args = CampaignArgs::parse(CMD, args, &["--topo", "--attacks", "--stacks"]);
    let list = |flag: &str, default: String| -> Vec<String> {
        let csv: String = args
            .common
            .extra_parsed(flag, default)
            .unwrap_or_else(|e| fail(CMD, e));
        csv.split(',')
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    };
    let topos = expand_topo_spec(&list("--topo", "default".to_string()));
    let attacks = list(
        "--attacks",
        campaign::FABRIC_MATRIX_DEFAULT_ATTACKS.join(","),
    );
    let stacks = list("--stacks", campaign::FABRIC_MATRIX_STACKS.join(","));
    fn as_refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    let scenario =
        campaign::fabric_matrix_scenario(&as_refs(&topos), &as_refs(&attacks), &as_refs(&stacks))
            .unwrap_or_else(|e| fail(CMD, e));
    let mut registry = Registry::new();
    registry.register(scenario).unwrap_or_else(|e| fail(CMD, e));
    run_campaigns(CMD, &registry, &["fabric-matrix"], &args);
}

/// The `campaign` subcommand: multi-seed parameter-grid campaigns over the
/// registry in `bench::campaign`, run by [`run_campaigns`].
fn campaign_cmd(args: &[String]) {
    let Some(target) = args.first() else { usage() };
    if target == "replay" {
        replay_cmd(&args[1..]);
        return;
    }
    let registry = campaign::registry();

    if target == "list" {
        if let Some(flag) = args.get(1) {
            fail("campaign list", format!("takes no flags, got {flag}"));
        }
        for s in registry.scenarios() {
            let cells = s.cells().len();
            println!("{:<18} {:>3} cells  {}", s.name, cells, s.description);
        }
        return;
    }

    let parsed = CampaignArgs::parse("campaign", &args[1..], &[]);
    let names: Vec<&str> = match target.as_str() {
        "smoke" => campaign::SMOKE_SCENARIOS.to_vec(),
        "faults" => campaign::FAULT_SCENARIOS.to_vec(),
        name => vec![name],
    };
    run_campaigns("campaign", &registry, &names, &parsed);
}

/// `load`: the flow-level traffic campaign (hosts × demand × stack on the
/// fat-tree-4 fabric) followed by the 102,400-host throughput probe.
/// `--probe-only` skips the campaign — the CI smoke path. Same
/// stdout/stderr split as [`run_campaigns`]: everything on stdout is a
/// pure function of the seed (diffable across `--workers`); the wall
/// clock goes to stderr as the `traffic-throughput` `BENCH_JSON` record.
fn load_cmd(args: &[String]) {
    let probe_only = args.iter().any(|a| a == "--probe-only");
    let filtered: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--probe-only")
        .cloned()
        .collect();
    let parsed = CampaignArgs::parse("load", &filtered, &[]);
    if probe_only && parsed.common.json.is_some() {
        fail(
            "load",
            "--json is written by the campaign, which --probe-only skips".into(),
        );
    }
    if !probe_only {
        run_campaigns("load", &campaign::registry(), &["load"], &parsed);
    }
    throughput_probe(parsed.common.seed);
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
    if json_path.is_some() && !matches!(id.as_str(), "matrix" | "matrix_extended" | "fault_matrix")
    {
        fail(id, "--json is not written by this command".into());
    }

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
        "matrix" | "matrix_extended" => {
            let stacks: &[DefenseStack] = if id == "matrix" {
                &DefenseStack::ALL
            } else {
                &DefenseStack::ALL_EXTENDED
            };
            let json = create_json(id, json_path.as_deref());
            let entries = matrix::run_matrix(stacks, FaultProfile::Clean, seed);
            println!("{}", matrix::render(&entries));
            write_json(id, json, matrix_to_json(&entries));
        }
        "fault_matrix" => {
            // The detection matrix re-run under each degraded-network
            // profile: does detection survive loss, jitter, congestion,
            // and switch restarts?
            let json = create_json(id, json_path.as_deref());
            let mut all = Vec::new();
            for profile in FaultProfile::MATRIX_SWEEP {
                println!(
                    "DETECTION MATRIX under fault profile: {}\n",
                    profile.label()
                );
                let entries = matrix::run_matrix(&DefenseStack::ALL, profile, seed);
                println!("{}", matrix::render(&entries));
                all.extend(entries);
            }
            write_json(id, json, matrix_to_json(&all));
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
            let entries = matrix::run_matrix(&DefenseStack::ALL, FaultProfile::Clean, seed);
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
