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
use std::path::Path;

use bench::cli::{self, Args, Command};
use bench::json::JsonValue;
use bench::{ablation, campaign, figures, metrics, runlog, sweeps, tables};
use tm_campaign::{
    aggregate_stream, run_campaign, run_campaign_with, CampaignReport, CampaignSpec, Registry,
    Resume,
};
use tm_core::{matrix, DefenseStack, FaultProfile, MatrixEntry};

/// Every command, in usage order. `all` runs the entries above it, the
/// paper's sections, so `experiments <id>` prints exactly its section of
/// `experiments_output.txt`.
const COMMANDS: &[Command] = &[
    Command::new("table1 [--seed]", "Table I: liveness probes", |a| {
        println!("{}", tables::table1(a.seed))
    }),
    Command::new("table2", "Table II: TOPOGUARD+ overhead", |_| {
        println!("{}", tables::table2())
    }),
    Command::new("table3 [--seed]", "Table III: discovery profiles", |a| {
        println!("{}", tables::table3(a.seed))
    }),
    Command::new("fig4 [--seed]", "Fig. 4: ifconfig latency", |a| {
        println!("{}", figures::fig4(a.seed, 1000))
    }),
    Command::new(
        "fig5|fig6|fig7|fig8 [--seed] [--trials]",
        "Figs. 5-8: hijack timing, one batch of trials",
        |a| println!("{}", figures::figs5_to_8(a.seed, a.trials)),
    ),
    Command::new("fig10 [--seed]", "Fig. 10: switch-link latencies", |a| {
        println!("{}", figures::fig10(a.seed, 100))
    }),
    Command::new("fig11|fig13 [--seed]", "Figs. 11/13: LLI alerts", |a| {
        println!("{}", figures::fig11(a.seed))
    }),
    Command::new("fig12 [--seed]", "Fig. 12: CMM alerts", |a| {
        println!("{}", figures::fig12(a.seed));
        for line in figures::fig12_alerts(a.seed).iter().take(6) {
            println!("  {line}");
        }
        println!();
    }),
    Command::new("matrix [--seed] [--json]", "detection matrix", |a| {
        write_matrix("matrix", a, || {
            println!("DETECTION MATRIX (headline result)\n");
            print_matrix(&DefenseStack::ALL, FaultProfile::Clean, a.seed)
        })
    }),
    Command::new("scan_detection", "§V-B2: scan-rate detection", |_| {
        println!("{}", sweeps::scan_detection())
    }),
    Command::new("alert_flood [--seed]", "§IV-B: alert flooding", |a| {
        println!("{}", sweeps::alert_flood(a.seed))
    }),
    Command::new("downtime", "live-migration downtime windows", |_| {
        println!("{}", sweeps::downtime_windows(80.0))
    }),
    Command::new("ablation_lli [--seed]", "LLI fence sweep", |a| {
        println!("{}", ablation::lli_fence_sweep(a.seed))
    }),
    Command::new("ablation_amnesia [--seed]", "amnesia hold sweep", |a| {
        println!("{}", ablation::amnesia_hold_sweep(a.seed))
    }),
    Command::new("ablation_timeout [--seed]", "probe timeout sweep", |a| {
        println!("{}", ablation::probe_timeout_sweep(a.seed))
    }),
    Command::new("metrics [--seed]", "telemetry per scenario", |a| {
        println!("{}", metrics::metrics_report(a.seed))
    }),
    Command::new("all [--seed] [--trials]", "the sections above", |a| {
        let sections = COMMANDS.iter().take_while(|c| !c.usage.starts_with("all "));
        sections.for_each(|c| (c.run)(a));
    }),
    Command::new("ablations [--seed]", "the three ablations", |a| {
        let ablations = COMMANDS.iter().filter(|c| c.usage.starts_with("ablation_"));
        ablations.for_each(|c| (c.run)(a));
    }),
    Command::new(
        "matrix_extended [--seed] [--json]",
        "detection matrix plus the identifier-binding stack",
        |a| {
            let stacks = &DefenseStack::ALL_EXTENDED;
            write_matrix("matrix_extended", a, || {
                print_matrix(stacks, FaultProfile::Clean, a.seed)
            })
        },
    ),
    Command::new("fault_matrix [--seed] [--json]", "per fault profile", |a| {
        write_matrix("fault_matrix", a, || {
            let sweep = FaultProfile::MATRIX_SWEEP.into_iter().flat_map(|p| {
                println!("DETECTION MATRIX under fault profile: {}\n", p.label());
                print_matrix(&DefenseStack::ALL, p, a.seed)
            });
            sweep.collect()
        })
    }),
    Command::new(
        "campaign <scenario|smoke|faults> [--seed] [--json] [--seeds] [--workers] [--confidence] \
         [--shard] [--state] [--resume]",
        "multi-seed campaign over a registered scenario or group",
        |a| {
            let names: Vec<&str> = match a.operands[0].as_str() {
                "smoke" => campaign::SMOKE_SCENARIOS.to_vec(),
                "faults" => campaign::FAULT_SCENARIOS.to_vec(),
                name => vec![name],
            };
            run_campaigns("campaign", &campaign::registry(), &names, a);
        },
    ),
    Command::new("campaign list", "the registered scenarios", |_| {
        for s in campaign::registry().scenarios() {
            let cells = s.cells().len();
            println!("{:<18} {:>3} cells  {}", s.name, cells, s.description);
        }
    }),
    Command::new(
        "campaign replay <LOG>... [--json]",
        "merge shard run-logs and re-aggregate them without re-simulating",
        replay,
    ),
    Command::new(
        "scale [--seed] [--json] [--seeds] [--workers] [--confidence] [--shard] [--state] \
         [--resume]",
        "the datacenter-fabric soak grid (campaign scale)",
        |a| run_campaigns("scale", &campaign::registry(), &["scale"], a),
    ),
    Command::new(
        "load [--seed] [--json] [--seeds] [--workers] [--confidence] [--shard] [--state] \
         [--resume]",
        "flow-level load campaign, then the 102,400-host throughput probe",
        |a| {
            run_campaigns("load", &campaign::registry(), &["load"], a);
            throughput_probe(a.seed);
        },
    ),
    Command::new("load --probe-only [--seed]", "the probe alone", |a| {
        throughput_probe(a.seed)
    }),
    Command::new(
        "matrix --topo [--attacks] [--stacks] [--seed] [--json] [--seeds] [--workers] \
         [--confidence] [--shard] [--state] [--resume]",
        "detection matrix on generated fabrics (--topo: labels, families or default)",
        topo_matrix,
    ),
];

fn matrix_to_json(entries: &[MatrixEntry]) -> JsonValue {
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

/// Runs the detection matrix over `stacks` under `profile` and prints it.
fn print_matrix(stacks: &[DefenseStack], profile: FaultProfile, seed: u64) -> Vec<MatrixEntry> {
    let entries = matrix::run_matrix(stacks, profile, seed);
    println!("{}", matrix::render(&entries));
    entries
}

/// Runs `print` for subcommand `cmd` and writes the entries it returns to
/// `--json`.
fn write_matrix(cmd: &str, args: &Args, print: impl FnOnce() -> Vec<MatrixEntry>) {
    let json = create_json(cmd, args.json.as_deref());
    let entries = print();
    write_json(cmd, json, matrix_to_json(&entries));
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

/// Runs one campaign under `args`: plain in-memory execution without
/// `--state`; with it, every run streams into the shard's binary run-log,
/// and `--resume` first takes back the cells that log already completed.
/// A spec the runner would reject fails before the log is touched.
/// Returns the report plus the run-log size when state is on.
fn execute_campaign(
    registry: &Registry,
    spec: &CampaignSpec,
    args: &Args,
) -> Result<(CampaignReport, Option<u64>), String> {
    let Some(dir) = &args.state else {
        return run_campaign(registry, spec).map(|report| (report, None));
    };
    let scenario = registry
        .get(&spec.scenario)
        .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
    spec.check()?;
    std::fs::create_dir_all(dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
    let log_path = dir.join(format!(
        "{}.shard{}of{}.runlog",
        spec.scenario, spec.shard.index, spec.shard.count
    ));
    let header = runlog::RunLogHeader::for_spec(scenario, spec);
    let resume = if args.resume {
        let resume = runlog::resume(&log_path, &header)?;
        eprintln!(
            "resume: {} completed cell(s) carried over from {}",
            resume.records.len() / spec.seeds,
            dir.display()
        );
        resume
    } else {
        Resume::none()
    };
    let mut writer = runlog::Writer::create(&log_path, &header, &resume.records)?;
    let report = run_campaign_with(registry, spec, &resume, &mut writer)?;
    Ok((report, Some(writer.bytes())))
}

/// The stderr `campaign-wall` perf record: wall clock, peak RSS, and the
/// run-log footprint when state is on. Never in the deterministic stdout.
fn campaign_wall_record(
    spec: &CampaignSpec,
    report: &CampaignReport,
    wall_ms: f64,
    runlog_bytes: Option<u64>,
) {
    let mut fields = vec![
        ("suite", JsonValue::from("campaign-wall")),
        ("bench", spec.scenario.as_str().into()),
        ("workers", spec.workers.into()),
        ("shard", spec.shard.label().as_str().into()),
        ("runs", report.total_runs().into()),
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

/// Prints a campaign report and its per-cell `BENCH_JSON` records.
fn print_report(report: &CampaignReport) {
    print!("{}", report.render());
    for line in campaign::cell_bench_lines(report) {
        println!("{line}");
    }
    println!();
}

/// Runs each named campaign in `registry` under `args`.
///
/// Everything deterministic — the report and the per-cell `BENCH_JSON`
/// records — goes to **stdout**, so two invocations differing only in
/// `--workers` are byte-identical there (CI diffs exactly that). The
/// wall-clock record, which legitimately varies, goes to **stderr**.
/// `--json` gets the one summary, or an array of them.
fn run_campaigns(cmd: &str, registry: &Registry, names: &[&str], args: &Args) {
    let json = create_json(cmd, args.json.as_deref());
    let mut summaries = Vec::new();
    for &name in names {
        let spec = CampaignSpec {
            scenario: name.to_string(),
            base_seed: args.seed,
            // This binary owns the process: silence the default panic hook's
            // backtraces while isolated cells fail (they are *reported*).
            quiet_panics: true,
            ..args.campaign.clone()
        };

        // tm-lint: allow(wall-clock) -- campaign wall time is the perf-trajectory record; stderr only, never in the deterministic report
        let start = std::time::Instant::now();
        let (report, runlog_bytes) =
            execute_campaign(registry, &spec, args).unwrap_or_else(|e| fail(cmd, e));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        print_report(&report);
        campaign_wall_record(&spec, &report, wall_ms, runlog_bytes);

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
fn replay(args: &Args) {
    const CMD: &str = "campaign replay";
    let json = create_json(CMD, args.json.as_deref());
    let logs: Vec<runlog::RunLog> = args
        .operands
        .iter()
        .map(|f| runlog::read(Path::new(f)))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail(CMD, e));
    for (file, log) in args.operands.iter().zip(&logs) {
        if log.truncated {
            eprintln!("warning: {file} has a damaged tail; incomplete cells will be rejected");
        }
    }
    let log_count = logs.len();
    let (header, records) = runlog::merge(logs).unwrap_or_else(|e| fail(CMD, e));
    let report =
        aggregate_stream(&header.meta, &header.grid(), records).unwrap_or_else(|e| fail(CMD, e));

    print_report(&report);
    eprintln!(
        "replayed {} runs from {log_count} log(s) without re-simulating",
        report.total_runs(),
    );
    write_json(CMD, json, campaign::summary_json(&report));
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
/// a multi-seed campaign with [`run_campaigns`]' stdout/stderr split, so
/// verdicts come with ± CI and output is worker-count independent.
fn topo_matrix(args: &Args) {
    const CMD: &str = "matrix --topo";
    fn as_refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let topos = expand_topo_spec(&args.topo);
    let scenario = campaign::fabric_matrix_scenario(
        &as_refs(&topos),
        &as_refs(&args.attacks),
        &as_refs(&args.stacks),
    )
    .unwrap_or_else(|e| fail(CMD, e));
    let mut registry = Registry::new();
    registry.register(scenario).unwrap_or_else(|e| fail(CMD, e));
    run_campaigns(CMD, &registry, &["fabric-matrix"], args);
}

/// Runs the ≥100k-host flow-level scenario end-to-end and reports the
/// aggregation leverage: how far the flow-level wall clock sits below a
/// per-packet extrapolation. The extrapolation charges one engine event
/// per aggregated packet — a deliberate *underestimate* of per-packet
/// simulation (every real packet crosses several hops), so the printed
/// speedup is a floor.
fn throughput_probe(seed: u64) {
    use tm_core::{LoadScenario, TrafficLoad};
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = cli::parse(COMMANDS, &argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    (command.run)(&args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::cli::FLAGS;

    /// `flag` with a value it accepts; `--resume` with the `--state` it
    /// needs.
    fn given(flag: &'static str) -> Vec<&'static str> {
        match flag {
            "--resume" => vec![flag, "--state", "d"],
            "--probe-only" => vec![flag],
            "--seed" => vec![flag, "0x5"],
            "--confidence" => vec![flag, "0.9"],
            "--shard" => vec![flag, "1/2"],
            _ if FLAGS.contains(&(flag, "N")) => vec![flag, "3"],
            _ => vec![flag, "x"],
        }
    }

    /// The words that name `c`, and any flag that selects it.
    fn name(c: &Command) -> Vec<&'static str> {
        let words = c.usage.split_whitespace();
        words.filter(|p| !p.starts_with(['[', '<'])).collect()
    }

    /// A command line naming `c` (first aliases, a value for a selecting
    /// flag, one operand), then `extra`.
    fn argv(c: &Command, extra: Option<&'static str>) -> Vec<String> {
        let mut argv = Vec::new();
        for part in name(c) {
            match part.strip_prefix("--") {
                Some(_) => argv.extend(given(part)),
                None => argv.extend(part.split('|').next()),
            }
        }
        if c.usage.contains(" <") {
            argv.push("x");
        }
        argv.extend(extra.map(given).unwrap_or_default());
        argv.into_iter().map(String::from).collect()
    }

    fn parsed(argv: &[String]) -> &'static Command {
        cli::parse(COMMANDS, argv)
            .unwrap_or_else(|e| panic!("{argv:?}: {e}"))
            .0
    }

    fn reads(c: &Command, flag: &str) -> bool {
        c.usage.contains(&format!("[{flag}]"))
    }

    fn selects(c: &Command, flag: &str) -> bool {
        name(c).contains(&flag)
    }

    #[test]
    fn every_entry_reads_its_flags_and_rejects_the_rest() {
        for c in COMMANDS {
            assert!(std::ptr::eq(parsed(&argv(c, None)), c), "{}", c.usage);
            for (flag, _) in FLAGS.into_iter().filter(|f| !selects(c, f.0)) {
                let argv = argv(c, Some(flag));
                let sibling = COMMANDS
                    .iter()
                    .find(|s| selects(s, flag) && name(s)[0] == name(c)[0]);
                if reads(c, flag) {
                    assert!(std::ptr::eq(parsed(&argv), c), "{argv:?}");
                } else if let Some(sibling) = sibling {
                    assert!(std::ptr::eq(parsed(&argv), sibling), "{argv:?}");
                } else {
                    let e = cli::parse(COMMANDS, &argv).expect_err(&argv.join(" "));
                    let named = format!(": {flag} is not read by this command\n");
                    assert!(
                        e.starts_with(&argv[0]) && e.contains(&named),
                        "{argv:?}: {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_flags_take_no_value_and_value_flags_need_one() {
        let probe = ["load", "--probe-only", "--seed", "7"].map(String::from);
        let (_, args) = cli::parse(COMMANDS, &probe).expect("probe-only");
        assert_eq!(args.seed, 7);
        let resume = ["campaign", "x", "--resume", "--state", "d"].map(String::from);
        let (_, args) = cli::parse(COMMANDS, &resume).expect("resume");
        assert!(args.resume && args.state.is_some());
        for (flag, _) in FLAGS.into_iter().filter(|f| !f.1.is_empty()) {
            let c = COMMANDS
                .iter()
                .find(|c| reads(c, flag) || selects(c, flag))
                .expect("every flag is read by some command");
            let mut argv = argv(c, None);
            if selects(c, flag) {
                argv.pop();
            } else {
                argv.push(flag.into());
            }
            let e = cli::parse(COMMANDS, &argv).expect_err(&argv.join(" "));
            assert!(e.starts_with(&format!("{flag} needs a value\n")), "{e}");
        }
    }

    #[test]
    fn json_is_read_by_exactly_the_commands_that_write_it() {
        let json: Vec<String> = COMMANDS
            .iter()
            .filter(|c| reads(c, "--json"))
            .map(|c| name(c).join(" "))
            .collect();
        let writers = [
            "matrix",
            "matrix_extended",
            "fault_matrix",
            "campaign",
            "campaign replay",
            "scale",
            "load",
            "matrix --topo",
        ];
        assert_eq!(json, writers);
    }

    #[test]
    fn usage_names_every_entry_on_indented_lines() {
        let text = cli::usage(COMMANDS);
        for c in COMMANDS {
            let line = format!("\n  {}\n", c.synopsis());
            assert!(text.contains(&line), "{}", c.usage);
        }
        for line in text.lines().skip(1) {
            assert!(line.starts_with(char::is_whitespace), "{line:?}");
        }
    }
}
