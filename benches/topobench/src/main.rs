//! The `topobench` command line.
//!
//! ```text
//! topobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! topobench suite [--seed N] [--seconds S] [--out FILE]
//! topobench compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload and prints its metrics, the last
//! line being one JSON object: end-to-end metrics untraced, per-layer
//! metrics with `--trace 1`. `suite` measures all four workloads both ways
//! and can save the samples for `compare`, which takes its bounds from
//! the repository's `BENCHMARK.json`.

use std::process::ExitCode;

use topobench::compare::compare;
use topobench::json::{self, JsonValue};
use topobench::measure::{measure, Series};
use topobench::rep::{run_rep, RepOutput};
use topobench::workloads::Workload;

const DEFAULT_SEED: u64 = 0xd52018;
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  topobench --workload <load-probe|flow-churn|fabric-soak|paper-matrix>
            [--seed N] [--seconds S] [--trace 0|1]
  topobench suite [--seed N] [--seconds S] [--out FILE]
  topobench compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => rep_cmd(&args[1..]),
        Some("suite") => suite_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => workload_cmd(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("topobench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                if !known.contains(&flag) {
                    return Err(format!("unknown flag `{a}`"));
                }
                let v = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
                flags.push((flag.to_string(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(DEFAULT_SEED), parse_seed)
    }

    fn seconds(&self) -> Result<u64, String> {
        match self.get("seconds") {
            None => Ok(DEFAULT_SECONDS),
            Some(s) => s
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad --seconds `{s}`")),
        }
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad seed `{s}`"))
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn print_series(workload: Workload, series: &[Series]) {
    for s in series {
        let sum = s.summary();
        println!(
            "{:<13} {:<40} {:>16.6} {:<6} [q1 {:.6}, q3 {:.6}, n={}]",
            workload.name(),
            s.name,
            sum.median,
            s.unit,
            sum.q1,
            sum.q3,
            sum.n
        );
    }
}

fn print_checks(workload: Workload, attempted: u64, failed: u64) {
    println!(
        "{:<13} {:<40} {:>16.6} {:<6} [{failed} of {attempted} checks failed]",
        workload.name(),
        "fail_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
}

fn workload_cmd(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = parse_workload(a.get("workload").ok_or("--workload is required")?)?;
    let trace = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace `{t}`")),
    };
    let m = measure(workload, a.seed()?, a.seconds()?, trace)?;
    let series = if trace { m.per_layer() } else { m.end_to_end() };
    let (attempted, failed) = m.checks();
    print_series(workload, &series);
    print_checks(workload, attempted, failed);
    let metrics = series
        .iter()
        .map(|s| {
            let value = JsonValue::object(vec![
                ("value", s.summary().median.into()),
                ("unit", s.unit.into()),
            ]);
            (s.name.clone(), value)
        })
        .collect();
    let line = JsonValue::object(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(true)
}

fn rep_cmd(args: &[String]) -> Result<bool, String> {
    let [workload, seed, traced] = args else {
        return Err("rep takes <workload> <seed> <0|1>".to_string());
    };
    let rep: RepOutput = run_rep(parse_workload(workload)?, parse_seed(seed)?, traced == "1")?;
    println!("{}", rep.to_json().to_compact());
    Ok(true)
}

fn series_json(series: &[Series]) -> JsonValue {
    JsonValue::Object(
        series
            .iter()
            .map(|s| (s.name.clone(), s.to_json()))
            .collect(),
    )
}

fn suite_cmd(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["seed", "seconds", "out"])?;
    let (seed, seconds) = (a.seed()?, a.seconds()?);
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let plain = measure(w, seed, seconds, false)?;
        let traced = measure(w, seed, seconds, true)?;
        let e2e = plain.end_to_end();
        let layers = traced.per_layer();
        let (pa, pf) = plain.checks();
        let (ta, tf) = traced.checks();
        let (attempted, failed) = (pa + ta, pf + tf);
        print_series(w, &e2e);
        print_series(w, &layers);
        print_checks(w, attempted, failed);
        all_correct &= failed == 0;
        workloads.push((
            w.name().to_string(),
            JsonValue::object(vec![
                ("correct", (failed == 0).into()),
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("end_to_end", series_json(&e2e)),
                ("per_layer", series_json(&layers)),
            ]),
        ));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let suite = JsonValue::object(vec![
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("available_parallelism", parallelism.into()),
        ("workloads", JsonValue::Object(workloads)),
    ]);
    if let Some(path) = a.get("out") {
        std::fs::write(path, suite.to_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The repository's `BENCHMARK.json`, which holds the bounds.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &[])?;
    let [left, right] = &a.positional[..] else {
        return Err("compare takes two suite files".to_string());
    };
    let bounds = read_json(BENCHMARK_JSON)?;
    let (table, any_worse) = compare(&read_json(left)?, &read_json(right)?, &bounds)?;
    print!("{table}");
    Ok(!any_worse)
}
