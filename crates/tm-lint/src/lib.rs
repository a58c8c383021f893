//! # tm-lint — the workspace determinism linter
//!
//! Every result this workspace reproduces depends on the simulation being
//! a pure function of `(scenario, seed)`. This crate enforces that
//! contract statically with a multi-pass analysis framework — a
//! hand-rolled lexer, a recursive-descent item parser, and a workspace
//! symbol index (no syn, no proc-macro: the linter guards the hermetic
//! build so it is itself hermetic). Passes, in two scopes:
//!
//! **Local (token) rules** — single-site pattern matches:
//!
//! * **wall-clock** — `Instant` / `SystemTime` outside the bench
//!   harness's allowed timing sites;
//! * **unordered-collections** — `HashMap` / `HashSet` in sim-visible
//!   state (hash iteration order is seed- and layout-dependent);
//! * **unseeded-rng** — any entropy not forked from the seeded `tm-rand`
//!   root;
//! * **threads** — threads, channels and locks in sim crates;
//! * **float-ordering** — `partial_cmp` in event-ordering paths;
//! * **unwrap-in-lib** — `.unwrap()` / `.expect()` in library code.
//!
//! **Flow-aware passes** — built on the item tree and symbol index:
//!
//! * **seed-taint** — every RNG construction must be data-flow-reachable
//!   from a scenario seed via `fork`/`stream`/`stream_seed` chains;
//! * **panic-reachability** — unguarded indexing, division, and
//!   narrowing casts in code reachable from the scenario entry set;
//! * **telemetry-names** — metric names must live in registered
//!   namespaces;
//! * **stale-allow** — an allow directive that suppresses nothing is
//!   itself an error (suppressions only ratchet down).
//!
//! Tiers and their rule sets live in `tm-lint.toml` at the workspace
//! root. Exceptions are only possible inline —
//! `// tm-lint: allow(<rule>) -- <reason>` — so every one is written down
//! and greppable. The same contract is checked dynamically by the
//! `debug_assertions` invariants in `netsim::engine` — see DESIGN.md
//! §"Determinism contract".

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub mod ast;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;
pub mod timing;

pub use config::Config;
pub use rules::{Diagnostic, FileReport};

use passes::{AnalyzedFile, FileFacts, RawDiag, Workspace};
use timing::Stopwatch;

/// Directory names never scanned: test/bench/example code is exempt from
/// the contract (it is not sim-visible state), and fixtures are lint food.
const SKIP_DIRS: &[&str] = &[".git", "target", "tests", "examples", "benches", "fixtures"];

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files: u64,
    /// All surviving diagnostics, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressed-diagnostic counts per rule.
    pub allowed: BTreeMap<&'static str, u64>,
    /// Wall time per pass, microseconds (`parse` covers lex+parse+fact
    /// extraction).
    pub pass_wall_us: BTreeMap<&'static str, u64>,
    /// Total wall time of the lint run, milliseconds.
    pub wall_ms: u64,
}

impl Report {
    fn absorb(&mut self, file: FileReport) {
        self.diagnostics.extend(file.diagnostics);
        for (rule, n) in file.allowed {
            *self.allowed.entry(rule).or_default() += n;
        }
    }

    /// Total suppression count.
    pub fn allowed_total(&self) -> u64 {
        self.allowed.values().sum()
    }

    /// The machine-readable summary line (`TM_LINT_JSON {...}`), the same
    /// convention as the bench harness's `BENCH_JSON` records so future
    /// tooling can track rule counts over time. Keys are sorted; the
    /// schema always lists every rule and every pass.
    pub fn summary_json(&self) -> String {
        let mut denied: BTreeMap<&str, u64> = BTreeMap::new();
        for d in &self.diagnostics {
            *denied.entry(d.rule).or_default() += 1;
        }
        let rules_json = rules::rule_names()
            .iter()
            .map(|rule| {
                format!(
                    "\"{rule}\":{{\"allowed\":{},\"denied\":{}}}",
                    self.allowed.get(rule).copied().unwrap_or(0),
                    denied.get(rule).copied().unwrap_or(0),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let passes_json = passes::all_passes()
            .iter()
            .map(|p| {
                let denied: u64 = p
                    .rules()
                    .iter()
                    .map(|r| denied.get(r).copied().unwrap_or(0))
                    .sum();
                format!(
                    "\"{}\":{{\"denied\":{denied},\"wall_us\":{}}}",
                    p.name(),
                    self.pass_wall_us.get(p.name()).copied().unwrap_or(0),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "TM_LINT_JSON {{\"allowed\":{},\"diagnostics\":{},\"files\":{},\"passes\":{{{passes_json}}},\"rules\":{{{rules_json}}},\"wall_ms\":{}}}",
            self.allowed_total(),
            self.diagnostics.len(),
            self.files,
            self.wall_ms,
        )
    }
}

/// Analyzes one file from source: lex, parse, extract fn facts, vet
/// directives, and run every local pass (keeping only `deny`-listed
/// rules). The result is the file's [`FileFacts`], all the workspace
/// pass and report assembly need of it.
fn analyze_source(
    rel: &str,
    src: &str,
    deny: &BTreeSet<&str>,
    timers: &mut BTreeMap<&'static str, u64>,
) -> FileFacts {
    let sw = Stopwatch::start();
    let lexed = lexer::lex(src);
    let ast = parser::parse(&lexed.tokens);
    let fns = passes::panic_reach::extract_fns(&lexed, &ast);
    *timers.entry("parse").or_default() += sw.elapsed_us();

    let mut facts = FileFacts {
        raw: Vec::new(),
        dirs: Vec::new(),
        fns,
    };

    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    for d in &lexed.directives {
        match rules::vet_directive(d) {
            Err(problem) => facts.raw.push(RawDiag {
                rule: "bad-directive",
                line: d.line,
                message: problem,
            }),
            Ok(()) => facts.dirs.push(passes::DirFact {
                line: d.line,
                file_scope: d.file_scope,
                rules: d.rules.clone(),
                covered: if d.file_scope {
                    Vec::new()
                } else if token_lines.contains(&d.line) {
                    vec![d.line]
                } else {
                    vec![d.line, d.line + 1]
                },
            }),
        }
    }

    let unit = AnalyzedFile {
        rel,
        lexed: Some(&lexed),
        ast: Some(&ast),
        fns: &facts.fns,
    };
    let ws = Workspace::empty();
    for pass in passes::all_passes() {
        if pass.needs_workspace() {
            continue;
        }
        let sw = Stopwatch::start();
        for d in pass.run(&unit, &ws) {
            if deny.contains(d.rule) {
                facts.raw.push(RawDiag {
                    rule: d.rule,
                    line: d.line,
                    message: d.message,
                });
            }
        }
        *timers.entry(pass.name()).or_default() += sw.elapsed_us();
    }
    facts
}

/// Runs the workspace passes for one file's facts and assembles its final
/// report (allow accounting + stale-allow ratchet).
fn finish_file(
    rel: &str,
    facts: &FileFacts,
    deny: &BTreeSet<&str>,
    ws: &Workspace,
    timers: &mut BTreeMap<&'static str, u64>,
) -> FileReport {
    let unit = AnalyzedFile {
        rel,
        lexed: None,
        ast: None,
        fns: &facts.fns,
    };
    let mut ws_diags = Vec::new();
    for pass in passes::all_passes() {
        if !pass.needs_workspace() {
            continue;
        }
        let sw = Stopwatch::start();
        ws_diags.extend(
            pass.run(&unit, ws)
                .into_iter()
                .filter(|d| deny.contains(d.rule)),
        );
        *timers.entry(pass.name()).or_default() += sw.elapsed_us();
    }
    rules::assemble(rel, facts, ws_diags)
}

/// Lints one source string with an explicit deny set — the single-file
/// entry point used by unit tests. The workspace index covers just this
/// file.
pub fn check_source(rel: &str, src: &str, deny: &BTreeSet<&str>) -> FileReport {
    let mut timers = BTreeMap::new();
    let facts = analyze_source(rel, src, deny, &mut timers);
    let ws = Workspace::build(&[(rel.to_string(), &facts)]);
    finish_file(rel, &facts, deny, &ws, &mut timers)
}

/// Lints the whole workspace rooted at `root` (which must contain
/// `tm-lint.toml`). Files not covered by any tier are themselves
/// diagnostics: the tier map stays total as crates are added.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let total = Stopwatch::start();
    let cfg_path = root.join("tm-lint.toml");
    let text = fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text)?;

    let mut files = Vec::new();
    walk(root, &mut files).map_err(|e| format!("walk failed: {e}"))?;
    files.sort();

    let mut report = Report::default();
    let mut timers: BTreeMap<&'static str, u64> = BTreeMap::new();
    // (rel, facts, deny set) for every tier-covered file.
    let mut analyzed: Vec<(String, FileFacts, BTreeSet<&str>)> = Vec::new();
    for file in files {
        let rel = rel_path(root, &file);
        report.files += 1;
        let Some((_tier, tier)) = cfg.tier_for(&rel) else {
            report.diagnostics.push(Diagnostic {
                path: rel.clone(),
                line: 1,
                rule: "bad-directive",
                message: "file is not covered by any tier in tm-lint.toml; add it to the tier map"
                    .to_string(),
            });
            continue;
        };
        let deny: BTreeSet<&str> = tier.deny.iter().map(String::as_str).collect();
        let src = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let facts = analyze_source(&rel, &src, &deny, &mut timers);
        analyzed.push((rel, facts, deny));
    }

    let sw = Stopwatch::start();
    let index: Vec<(String, &FileFacts)> = analyzed
        .iter()
        .map(|(rel, facts, _)| (rel.clone(), facts))
        .collect();
    let ws = Workspace::build(&index);
    *timers.entry("panic-reachability").or_default() += sw.elapsed_us();

    for (rel, facts, deny) in &analyzed {
        report.absorb(finish_file(rel, facts, deny, &ws, &mut timers));
    }

    report.pass_wall_us = timers;
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report.wall_ms = total.elapsed_ms();
    Ok(report)
}

/// Lints explicit files with every non-meta rule denied (sim-core
/// strictness). Used by `tm-lint <file>…` and the fixture tests.
pub fn lint_files_strict(root: &Path, files: &[PathBuf]) -> Result<Report, String> {
    let deny: BTreeSet<&str> = rules::rule_names()
        .iter()
        .copied()
        .filter(|r| !rules::meta_rules().contains(r))
        .collect();
    let mut report = Report::default();
    let mut timers = BTreeMap::new();
    let mut analyzed: Vec<(String, FileFacts)> = Vec::new();
    for file in files {
        let rel = rel_path(root, file);
        let src =
            fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        report.files += 1;
        let facts = analyze_source(&rel, &src, &deny, &mut timers);
        analyzed.push((rel, facts));
    }
    let index: Vec<(String, &FileFacts)> = analyzed
        .iter()
        .map(|(rel, facts)| (rel.clone(), facts))
        .collect();
    let ws = Workspace::build(&index);
    for (rel, facts) in &analyzed {
        report.absorb(finish_file(rel, facts, &deny, &ws, &mut timers));
    }
    report.pass_wall_us = timers;
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
