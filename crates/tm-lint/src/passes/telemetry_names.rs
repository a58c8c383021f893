//! Telemetry-name conformance: metric names must live in a registered
//! namespace.
//!
//! `tm-telemetry` registers metrics lazily by name, so a typo'd name
//! (`netsmi.switch.tx_frames`) is not an error — it just creates a fresh
//! metric nobody reads, and the real one silently stays at zero. This
//! pass checks every literal name handed to a telemetry write call or
//! handle constructor against the registered namespaces and a strict
//! lexical shape: `namespace.component.metric` in `[a-z0-9_]` segments.
//! Hot paths therefore resolve each handle from a literal (one
//! `counter_handle("netsim.event.<kind>")` per event kind, not a name
//! computed from the event), so every name the simulator writes is
//! checked here.
//!
//! The namespace registry mirrors the crates that own sim-visible
//! metrics: `netsim.*` (engine/links/switches/hosts/faults),
//! `controller.*` (discovery, LLDP, host tracking), `traffic.*` (the
//! flow-level traffic engine's offered/aggregated/expanded accounting),
//! and the detector namespaces `topoguard.*` / `sphinx.*` / `ids.*`.

use crate::lexer::TokKind;
use crate::rules::Diagnostic;

use super::tokens::test_code_ranges;
use super::{AnalyzedFile, Pass, Workspace};

/// The tm-telemetry write API and the handle constructors hot paths
/// resolve their metrics through: first argument is the metric name.
const METHODS: &[&str] = &[
    "counter_inc",
    "counter_add",
    "counter_set",
    "gauge_set",
    "observe_ns",
    "counter_handle",
    "histogram_handle",
];

/// Registered metric namespaces.
const NAMESPACES: &[&str] = &[
    "netsim",
    "controller",
    "topoguard",
    "sphinx",
    "ids",
    "traffic",
];

/// The telemetry-name conformance pass.
pub struct TelemetryNames;

impl Pass for TelemetryNames {
    fn name(&self) -> &'static str {
        "telemetry-names"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["telemetry-names"]
    }

    fn run(&self, unit: &AnalyzedFile, _ws: &Workspace) -> Vec<Diagnostic> {
        let Some(lexed) = unit.lexed else {
            return Vec::new();
        };
        let toks = &lexed.tokens;
        let excluded = test_code_ranges(toks);
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !METHODS.contains(&t.text.as_str()) {
                continue;
            }
            // Skip the method *definitions* in tm-telemetry itself.
            if i > 0 && toks[i - 1].text == "fn" {
                continue;
            }
            if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
                continue;
            }
            // Only literal names are checkable; dynamic names pass through.
            let Some(arg) = toks.get(i + 2) else { continue };
            if arg.kind != TokKind::Literal || !arg.text.starts_with('"') {
                continue;
            }
            if excluded.iter().any(|r| r.contains(&i)) {
                continue;
            }
            let name = arg.text.trim_matches('"');
            if let Some(problem) = vet_name(name) {
                out.push(Diagnostic {
                    path: unit.rel.to_string(),
                    line: t.line,
                    rule: "telemetry-names",
                    message: format!("metric name \"{name}\" {problem}"),
                });
            }
        }
        out
    }
}

/// Validates one metric name; returns the problem description if bad.
fn vet_name(name: &str) -> Option<String> {
    let mut segs = name.split('.');
    let ns = segs.next().unwrap_or("");
    if !NAMESPACES.contains(&ns) {
        return Some(format!(
            "is outside the registered namespaces ({}); a typo'd namespace creates a metric \
             nobody reads",
            NAMESPACES.join(", ")
        ));
    }
    let rest: Vec<&str> = segs.collect();
    if rest.is_empty() {
        return Some("has no component/metric segments after the namespace".to_string());
    }
    for seg in rest {
        if seg.is_empty() {
            return Some("has an empty dot-separated segment".to_string());
        }
        if !seg
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Some(format!(
                "segment `{seg}` is not snake_case ([a-z0-9_] only)"
            ));
        }
    }
    None
}
