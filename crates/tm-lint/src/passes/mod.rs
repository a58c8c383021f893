//! The pass framework: every lint is a [`Pass`] run over analyzed files.
//!
//! Two kinds of pass exist, distinguished by what they can see:
//!
//! * **Local passes** (token rules, seed-taint, telemetry-names) see one
//!   file's tokens and item tree. Their diagnostics depend only on file
//!   content, so they run while the file is analyzed.
//! * **Workspace passes** (panic-reachability) see the whole-workspace
//!   [`Workspace`] summary — the symbol index and call graph built from
//!   every file's [`FnFact`]s — and run once every file is analyzed,
//!   over the distilled facts alone.
//!
//! The stale-allow ratchet is not a pass: it is part of diagnostic
//! assembly in [`crate::rules`], because it needs to observe which allow
//! directives ended up suppressing nothing after *all* passes ran.

pub mod panic_reach;
pub mod seed_taint;
pub mod telemetry_names;
pub mod tokens;

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::Ast;
use crate::lexer::Lexed;
use crate::rules::Diagnostic;

/// One analyzed file as seen by a pass. Local passes get the lexed
/// tokens and item tree; workspace passes get only the distilled facts,
/// which is all they need.
pub struct AnalyzedFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Token stream — `None` for workspace passes.
    pub lexed: Option<&'a Lexed>,
    /// Item tree — `None` for workspace passes.
    pub ast: Option<&'a Ast>,
    /// Function summaries extracted from this file.
    pub fns: &'a [FnFact],
}

/// A lint pass. `run` returns raw diagnostics; tier deny-filtering and
/// allow-directive accounting happen in the engine, not in passes.
pub trait Pass {
    /// Stable pass name, used for per-pass stats in `TM_LINT_JSON`.
    fn name(&self) -> &'static str;
    /// The rule names this pass can emit.
    fn rules(&self) -> &'static [&'static str];
    /// Whether the pass needs the whole-workspace view (and so runs at
    /// assembly time over distilled facts rather than at analysis time).
    fn needs_workspace(&self) -> bool {
        false
    }
    /// Runs the pass over one file.
    fn run(&self, unit: &AnalyzedFile, ws: &Workspace) -> Vec<Diagnostic>;
}

/// All passes, in execution order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(tokens::TokenRules),
        Box::new(seed_taint::SeedTaint),
        Box::new(telemetry_names::TelemetryNames),
        Box::new(panic_reach::PanicReach),
    ]
}

/// A summarized function: what the workspace symbol index stores per fn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Enclosing `impl` type head, if the fn is a method.
    pub impl_ty: Option<String>,
    /// Whether the fn has `pub` visibility.
    pub is_pub: bool,
    /// Outgoing calls, in source order.
    pub calls: Vec<CallFact>,
    /// Potentially-panicking sites found in the body.
    pub panics: Vec<PanicFact>,
}

/// One call site: `Foo::bar(…)` keeps the `Foo` qualifier for sharper
/// symbol resolution; `.bar(…)` and `bar(…)` have none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// Path qualifier immediately before `::name(`, when present.
    pub qual: Option<String>,
    /// Called fn/method name.
    pub name: String,
}

/// One potentially-panicking site, message prebuilt at extraction time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFact {
    /// 1-indexed line.
    pub line: u32,
    /// Full diagnostic message.
    pub detail: String,
}

/// A well-formed allow directive, reduced to what suppression accounting
/// needs. Malformed directives never get this far — they are already
/// `bad-directive` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirFact {
    /// 1-indexed line of the directive.
    pub line: u32,
    /// Whether this is `allow-file` (whole file).
    pub file_scope: bool,
    /// Rules the directive allows.
    pub rules: Vec<String>,
    /// Lines the directive covers (empty for file scope).
    pub covered: Vec<u32>,
}

/// A raw (pre-allow-filtering) diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiag {
    /// Rule name (interned — one of [`crate::rules::rule_names`]).
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Everything the engine needs to assemble a file's report once its
/// tokens and item tree are dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Raw diagnostics from local passes, already tier-deny-filtered.
    pub raw: Vec<RawDiag>,
    /// Well-formed allow directives.
    pub dirs: Vec<DirFact>,
    /// Function summaries (non-`cfg(test)` fns only).
    pub fns: Vec<FnFact>,
}

/// The whole-workspace view: a symbol index over every file's functions
/// and the scenario-reachability closure computed from it.
///
/// Resolution is name-based and deliberately over-approximate: a call
/// `Foo::bar(…)` resolves to fns named `bar` in `impl Foo` blocks (or
/// any `bar` when no such impl exists); `.bar(…)`/`bar(…)` resolve to
/// every fn named `bar`. Over-approximation is the safe direction for a
/// reachability *lint* — it can only widen the checked set.
#[derive(Debug, Default)]
pub struct Workspace {
    fns: Vec<(String, FnFact)>, // (rel path, fact)
    reachable: Vec<bool>,
}

impl Workspace {
    /// An empty workspace, for running local passes at analysis time.
    pub fn empty() -> Workspace {
        Workspace::default()
    }

    /// Builds the index and computes the reachability closure from the
    /// entry set: `Simulator`'s public API plus every `run`/`run_*` fn.
    pub fn build(files: &[(String, &FileFacts)]) -> Workspace {
        let mut fns: Vec<(String, FnFact)> = Vec::new();
        for (rel, facts) in files {
            for f in &facts.fns {
                fns.push((rel.clone(), f.clone()));
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, (_, f)) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            if let Some(ty) = &f.impl_ty {
                by_qual
                    .entry((ty.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
            }
        }
        let mut reachable = vec![false; fns.len()];
        let mut queue: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, (_, f))| is_entry(f))
            .map(|(i, _)| i)
            .collect();
        for &i in &queue {
            reachable[i] = true;
        }
        while let Some(i) = queue.pop() {
            // Worklist over the call edges of fn `i`.
            let calls = fns[i].1.calls.clone();
            for call in calls {
                let targets: &[usize] = match &call.qual {
                    Some(q) => by_qual
                        .get(&(q.as_str(), call.name.as_str()))
                        .map(Vec::as_slice)
                        .unwrap_or_else(|| {
                            by_name
                                .get(call.name.as_str())
                                .map(Vec::as_slice)
                                .unwrap_or(&[])
                        }),
                    None => by_name
                        .get(call.name.as_str())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                };
                for &t in targets {
                    if !reachable[t] {
                        reachable[t] = true;
                        queue.push(t);
                    }
                }
            }
        }
        Workspace { fns, reachable }
    }

    /// Iterates the reachable fns of one file.
    pub fn reachable_fns<'a>(&'a self, rel: &'a str) -> impl Iterator<Item = &'a FnFact> + 'a {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(i, (r, _))| self.reachable[*i] && r == rel)
            .map(|(_, (_, f))| f)
    }

    /// Whether a fn (by file and name) is scenario-reachable. Used by the
    /// fixture tests.
    pub fn is_reachable(&self, rel: &str, name: &str) -> bool {
        self.fns
            .iter()
            .enumerate()
            .any(|(i, (r, f))| self.reachable[i] && r == rel && f.name == name)
    }

    /// Total number of indexed fns.
    pub fn fn_count(&self) -> usize {
        self.fns.len()
    }
}

/// The scenario entry set: `Simulator`'s public API plus scenario
/// `run*` functions.
fn is_entry(f: &FnFact) -> bool {
    (f.is_pub && f.impl_ty.as_deref() == Some("Simulator"))
        || f.name == "run"
        || f.name.starts_with("run_")
}

/// Shared helper: the set of identifiers appearing inside the argument
/// lists of `assert!`-family macros in a body token range. Both flow
/// passes treat an assert that mentions a value as a guard on it.
pub(crate) fn assert_guarded_idents(
    toks: &[crate::lexer::Tok],
    range: std::ops::Range<usize>,
) -> BTreeSet<String> {
    use crate::lexer::TokKind;
    let mut out = BTreeSet::new();
    let mut j = range.start;
    while j < range.end {
        let t = &toks[j];
        let is_assert = t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "assert"
                    | "assert_eq"
                    | "assert_ne"
                    | "debug_assert"
                    | "debug_assert_eq"
                    | "debug_assert_ne"
            );
        if is_assert
            && toks.get(j + 1).map(|n| n.text.as_str()) == Some("!")
            && toks.get(j + 2).map(|n| n.text.as_str()) == Some("(")
        {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < range.end {
                match toks[k].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if toks[k].kind == TokKind::Ident {
                    out.insert(toks[k].text.clone());
                }
                k += 1;
            }
            j = k;
        }
        j += 1;
    }
    out
}
