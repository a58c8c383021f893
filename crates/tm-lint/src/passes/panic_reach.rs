//! Panic-reachability: potentially-panicking sites on scenario-reachable
//! code paths.
//!
//! A panic mid-campaign loses every scenario after it, so library panics
//! are only acceptable behind an explicit invariant. The `unwrap-in-lib`
//! token rule already covers `.unwrap()`/`.expect()` in *all* lib code
//! (strictly broader than reachability, so this pass does not re-flag
//! them); this pass covers the panic classes a token matcher cannot see,
//! and only where they matter — in functions reachable from the scenario
//! entry set (`Simulator`'s public API plus `run`/`run_*` fns), computed
//! over the workspace call graph:
//!
//! * **indexing** — `recv[idx]` with a runtime index and no visible
//!   bound discipline (a `recv.len()` use or an assert mentioning the
//!   index in the same fn);
//! * **division/modulo** — `/` or `%` by a runtime value with no
//!   emptiness/zero guard (`is_empty`, an assert, or `.max(…)`);
//! * **narrowing casts** — `as u8/u16/u32/i8/i16/i32` with no mask,
//!   clamp, or assert on the source.
//!
//! `+`/`-`/`*` overflow is deliberately out of scope: it wraps in
//! release builds (no panic) and the debug-build invariants in
//! `netsim::engine` already exercise it under `debug_assertions`.
//! Extraction runs once per file; the cheap reachability closure then
//! runs over every file's extracted summaries.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::ast::Ast;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::{is_expr_keyword, summarize_expr};
use crate::rules::Diagnostic;

use super::{assert_guarded_idents, AnalyzedFile, CallFact, FnFact, PanicFact, Pass, Workspace};

/// Cast targets considered narrowing on a 64-bit sim host.
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// The panic-reachability pass (workspace-scoped).
pub struct PanicReach;

impl Pass for PanicReach {
    fn name(&self) -> &'static str {
        "panic-reachability"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["panic-reachability"]
    }

    fn needs_workspace(&self) -> bool {
        true
    }

    fn run(&self, unit: &AnalyzedFile, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for f in ws.reachable_fns(unit.rel) {
            for p in &f.panics {
                out.push(Diagnostic {
                    path: unit.rel.to_string(),
                    line: p.line,
                    rule: "panic-reachability",
                    message: format!("in scenario-reachable `{}`: {}", f.name, p.detail),
                });
            }
        }
        out
    }
}

/// Extracts the per-fn summaries (call edges + panic sites) from an
/// analyzed file. `#[cfg(test)]` fns are skipped entirely: they
/// are neither reachability sources nor panic subjects.
pub(crate) fn extract_fns(lexed: &Lexed, ast: &Ast) -> Vec<FnFact> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    ast.for_each_fn(&mut |def, impl_ty, cfg_test| {
        if cfg_test {
            return;
        }
        let mut fact = FnFact {
            name: def.name.clone(),
            line: def.line,
            impl_ty: impl_ty.map(str::to_string),
            is_pub: def.is_pub,
            calls: Vec::new(),
            panics: Vec::new(),
        };
        if let Some(body) = &def.body {
            fact.calls = extract_calls(toks, body.tokens.clone());
            fact.panics = extract_panics(toks, def, body);
        }
        out.push(fact);
    });
    out
}

/// Call edges in a body range, deduplicated.
fn extract_calls(toks: &[Tok], range: Range<usize>) -> Vec<CallFact> {
    let mut seen: BTreeSet<(Option<String>, String)> = BTreeSet::new();
    for j in range.clone() {
        let t = &toks[j];
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        if toks.get(j + 1).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        let qual = if j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
            Some(toks[j - 2].text.clone())
        } else {
            None
        };
        seen.insert((qual, t.text.clone()));
    }
    seen.into_iter()
        .map(|(qual, name)| CallFact { qual, name })
        .collect()
}

/// Division-semantics fns: `/` by their own operand *is* the contract
/// (std `Div` panics on zero by definition).
const DIV_FNS: &[&str] = &[
    "div",
    "rem",
    "div_assign",
    "rem_assign",
    "div_euclid",
    "rem_euclid",
];

/// Potentially-panicking sites in a fn body, with per-fn guard
/// recognition. The calibration, in order of application:
///
/// * fns whose signature mentions `f32`/`f64` skip the division check
///   entirely (float division yields inf/NaN, never a panic), as do the
///   [`DIV_FNS`] operator impls;
/// * SCREAMING_CASE roots are constants — a nonzero-const divisor or a
///   const-bounded cast source is compile-time visible;
/// * *bounded* identifiers — `for`-loop variables, values masked with
///   `& lit` / `% lit` / `>> lit`, and `let` bindings whose initializer
///   masks, clamps, or counts zeros — are accepted as index/cast/divisor
///   evidence;
/// * an assert mentioning the value, a `.len()`/`.get()`-family use of
///   the receiver, or an `is_empty` mention (division) also guard.
fn extract_panics(
    toks: &[Tok],
    def: &crate::ast::FnDef,
    body: &crate::ast::Body,
) -> Vec<PanicFact> {
    let range = body.tokens.clone();
    let mut out = Vec::new();
    let asserted = assert_guarded_idents(toks, range.clone());
    let (len_receivers, has_is_empty) = scan_guards(toks, range.clone());
    let bounded = bounded_idents(toks, body);
    let floaty = floaty_signature(toks, range.start);
    let div_fn = DIV_FNS.contains(&def.name.as_str());

    let mut j = range.start;
    while j < range.end {
        let text = toks[j].text.as_str();
        match text {
            "[" if is_postfix_pos(toks, j, range.start) => {
                let close = matching(toks, j, range.end, "[", "]");
                let idx = summarize_expr(toks, j + 1..close);
                let masked =
                    has_infix_mask(toks, j + 1..close) || idx.calls.iter().any(|c| c == "min");
                let recv = receiver_ident(toks, j, range.start);
                let guarded = masked
                    || idx.literal_only
                    || recv
                        .as_deref()
                        .is_some_and(|r| len_receivers.contains(r) || asserted.contains(r))
                    || idx
                        .idents
                        .iter()
                        .any(|id| asserted.contains(id) || bounded.contains(id));
                if !guarded {
                    let recv = recv.unwrap_or_else(|| "<expr>".to_string());
                    out.push(PanicFact {
                        line: toks[j].line,
                        detail: format!(
                            "`{recv}[…]` indexes with a runtime value and this fn never checks \
                             `{recv}.len()` or asserts the index; use .get() or guard the bound"
                        ),
                    });
                }
                j = close;
            }
            "/" | "%" if is_value_pos(toks, j, range.start) => {
                if floaty || div_fn {
                    j += 1;
                    continue;
                }
                let d0 = if toks.get(j + 1).map(|n| n.text.as_str()) == Some("=") {
                    j + 2
                } else {
                    j + 1
                };
                let dend = divisor_end(toks, d0, range.end);
                let div = summarize_expr(toks, d0..dend);
                let literal_divisor =
                    dend == d0 + 1 && toks.get(d0).is_some_and(|t| t.kind == TokKind::Literal);
                let guarded = is_float_context(toks, j, dend, range.start)
                    || literal_divisor
                    || div.idents.is_empty()
                    || has_is_empty
                    || div.calls.iter().any(|c| c == "max")
                    || div.idents.first().is_some_and(|r| is_const_name(r))
                    || div
                        .idents
                        .iter()
                        .any(|id| asserted.contains(id) || bounded.contains(id));
                if !guarded {
                    let root = div.idents.first().cloned().unwrap_or_default();
                    out.push(PanicFact {
                        line: toks[j].line,
                        detail: format!(
                            "`{text} {root}` divides by a runtime value with no zero/emptiness \
                             guard in this fn; assert it, `.max(1)` it, or use checked_div"
                        ),
                    });
                }
                j = dend.saturating_sub(1);
            }
            "as" if toks[j].kind == TokKind::Ident => {
                let Some(ty) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
                    j += 1;
                    continue;
                };
                if NARROW.contains(&ty.text.as_str()) {
                    if let Some(p) = vet_cast(toks, j, range.start, &ty.text, &asserted, &bounded) {
                        out.push(p);
                    }
                }
                j += 1;
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Checks one narrowing `as` cast; returns the panic fact if unguarded.
/// (Truncation does not panic, but it silently corrupts sim state the
/// same way an index panic would have surfaced loudly — the pass treats
/// both as reachable-path value bugs.)
fn vet_cast(
    toks: &[Tok],
    as_idx: usize,
    start: usize,
    ty: &str,
    asserted: &BTreeSet<String>,
    bounded: &BTreeSet<String>,
) -> Option<PanicFact> {
    let src = source_chain(toks, as_idx, start);
    if src.is_empty() {
        return None;
    }
    // Single-literal casts (`7u64 as u32`) are compile-time visible, and a
    // bare `self as uN` is an enum-discriminant read (bounded by repr).
    if src.len() == 1
        && toks[src.clone()]
            .first()
            .is_some_and(|t| t.kind == TokKind::Literal || t.text == "self")
    {
        return None;
    }
    let wide_ty = matches!(ty, "u32" | "i32");
    let mut root = None;
    for t in &toks[src.clone()] {
        match t.text.as_str() {
            // Masks, modulo, shifts, and comparison results are lossless
            // or bounded; `min`/`clamp` bound explicitly.
            "&" | "%" | ">" | "<" | "=" | "!" | "min" | "clamp" => return None,
            // `.len()` of in-memory data fits u32/i32 on these sims.
            "len" | "count" if wide_ty => return None,
            _ => {}
        }
        if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
            if asserted.contains(&t.text) || bounded.contains(&t.text) || is_const_name(&t.text) {
                return None;
            }
            root.get_or_insert_with(|| t.text.clone());
        }
    }
    let root = root?;
    Some(PanicFact {
        line: toks[as_idx].line,
        detail: format!(
            "`{root} as {ty}` truncates silently; mask (`& 0x…`), clamp (`.min(…)`), or assert \
             the bound before narrowing"
        ),
    })
}

/// Token range of the postfix chain ending just before the `as` at
/// `as_idx`: identifiers, literals, `.`/`::`/`?` links, and balanced
/// `(…)`/`[…]` groups, walking left until anything else.
fn source_chain(toks: &[Tok], as_idx: usize, start: usize) -> Range<usize> {
    let mut k = as_idx;
    while k > start {
        let p = &toks[k - 1];
        let step_to = match p.kind {
            TokKind::Ident if !is_expr_keyword(&p.text) => k - 1,
            TokKind::Literal => k - 1,
            _ => match p.text.as_str() {
                ")" => matching_back(toks, k - 1, start, "(", ")"),
                "]" => matching_back(toks, k - 1, start, "[", "]"),
                "." | "::" | "?" => k - 1,
                _ => break,
            },
        };
        k = step_to;
    }
    k..as_idx
}

/// Whether `[` at `j` is in postfix (indexing) position.
fn is_postfix_pos(toks: &[Tok], j: usize, start: usize) -> bool {
    if j <= start {
        return false;
    }
    let p = &toks[j - 1];
    match p.kind {
        TokKind::Ident => !is_expr_keyword(&p.text),
        _ => matches!(p.text.as_str(), ")" | "]" | "?"),
    }
}

/// Whether `/` or `%` at `j` is a binary operator (value on the left).
fn is_value_pos(toks: &[Tok], j: usize, start: usize) -> bool {
    if j <= start {
        return false;
    }
    let p = &toks[j - 1];
    match p.kind {
        TokKind::Ident => !is_expr_keyword(&p.text),
        TokKind::Literal => true,
        _ => matches!(p.text.as_str(), ")" | "]"),
    }
}

/// End of the divisor's primary expression: up to 10 tokens, stopping at
/// any depth-0 delimiter or operator.
fn divisor_end(toks: &[Tok], d0: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = d0;
    while k < end && k < d0 + 10 {
        match toks[k].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" | "}" if depth == 0 => break,
            ")" | "]" => depth -= 1,
            ";" | "," | "{" if depth == 0 => break,
            "+" | "-" | "*" | "/" | "%" | "<" | ">" | "=" | "&" | "|" if depth == 0 && k > d0 => {
                break
            }
            _ => {}
        }
        k += 1;
    }
    k.max(d0 + 1).min(end)
}

/// Whether a `/` sits in float arithmetic (floats never panic on zero):
/// an `f32`/`f64` type mention, a float literal, or an `_f64`-suffixed
/// name within a window around the operator.
fn is_float_context(toks: &[Tok], op: usize, dend: usize, start: usize) -> bool {
    let lo = op.saturating_sub(8).max(start);
    let hi = (dend + 3).min(toks.len());
    toks[lo..hi].iter().any(|t| {
        (t.kind == TokKind::Ident
            && (matches!(t.text.as_str(), "f32" | "f64") || t.text.ends_with("_f64")))
            || (t.kind == TokKind::Literal && is_float_literal(&t.text))
    })
}

fn is_float_literal(text: &str) -> bool {
    text.starts_with(|c: char| c.is_ascii_digit())
        && (text.contains('.') || text.ends_with("f32") || text.ends_with("f64"))
        && !text.starts_with("0x")
}

/// The nearest receiver identifier left of the `[` at `j` (walking over
/// one balanced `(…)`/`[…]` group and `.`/`?` chains).
fn receiver_ident(toks: &[Tok], j: usize, start: usize) -> Option<String> {
    let mut k = j;
    while k > start {
        k -= 1;
        match toks[k].text.as_str() {
            ")" => k = matching_back(toks, k, start, "(", ")"),
            "]" => k = matching_back(toks, k, start, "[", "]"),
            "?" | "." => {}
            _ => {
                let t = &toks[k];
                if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
                    return Some(t.text.clone());
                }
                return None;
            }
        }
    }
    None
}

/// Index of the `open` matching the `close` at `k`, walking backwards.
fn matching_back(toks: &[Tok], k: usize, start: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut i = k;
    loop {
        if toks[i].text == close {
            depth += 1;
        } else if toks[i].text == open {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        if i == start {
            return i;
        }
        i -= 1;
    }
}

/// Index of the `close` matching the `open` at `j` (clamped to `end`).
fn matching(toks: &[Tok], j: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut k = j;
    while k < end {
        if toks[k].text == open {
            depth += 1;
        } else if toks[k].text == close {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    end
}

/// Per-fn guard survey: receivers with a `.len()` use, and whether the
/// body mentions `is_empty` at all.
fn scan_guards(toks: &[Tok], range: Range<usize>) -> (BTreeSet<String>, bool) {
    let mut len_receivers = BTreeSet::new();
    let mut has_is_empty = false;
    for j in range.clone() {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "is_empty" {
            has_is_empty = true;
        }
        if matches!(
            t.text.as_str(),
            "len" | "iter" | "get" | "contains_key" | "keys" | "values"
        ) && j >= 2
            && toks[j - 1].text == "."
            && toks[j - 2].kind == TokKind::Ident
        {
            len_receivers.insert(toks[j - 2].text.clone());
        }
    }
    (len_receivers, has_is_empty)
}

/// Whether an index-expression range contains a depth-insensitive mask:
/// an infix `&` (bitwise and), `%` (modulo), or `>>` (shift) — any of
/// which bounds the resulting value.
fn has_infix_mask(toks: &[Tok], range: Range<usize>) -> bool {
    for j in range.clone() {
        match toks[j].text.as_str() {
            "&" if j > range.start => return true,
            "%" => return true,
            ">" if toks.get(j + 1).map(|n| n.text.as_str()) == Some(">") => return true,
            _ => {}
        }
    }
    false
}

/// SCREAMING_CASE names are constants; a const divisor or cast source is
/// compile-time visible, so the pass trusts it.
fn is_const_name(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Whether the fn signature preceding the body mentions `f32`/`f64`:
/// such fns do float arithmetic, where division never panics. Walks
/// back from the body start to the `fn` keyword (bounded scan).
fn floaty_signature(toks: &[Tok], body_start: usize) -> bool {
    let lo = body_start.saturating_sub(300);
    let mut fn_at = None;
    let mut k = body_start;
    while k > lo {
        k -= 1;
        if toks[k].kind == TokKind::Ident && toks[k].text == "fn" {
            fn_at = Some(k);
            break;
        }
    }
    let Some(fn_at) = fn_at else { return false };
    toks[fn_at..body_start]
        .iter()
        .any(|t| t.kind == TokKind::Ident && matches!(t.text.as_str(), "f32" | "f64"))
}

/// Identifiers with visible bound discipline anywhere in the fn:
///
/// * `for` loop variables (bounded by the iterated range/collection);
/// * identifiers immediately masked in place — `x & …`, `x % …`,
///   `x >> …`;
/// * `let` bindings whose initializer masks (`&`/`%`) or calls a
///   bounding method (`min`, `clamp`, `trailing_zeros`, `leading_zeros`).
fn bounded_idents(toks: &[Tok], body: &crate::ast::Body) -> BTreeSet<String> {
    let range = body.tokens.clone();
    let mut out = BTreeSet::new();
    for j in range.clone() {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "for" {
            // Collect the loop pattern's identifiers up to `in`.
            for p in &toks[j + 1..(j + 9).min(range.end)] {
                if p.text == "in" {
                    break;
                }
                if p.kind == TokKind::Ident && !is_expr_keyword(&p.text) {
                    out.insert(p.text.clone());
                }
            }
            continue;
        }
        if is_expr_keyword(&t.text) {
            continue;
        }
        // `x & …` / `x % …` / `x >> …`: the masked value is the ident's
        // own use, so later uses of the same local are accepted too —
        // a heuristic, but one that errs only on intra-fn reuse.
        match toks.get(j + 1).map(|n| n.text.as_str()) {
            Some("&") | Some("%") => {
                out.insert(t.text.clone());
            }
            Some(">") if toks.get(j + 2).map(|n| n.text.as_str()) == Some(">") => {
                out.insert(t.text.clone());
            }
            _ => {}
        }
    }
    const BOUNDING_CALLS: &[&str] = &["min", "clamp", "trailing_zeros", "leading_zeros"];
    for bind in &body.lets {
        let Some(init) = &bind.init else { continue };
        // Only short initializers count: a `&` buried in a 100-token
        // match arm says nothing about the bound names.
        if init.tokens.len() > 40 {
            continue;
        }
        let masked = toks[init.tokens.clone()]
            .iter()
            .any(|t| matches!(t.text.as_str(), "&" | "%"))
            || init
                .calls
                .iter()
                .any(|c| BOUNDING_CALLS.contains(&c.as_str()));
        if masked {
            for name in &bind.names {
                out.insert(name.clone());
            }
        }
    }
    out
}
