//! The rule registry and the diagnostic assembler.
//!
//! Passes (see [`crate::passes`]) produce raw diagnostics; this module
//! owns everything that happens after: directive vetting, allow
//! accounting, and the **stale-allow ratchet** — an allow directive that
//! suppresses zero diagnostics is itself an error, so the suppression
//! set can only shrink over time.

use std::collections::BTreeMap;

use crate::lexer::Directive;
use crate::passes::{DirFact, FileFacts};

/// All rule names, in the order they are reported. `stale-allow` and
/// `bad-directive` are meta-rules (the linter checking its own
/// suppression machinery): always active, never suppressible, and not
/// valid in tier deny lists or allow directives.
pub fn rule_names() -> &'static [&'static str] {
    &[
        "wall-clock",
        "unordered-collections",
        "unseeded-rng",
        "threads",
        "float-ordering",
        "unwrap-in-lib",
        "seed-taint",
        "panic-reachability",
        "telemetry-names",
        "stale-allow",
        "bad-directive",
    ]
}

/// The meta-rules: diagnostics about the lint machinery itself.
pub fn meta_rules() -> &'static [&'static str] {
    &["stale-allow", "bad-directive"]
}

/// Interns a rule name to its `&'static str` form.
pub fn intern(name: &str) -> Option<&'static str> {
    rule_names().iter().find(|r| **r == name).copied()
}

/// One finding: a denied construct at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule name (one of [`rule_names`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders in the `path:line: deny(rule): message` compiler style.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: deny({}): {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Per-file lint outcome: surviving diagnostics plus suppression counts.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Diagnostics not covered by an allow directive.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of diagnostics suppressed per rule.
    pub allowed: BTreeMap<&'static str, u64>,
}

/// Checks a directive is well-formed: parseable, known non-meta rules,
/// non-empty reason. Returns the problem text if not.
pub(crate) fn vet_directive(d: &Directive) -> Result<(), String> {
    if d.malformed {
        return Err("malformed directive (expected `tm-lint: allow(<rules>) -- <reason>`)".into());
    }
    if d.reason.is_empty() {
        return Err("allow directive without a written reason (`-- <why>` is mandatory)".into());
    }
    if let Some(unknown) = d
        .rules
        .iter()
        .find(|r| !rule_names().contains(&r.as_str()) || meta_rules().contains(&r.as_str()))
    {
        return Err(format!("allow directive names unknown rule `{unknown}`"));
    }
    if d.rules.is_empty() {
        return Err("allow directive lists no rules".into());
    }
    Ok(())
}

/// Assembles a file's final report from its distilled facts plus the
/// workspace-pass diagnostics for it: applies allow directives, counts
/// what each suppressed, and turns zero-credit directive rules into
/// `stale-allow` diagnostics.
pub fn assemble(path: &str, facts: &FileFacts, ws_diags: Vec<Diagnostic>) -> FileReport {
    let mut report = FileReport::default();

    // Credit table: (directive index, rule) -> suppression count.
    let mut credit: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for (di, dir) in facts.dirs.iter().enumerate() {
        for rule in &dir.rules {
            credit.insert((di, rule.as_str()), 0);
        }
    }

    let all = facts
        .raw
        .iter()
        .map(|r| Diagnostic {
            path: path.to_string(),
            line: r.line,
            rule: r.rule,
            message: r.message.clone(),
        })
        .chain(ws_diags);
    for diag in all {
        if meta_rules().contains(&diag.rule) {
            report.diagnostics.push(diag);
            continue;
        }
        match covering_directive(&facts.dirs, diag.line, diag.rule) {
            Some(di) => {
                *credit.entry((di, diag.rule)).or_default() += 1;
                *report.allowed.entry(diag.rule).or_default() += 1;
            }
            None => report.diagnostics.push(diag),
        }
    }

    for (di, dir) in facts.dirs.iter().enumerate() {
        let dead: Vec<&str> = dir
            .rules
            .iter()
            .map(String::as_str)
            .filter(|rule| credit.get(&(di, *rule)).copied().unwrap_or(0) == 0)
            .collect();
        if !dead.is_empty() {
            report.diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: dir.line,
                rule: "stale-allow",
                message: format!(
                    "allow({}) suppresses no diagnostics; delete it (the suppression set only \
                     ratchets down)",
                    dead.join(", ")
                ),
            });
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

/// The first directive covering `(line, rule)`: line-scoped directives
/// win over `allow-file`, earlier directives over later ones.
fn covering_directive(dirs: &[DirFact], line: u32, rule: &str) -> Option<usize> {
    let hit = |d: &DirFact| d.rules.iter().any(|r| r == rule);
    dirs.iter()
        .position(|d| !d.file_scope && hit(d) && d.covered.contains(&line))
        .or_else(|| dirs.iter().position(|d| d.file_scope && hit(d)))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::check_source;

    fn run(src: &str) -> FileReport {
        let deny: BTreeSet<&str> = rule_names()
            .iter()
            .copied()
            .filter(|r| !meta_rules().contains(r))
            .collect();
        check_source("mem.rs", src, &deny)
    }

    #[test]
    fn each_token_rule_fires() {
        let cases = [
            ("let t = Instant::now();", "wall-clock"),
            ("use std::time::SystemTime;", "wall-clock"),
            (
                "let m: HashMap<u32, u32> = HashMap::new();",
                "unordered-collections",
            ),
            ("let r = thread_rng();", "unseeded-rng"),
            ("std::thread::spawn(|| {});", "threads"),
            ("let l = Mutex::new(0);", "threads"),
            ("a.partial_cmp(&b)", "float-ordering"),
            ("let v = x.unwrap();", "unwrap-in-lib"),
            ("let v = x.expect(\"msg\");", "unwrap-in-lib"),
        ];
        for (src, rule) in cases {
            let rep = run(src);
            assert!(
                rep.diagnostics.iter().any(|d| d.rule == rule),
                "{src:?} should trip {rule}, got {:?}",
                rep.diagnostics
            );
        }
    }

    #[test]
    fn benign_lookalikes_do_not_fire() {
        for src in [
            "let v = x.unwrap_or(3);",
            "let v = x.unwrap_or_else(f);",
            "let t = self.total_cmp(&o);",
            "let thread = 4; let x = thread + 1;",
            "let instant = 3;", // idents are case-sensitive
            "b.cmp(&a)",
        ] {
            let rep = run(src);
            assert!(
                rep.diagnostics.is_empty(),
                "{src:?} -> {:?}",
                rep.diagnostics
            );
        }
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  use std::collections::HashSet;\n  #[test]\n  fn t() { let x = foo().unwrap(); let i = Instant::now(); }\n}\nfn tail() { let bad = q.unwrap(); }";
        let rep = run(src);
        assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].rule, "unwrap-in-lib");
        assert_eq!(rep.diagnostics[0].line, 8);
    }

    #[test]
    fn cfg_all_test_is_also_exempt() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() { x.unwrap(); } }";
        assert!(run(src).diagnostics.is_empty());
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let src = "// tm-lint: allow(wall-clock) -- harness timing\nlet t = Instant::now();\nlet u = Instant::now(); // tm-lint: allow(wall-clock) -- second site\nlet bad = Instant::now();";
        let rep = run(src);
        assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].line, 4);
        assert_eq!(rep.allowed.get("wall-clock"), Some(&2));
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// tm-lint: allow-file(wall-clock) -- timing module\nfn a() { Instant::now(); }\nfn b() { SystemTime::now(); }";
        let rep = run(src);
        assert!(rep.diagnostics.is_empty());
        assert_eq!(rep.allowed.get("wall-clock"), Some(&2));
    }

    #[test]
    fn reasonless_or_unknown_allows_are_diagnostics() {
        let src = "// tm-lint: allow(wall-clock)\n// tm-lint: allow(no-such-rule) -- why\n// tm-lint: allow(bad-directive) -- cheeky\n// tm-lint: allow(stale-allow) -- also cheeky";
        let rep = run(src);
        let rules: Vec<_> = rep.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["bad-directive"; 4], "{:?}", rep.diagnostics);
    }

    #[test]
    fn stale_allow_fires_when_nothing_is_suppressed() {
        let src =
            "// tm-lint: allow(wall-clock) -- stale: nothing below reads the clock\nlet x = 1;";
        let rep = run(src);
        assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].rule, "stale-allow");
        assert_eq!(rep.diagnostics[0].line, 1);
    }

    #[test]
    fn stale_allow_is_per_rule_within_a_directive() {
        let src =
            "// tm-lint: allow(wall-clock, threads) -- only one is real\nlet t = Instant::now();";
        let rep = run(src);
        assert_eq!(rep.diagnostics.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].rule, "stale-allow");
        assert!(rep.diagnostics[0].message.contains("threads"));
        assert!(!rep.diagnostics[0].message.contains("wall-clock,"));
        assert_eq!(rep.allowed.get("wall-clock"), Some(&1));
    }

    #[test]
    fn live_allows_do_not_trip_the_ratchet() {
        let src = "// tm-lint: allow-file(wall-clock) -- timing module\nfn a() { Instant::now(); }";
        let rep = run(src);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let deny: BTreeSet<&str> = ["unordered-collections"].into();
        let rep = check_source(
            "mem.rs",
            "let t = Instant::now(); let m = HashMap::new();",
            &deny,
        );
        let rules: Vec<_> = rep.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["unordered-collections"]);
    }
}
