//! The `tm-lint.toml` tier map.
//!
//! The linter's unit of policy is a *tier*: a set of workspace paths that
//! share a determinism posture. `sim-core` and `defense` code must be a
//! pure function of `(scenario, seed)`, so every rule applies; `tooling`
//! (the bench harness, the linter itself) legitimately reads wall clocks
//! but still must not introduce unseeded randomness.
//!
//! The parser handles exactly the subset of TOML the config uses —
//! `[section]` headers and `key = ["a", "b"]` string arrays — by hand, in
//! keeping with the workspace's zero-dependency policy. Anything else in
//! the file is an error: a config that silently half-parses would be a
//! hole in the contract.

use std::collections::BTreeMap;

use crate::rules::{meta_rules, rule_names};

/// One tier: the paths it covers and the rules it denies.
#[derive(Debug, Default, Clone)]
pub struct Tier {
    /// Workspace-relative path prefixes (e.g. `crates/netsim`).
    pub paths: Vec<String>,
    /// Rule names denied in this tier.
    pub deny: Vec<String>,
}

/// The parsed tier map, keyed by tier name.
#[derive(Debug, Default)]
pub struct Config {
    /// All tiers, sorted by name (BTreeMap for deterministic iteration).
    pub tiers: BTreeMap<String, Tier>,
}

impl Config {
    /// Parses the config text. Errors carry a line number and are fatal:
    /// the linter refuses to run with a policy it only partly understood.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                let tier = name.strip_prefix("tier.").ok_or_else(|| {
                    format!("line {lineno}: expected [tier.<name>], got [{name}]")
                })?;
                cfg.tiers.insert(tier.to_string(), Tier::default());
                current = Some(tier.to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected key = [\"…\"]"))?;
            let tier_name = current
                .as_ref()
                .ok_or_else(|| format!("line {lineno}: key outside any [tier.*] section"))?;
            let values = parse_string_array(value.trim())
                .ok_or_else(|| format!("line {lineno}: expected a [\"…\", …] string array"))?;
            let tier = cfg.tiers.get_mut(tier_name).ok_or("tier vanished")?;
            match key.trim() {
                "paths" => tier.paths = values,
                "deny" => tier.deny = values,
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("config defines no tiers".into());
        }
        for (name, tier) in &self.tiers {
            if tier.paths.is_empty() {
                return Err(format!("tier `{name}` covers no paths"));
            }
            let mut seen = std::collections::BTreeSet::new();
            for rule in &tier.deny {
                if !rule_names().contains(&rule.as_str()) {
                    return Err(format!(
                        "tier `{name}` denies unknown rule `{rule}` (known: {})",
                        rule_names().join(", ")
                    ));
                }
                if meta_rules().contains(&rule.as_str()) {
                    return Err(format!(
                        "tier `{name}` lists meta-rule `{rule}`; meta-rules are always active \
                         in every tier and may not appear in deny lists"
                    ));
                }
                if !seen.insert(rule.as_str()) {
                    return Err(format!("tier `{name}` denies `{rule}` twice"));
                }
            }
        }
        Ok(())
    }

    /// Resolves a workspace-relative path (forward slashes) to its tier by
    /// longest matching prefix. `None` means the file is not covered — the
    /// caller reports that as a diagnostic so the tier map stays total.
    pub fn tier_for(&self, rel_path: &str) -> Option<(&str, &Tier)> {
        let mut best: Option<(&str, &Tier, usize)> = None;
        for (name, tier) in &self.tiers {
            for prefix in &tier.paths {
                let matches = rel_path == prefix
                    || rel_path
                        .strip_prefix(prefix.as_str())
                        .is_some_and(|rest| rest.starts_with('/'));
                let better = match &best {
                    None => true,
                    Some((_, _, len)) => prefix.len() > *len,
                };
                if matches && better {
                    best = Some((name, tier, prefix.len()));
                }
            }
        }
        best.map(|(name, tier, _)| (name, tier))
    }
}

/// Strips a `#` comment, respecting `"` quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b", "c"]` (trailing comma tolerated).
fn parse_string_array(s: &str) -> Option<Vec<String>> {
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(part.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# tier map
[tier.sim-core]
paths = ["crates/netsim", "src"]
deny = ["wall-clock", "threads"]

[tier.tooling]
paths = ["crates/bench"] # timing harness
deny = ["unseeded-rng"]
"#;

    #[test]
    fn parses_tiers_and_resolves_longest_prefix() {
        let cfg = Config::parse(SAMPLE).expect("parses");
        assert_eq!(cfg.tiers.len(), 2);
        let (name, tier) = cfg
            .tier_for("crates/netsim/src/engine.rs")
            .expect("covered");
        assert_eq!(name, "sim-core");
        assert_eq!(tier.deny, vec!["wall-clock", "threads"]);
        assert_eq!(
            cfg.tier_for("crates/bench/src/harness.rs")
                .expect("covered")
                .0,
            "tooling"
        );
        assert!(cfg.tier_for("crates/unknown/src/lib.rs").is_none());
        // Prefix must match on a path boundary.
        assert!(cfg.tier_for("crates/netsim-extras/src/lib.rs").is_none());
    }

    #[test]
    fn unknown_rule_is_fatal() {
        // A typo'd rule name must not silently deny nothing.
        let bad = "[tier.x]\npaths = [\"src\"]\ndeny = [\"no-such-rule\"]\n";
        let err = Config::parse(bad).unwrap_err();
        assert!(err.contains("unknown rule `no-such-rule`"), "{err}");
        let typo = "[tier.x]\npaths = [\"src\"]\ndeny = [\"wall-clocks\"]\n";
        assert!(Config::parse(typo).unwrap_err().contains("wall-clocks"));
    }

    #[test]
    fn meta_rules_in_deny_lists_are_fatal() {
        for meta in ["stale-allow", "bad-directive"] {
            let bad = format!("[tier.x]\npaths = [\"src\"]\ndeny = [\"{meta}\"]\n");
            let err = Config::parse(&bad).unwrap_err();
            assert!(err.contains("meta-rule"), "{err}");
        }
    }

    #[test]
    fn duplicate_deny_entries_are_fatal() {
        let bad = "[tier.x]\npaths = [\"src\"]\ndeny = [\"threads\", \"threads\"]\n";
        assert!(Config::parse(bad).unwrap_err().contains("twice"));
    }

    #[test]
    fn unknown_key_is_fatal() {
        let bad = "[tier.x]\npaths = [\"src\"]\nallow = [\"wall-clock\"]\n";
        assert!(Config::parse(bad).is_err());
    }
}
