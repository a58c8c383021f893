//! `compare <a.json> <b.json>`: one verdict per (workload, end-to-end
//! metric) between two suite files, with bounds from `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::{JsonRead, JsonValue};
use crate::stats::Summary;

/// How `b` reads against `a` on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound and more than `a`'s own spread.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// A spread wider than the bound, and the samples overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `b` against `a` for a metric where `lower_is_better` (or
/// not) and which may worsen by `bound`, a share of `a`'s median.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.n == 0 || sb.n == 0 || sa.median == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Positive is worse, as a share of a's median.
    let change = sign * (sb.median - sa.median) / sa.median.abs();
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    if sa.spread() > bound || sb.spread() > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        let all_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
        return match (all_better, all_worse) {
            (true, _) if change < -bound => Verdict::Better,
            (_, true) if change > bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if change > bound {
        Verdict::Worse
    } else if -change > bound && -change > sa.spread() {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric's declaration in `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(benchmark: &JsonValue) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(JsonRead::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(JsonRead::str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(JsonRead::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(JsonRead::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn samples<'a>(workload: &'a JsonValue, metric: &str) -> Option<&'a [JsonValue]> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .arr()
}

fn fail_rate(workload: &JsonValue) -> f64 {
    let get = |k: &str| workload.get(k).and_then(JsonRead::num).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Four decimals, or four significant digits for values too small to
/// show that way (set-up times are microseconds).
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

fn cell(xs: &[f64]) -> String {
    let s = Summary::of(xs);
    format!("{} [{}, {}] n={}", num(s.median), num(s.q1), num(s.q3), s.n)
}

/// Renders the comparison table; the flag is true when anything is worse.
pub fn compare(
    a: &JsonValue,
    b: &JsonValue,
    benchmark: &JsonValue,
) -> Result<(String, bool), String> {
    let metrics = declared(benchmark)?;
    let workloads = |j: &JsonValue| {
        j.get("workloads")
            .map(JsonRead::fields)
            .unwrap_or(&[])
            .to_vec()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<13} {:<17} {:<40} {:<40} verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]"
    );
    for (name, ja) in &wa {
        let Some((_, jb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<13} missing from b");
            continue;
        };
        for m in &metrics {
            let nums = |j: &JsonValue| -> Vec<f64> {
                samples(j, &m.name)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(JsonRead::num)
                    .collect()
            };
            let (xa, xb) = (nums(ja), nums(jb));
            let v = verdict(&xa, &xb, m.lower_is_better, m.bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<13} {:<17} {:<40} {:<40} {}",
                m.name,
                cell(&xa),
                cell(&xb),
                v.label()
            );
        }
        let (fa, fb) = (fail_rate(ja), fail_rate(jb));
        // fail_rate must stay 0: any failure in b is a regression.
        let v = match (fa > 0.0, fb > 0.0) {
            (_, true) => Verdict::Worse,
            (true, false) => Verdict::Better,
            (false, false) => Verdict::Unchanged,
        };
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{name:<13} {:<17} {fa:<40} {fb:<40} {}",
            "fail_rate",
            v.label()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Same distribution: unchanged.
        assert_eq!(verdict(&a, &a, true, 0.1), Verdict::Unchanged);
        // 20 % slower on a lower-is-better metric: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, true, 0.1), Verdict::Worse);
        // The same change on a higher-is-better metric: better.
        assert_eq!(verdict(&a, &slow, false, 0.1), Verdict::Better);
        // Wide, overlapping spread: unresolved.
        let wide = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(&a, &wide, true, 0.1), Verdict::Unresolved);
    }
}
