//! The parent side: runs reps of a workload, each in a fresh child
//! process, until the time budget is spent, then aggregates them.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, JsonValue};
use crate::rep::{per_layer, RepOutput, END_TO_END};
use crate::stats::Summary;
use crate::workloads::Workload;

/// Reps a measurement always makes, however long they take.
const MIN_REPS: u32 = 3;

/// Every rep of one measurement, all traced or all untraced.
pub struct Measurement {
    /// The reps, in the order they ran.
    pub reps: Vec<RepOutput>,
}

/// A metric's samples and unit.
#[derive(Clone, Debug)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The samples, one per rep.
    pub samples: Vec<f64>,
}

impl Series {
    /// Median and quartiles.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// The suite-file form.
    pub fn to_json(&self) -> JsonValue {
        let s = self.summary();
        JsonValue::object(vec![
            ("unit", self.unit.into()),
            ("median", s.median.into()),
            ("q1", s.q1.into()),
            ("q3", s.q3.into()),
            ("n", s.n.into()),
            (
                "samples",
                JsonValue::Array(self.samples.iter().map(|&x| x.into()).collect()),
            ),
        ])
    }
}

fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "rep",
            workload.name(),
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a rep: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} rep exited with {}",
            workload.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    RepOutput::from_json(&json::parse(&text)?)
}

/// Measures `workload` for about `seconds` of wall time, traced or not.
/// Once the minimum count is met, a rep is not started when the average
/// rep so far would overrun the budget.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Measurement, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    for round in 1u32.. {
        reps.push(spawn_rep(workload, seed, trace)?);
        let spent = start.elapsed();
        if round >= MIN_REPS && spent + spent / round > budget {
            break;
        }
    }
    Ok(Measurement { reps })
}

impl Measurement {
    /// Checks made over every rep. A rep whose fingerprint differs from
    /// the first rep's fails all of its checks: the run was not
    /// reproducible.
    pub fn checks(&self) -> (u64, u64) {
        let first = self.reps.first().map(|r| r.fingerprint);
        self.reps.iter().fold((0, 0), |(attempted, failed), r| {
            let failed_here = if Some(r.fingerprint) == first {
                r.failed
            } else {
                r.attempted
            };
            (attempted + r.attempted, failed + failed_here)
        })
    }

    /// The end-to-end series; meaningful for an untraced measurement.
    pub fn end_to_end(&self) -> Vec<Series> {
        let per_rep = |f: fn(&RepOutput) -> f64| self.reps.iter().map(f).collect::<Vec<_>>();
        END_TO_END
            .iter()
            .map(|&(name, unit)| Series {
                name: name.to_string(),
                unit,
                samples: match name {
                    "sim_s_per_wall_s" => per_rep(|r| r.sim_s / r.wall_s),
                    "runs_per_s" => per_rep(|r| r.runs / r.wall_s),
                    "wall_s" => per_rep(|r| r.wall_s),
                    "setup_s" => per_rep(|r| r.setup_s),
                    "peak_rss_mb" => per_rep(|r| r.peak_rss_mb),
                    _ => unreachable!("END_TO_END names are matched above"),
                },
            })
            .collect()
    }

    /// The per-layer series; filled by a traced measurement.
    pub fn per_layer(&self) -> Vec<Series> {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let samples = self
                    .reps
                    .iter()
                    .map(|r| {
                        r.layers
                            .iter()
                            .find(|(k, _)| *k == name)
                            .map_or(0.0, |(_, v)| *v)
                    })
                    .collect();
                Series {
                    name,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}
