//! Streaming aggregation over the canonical merged run stream: per-cell
//! Welford accumulators, confidence intervals, and the paper-style
//! `value ± CI` text report.
//!
//! Two aggregation paths exist, and they are **byte-identical** by
//! construction:
//!
//! * [`CellAccumulator`] / [`aggregate_stream`] — the streaming path the
//!   runner and `campaign replay` use. Each open cell folds its runs into
//!   [`tm_stats::OnlineStats`] (Welford) accumulators as they arrive in
//!   canonical `(cell, seed-index)` order; when the cell's last seed
//!   lands, the accumulator finalizes into a [`CellReport`] and the raw
//!   per-run metrics are dropped. Resident memory is O(cells) finalized
//!   reports plus O(seeds) samples for the handful of still-open cells —
//!   never O(runs).
//! * [`aggregate_two_pass`] — the original collect-then-summarize
//!   reference implementation, retained so the differential suite
//!   (`crates/tm-campaign/tests/campaign.rs`,
//!   `crates/bench/tests/streaming_diff.rs`) can pin the streaming path
//!   against it over every registered scenario.
//!
//! Why the two agree to the byte: [`tm_stats::Summary::of`] *is* a
//! sequential Welford fold, so pushing the same samples in the same
//! canonical order into an [`tm_stats::OnlineStats`] produces bit-equal
//! mean/sd/min/max; the t-interval is derived from that summary via
//! [`tm_stats::t_interval_of`] on both paths; and the exact median is
//! computed from the cell's own sample buffer, which the streaming path
//! keeps only while the cell is open. No re-ordering, no re-rounding.

use tm_stats::{quantile, t_interval_of, OnlineStats};

use crate::registry::{GridPoint, Scenario};
use crate::runner::{CampaignSpec, RunRecord, RunStatus};
use crate::shard::Shard;

/// Aggregate statistics for one metric across a cell's successful seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricAggregate {
    /// Metric name, as recorded by the adapter.
    pub name: String,
    /// Number of samples (successful runs recording this metric).
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Half-width of the Student-t interval on the mean at
    /// [`CampaignReport::confidence`].
    pub ci_half: f64,
    /// Median (empirical, type-7).
    pub q50: f64,
}

impl MetricAggregate {
    /// `mean ± ci_half` with the given precision.
    pub fn mean_pm_ci(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.ci_half)
    }
}

/// Aggregates for one grid cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Canonical cell index.
    pub index: usize,
    /// The cell's grid point.
    pub point: GridPoint,
    /// Seeds attempted.
    pub seeds: usize,
    /// Failed runs as `(seed, cause)`, in seed order.
    pub failures: Vec<(u64, String)>,
    /// Per-metric aggregates, in first-recorded order.
    pub metrics: Vec<MetricAggregate>,
}

impl CellReport {
    /// Successful run count.
    pub fn ok(&self) -> usize {
        self.seeds - self.failures.len()
    }
}

/// Streaming per-cell aggregation state.
///
/// Absorbs the cell's runs in canonical seed order, keeping a Welford
/// accumulator per metric (plus the raw samples, needed only for the
/// exact median and dropped at [`CellAccumulator::finalize`]). One
/// accumulator is O(seeds) resident; the runner holds accumulators only
/// for cells whose runs are still in flight.
#[derive(Clone, Debug)]
pub struct CellAccumulator {
    index: usize,
    point: GridPoint,
    seeds: usize,
    names: Vec<String>,
    stats: Vec<OnlineStats>,
    samples: Vec<Vec<f64>>,
    failures: Vec<(u64, String)>,
    absorbed: usize,
}

impl CellAccumulator {
    /// An empty accumulator for the given cell.
    pub fn new(index: usize, point: GridPoint, seeds: usize) -> CellAccumulator {
        CellAccumulator {
            index,
            point,
            seeds,
            names: Vec::new(),
            stats: Vec::new(),
            samples: Vec::new(),
            failures: Vec::new(),
            absorbed: 0,
        }
    }

    /// The cell's canonical index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Runs absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Whether all of the cell's seeds have been absorbed.
    pub fn is_complete(&self) -> bool {
        self.absorbed >= self.seeds
    }

    /// Folds one run into the accumulator.
    ///
    /// Runs must arrive in canonical seed order (`seed_index` equal to
    /// [`CellAccumulator::absorbed`]) for the aggregates to be
    /// byte-identical to the two-pass reference; a `debug_assert` states
    /// the contract. Duplicate metric names within one record follow
    /// [`crate::Metrics::get`] semantics: the first value wins.
    pub fn absorb(&mut self, record: &RunRecord) {
        debug_assert_eq!(record.cell, self.index, "record routed to wrong cell");
        debug_assert_eq!(
            record.seed_index, self.absorbed,
            "runs must arrive in seed order"
        );
        match &record.status {
            RunStatus::Ok(metrics) => {
                // Slots touched by this record, so a duplicate name in one
                // record contributes only its first value (like the
                // two-pass path's `Metrics::get`).
                let mut touched: Vec<usize> = Vec::new();
                for (name, value) in metrics.entries() {
                    let slot = match self.names.iter().position(|n| n == name) {
                        Some(slot) => slot,
                        None => {
                            self.names.push(name.clone());
                            self.stats.push(OnlineStats::new());
                            self.samples.push(Vec::new());
                            self.names.len() - 1
                        }
                    };
                    if touched.contains(&slot) {
                        continue;
                    }
                    touched.push(slot);
                    if let (Some(stats), Some(samples)) =
                        (self.stats.get_mut(slot), self.samples.get_mut(slot))
                    {
                        stats.push(*value);
                        samples.push(*value);
                    }
                }
            }
            RunStatus::Failed(cause) => self.failures.push((record.seed, cause.clone())),
        }
        self.absorbed += 1;
    }

    /// Finalizes the cell: snapshots every Welford accumulator, derives
    /// the t-interval from the snapshot, takes the exact median from the
    /// retained samples, and drops everything else.
    pub fn finalize(self, confidence: f64) -> CellReport {
        let metrics = self
            .names
            .into_iter()
            .zip(self.stats)
            .zip(self.samples)
            .map(|((name, stats), samples)| {
                let s = stats.summary();
                let ci_half = t_interval_of(&s, confidence)
                    .map(|ci| ci.half_width)
                    .unwrap_or(0.0);
                MetricAggregate {
                    name,
                    n: s.count,
                    mean: s.mean,
                    sd: s.sd,
                    min: s.min,
                    max: s.max,
                    ci_half,
                    q50: quantile(&samples, 0.5).unwrap_or(0.0),
                }
            })
            .collect();
        CellReport {
            index: self.index,
            point: self.point,
            seeds: self.seeds,
            failures: self.failures,
            metrics,
        }
    }
}

/// The descriptive header shared by live campaigns and run-log replay
/// and resume: everything [`aggregate_stream`] needs besides the grid
/// and the records themselves.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignMeta {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description (from the registry).
    pub description: String,
    /// The spec's base seed.
    pub base_seed: u64,
    /// Seeds per cell.
    pub seeds: usize,
    /// Confidence level of the intervals.
    pub confidence: f64,
    /// The shard this stream covers (`Shard::full()` for a merged or
    /// unsharded stream).
    pub shard: Shard,
}

impl CampaignMeta {
    /// The meta block for a spec over the given scenario.
    pub fn for_spec(scenario: &Scenario, spec: &CampaignSpec) -> CampaignMeta {
        CampaignMeta {
            scenario: scenario.name.clone(),
            description: scenario.description.clone(),
            base_seed: spec.base_seed,
            seeds: spec.seeds,
            confidence: spec.confidence,
            shard: spec.shard,
        }
    }
}

/// The full campaign result: per-cell aggregates in canonical cell order.
///
/// Everything here — including [`CampaignReport::render`] — is a pure
/// function of the merged canonical run stream, so it is byte-identical
/// for any worker count and any shard split (after merging). Unlike the
/// original collect-everything design, the report no longer retains the
/// raw runs; [`CampaignReport::total_runs`] keeps the totals line exact.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description (from the registry).
    pub description: String,
    /// The spec's base seed.
    pub base_seed: u64,
    /// Seeds per cell.
    pub seeds: usize,
    /// Confidence level of the intervals.
    pub confidence: f64,
    /// The shard this report covers (`Shard::full()` when unsharded).
    pub shard: Shard,
    /// Total number of cells in the scenario's grid (across all shards).
    pub grid_cells: usize,
    /// Runs this report covers (owned cells × seeds).
    pub total_runs: usize,
    /// Per-cell aggregates for the cells this shard owns, in canonical
    /// cell order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// Total failed runs across all cells.
    pub fn total_failures(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }

    /// Renders the paper-style report: one block per cell, one
    /// `metric  mean ± CI` line per metric, failures called out inline.
    ///
    /// An unsharded report renders exactly as the original in-memory
    /// runner did; a shard report carries a `[shard i/n]` marker and its
    /// owned-cell count so partial output cannot be mistaken for the
    /// merged result.
    pub fn render(&self) -> String {
        let mut out = if self.shard.is_full() {
            format!(
                "CAMPAIGN {name}: {cells} cells x {seeds} seeds (base seed {seed:#x}, {conf:.0}% CI)\n",
                name = self.scenario,
                cells = self.cells.len(),
                seeds = self.seeds,
                seed = self.base_seed,
                conf = self.confidence * 100.0,
            )
        } else {
            format!(
                "CAMPAIGN {name} [shard {shard}]: {owned} of {cells} cells x {seeds} seeds (base seed {seed:#x}, {conf:.0}% CI)\n",
                name = self.scenario,
                shard = self.shard.label(),
                owned = self.cells.len(),
                cells = self.grid_cells,
                seeds = self.seeds,
                seed = self.base_seed,
                conf = self.confidence * 100.0,
            )
        };
        out.push_str(&format!("  {}\n\n", self.description));
        for cell in &self.cells {
            out.push_str(&format!(
                "[{label}] seeds={seeds} ok={ok} failed={failed}\n",
                label = cell.point.label(),
                seeds = cell.seeds,
                ok = cell.ok(),
                failed = cell.failures.len(),
            ));
            for m in &cell.metrics {
                out.push_str(&format!(
                    "  {name:<28} {pm:>24}  (n={n}, sd {sd:.3}, min {min:.3}, q50 {q50:.3}, max {max:.3})\n",
                    name = m.name,
                    pm = m.mean_pm_ci(3),
                    n = m.n,
                    sd = m.sd,
                    min = m.min,
                    q50 = m.q50,
                    max = m.max,
                ));
            }
            for (seed, cause) in &cell.failures {
                out.push_str(&format!("  FAILED(seed {seed:#018x}): {cause}\n"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "total: {ok}/{all} runs ok, {failed} failed\n",
            ok = self.total_runs - self.total_failures(),
            all = self.total_runs,
            failed = self.total_failures(),
        ));
        out
    }
}

/// Folds an already-canonical run stream into a [`CampaignReport`] with
/// O(cells) resident memory: one [`CellAccumulator`] open at a time.
///
/// This is the replay path (`campaign replay` re-aggregates a run-log
/// through here) and the reference for what the live runner computes
/// incrementally. The stream must be in canonical order — cells strictly
/// increasing, each cell's `seed_index` running `0..meta.seeds` — and
/// each record's stored seed must match its canonical derivation;
/// violations produce an error naming the offending record, never a
/// panic or a silently wrong table.
///
/// The stream may cover a subset of the grid's cells (a single shard's
/// log); the report then describes exactly the cells present.
pub fn aggregate_stream(
    meta: &CampaignMeta,
    grid: &[GridPoint],
    records: impl IntoIterator<Item = RunRecord>,
) -> Result<CampaignReport, String> {
    if meta.seeds == 0 {
        return Err("campaign needs at least one seed per cell".to_string());
    }
    let mut cells: Vec<CellReport> = Vec::new();
    let mut open: Option<CellAccumulator> = None;
    for record in records {
        let point = grid.get(record.cell).ok_or_else(|| {
            format!(
                "record for cell {} outside the {}-cell grid",
                record.cell,
                grid.len()
            )
        })?;
        if record.seed_index >= meta.seeds {
            return Err(format!(
                "record for cell {} has seed index {} outside 0..{}",
                record.cell, record.seed_index, meta.seeds
            ));
        }
        let k = record.cell * meta.seeds + record.seed_index;
        let expect_seed = tm_rand::stream_seed(meta.base_seed, k as u64);
        if record.seed != expect_seed {
            return Err(format!(
                "record for cell {} seed-index {} carries seed {:#x}, expected {expect_seed:#x} \
                 (mixed base seeds in one stream?)",
                record.cell, record.seed_index, record.seed
            ));
        }
        let advance = match &open {
            None => true,
            Some(acc) if acc.index() != record.cell => true,
            Some(_) => false,
        };
        if advance {
            if let Some(acc) = open.take() {
                if !acc.is_complete() {
                    return Err(format!(
                        "cell {} has only {} of {} runs in the stream",
                        acc.index(),
                        acc.absorbed(),
                        meta.seeds
                    ));
                }
                cells.push(acc.finalize(meta.confidence));
            }
            if let Some(last) = cells.last() {
                if record.cell <= last.index {
                    return Err(format!(
                        "stream is not in canonical order: cell {} after cell {}",
                        record.cell, last.index
                    ));
                }
            }
            if record.seed_index != 0 {
                return Err(format!(
                    "cell {} stream starts at seed index {}, not 0",
                    record.cell, record.seed_index
                ));
            }
            open = Some(CellAccumulator::new(record.cell, point.clone(), meta.seeds));
        }
        let acc = open
            .as_mut()
            .ok_or_else(|| "accumulator missing (internal error)".to_string())?;
        if record.seed_index != acc.absorbed() {
            return Err(format!(
                "cell {} stream jumps from seed index {} to {}",
                record.cell,
                acc.absorbed(),
                record.seed_index
            ));
        }
        acc.absorb(&record);
    }
    if let Some(acc) = open.take() {
        if !acc.is_complete() {
            return Err(format!(
                "cell {} has only {} of {} runs in the stream",
                acc.index(),
                acc.absorbed(),
                meta.seeds
            ));
        }
        cells.push(acc.finalize(meta.confidence));
    }
    let total_runs = cells.len() * meta.seeds;
    Ok(CampaignReport {
        scenario: meta.scenario.clone(),
        description: meta.description.clone(),
        base_seed: meta.base_seed,
        seeds: meta.seeds,
        confidence: meta.confidence,
        shard: meta.shard,
        grid_cells: grid.len(),
        total_runs,
        cells,
    })
}

/// The original two-pass aggregation: collect every [`RunRecord`], then
/// summarize each cell from the full batch.
///
/// Kept **only** as the differential reference for the streaming path —
/// it holds O(runs) memory by design, which is exactly what the streaming
/// rebuild removed from the live runner. The differential suites run both
/// paths over the same recorded stream and assert byte-equal reports.
///
/// Requires a complete unsharded batch (`grid.len() × meta.seeds`
/// records in canonical order).
pub fn aggregate_two_pass(
    meta: &CampaignMeta,
    grid: &[GridPoint],
    runs: &[RunRecord],
) -> Result<CampaignReport, String> {
    if meta.seeds == 0 {
        return Err("campaign needs at least one seed per cell".to_string());
    }
    if runs.len() != grid.len() * meta.seeds {
        return Err(format!(
            "two-pass reference needs a complete batch: {} runs for a {}-cell x {}-seed grid",
            runs.len(),
            grid.len(),
            meta.seeds
        ));
    }
    let mut cell_reports = Vec::with_capacity(grid.len());
    for (index, point) in grid.iter().enumerate() {
        let cell_runs = runs
            .get(index * meta.seeds..(index + 1) * meta.seeds)
            .ok_or_else(|| format!("cell {index} slice out of range"))?;

        // Metric order: first recorded across the cell's runs, canonical.
        let mut names: Vec<&str> = Vec::new();
        for run in cell_runs {
            if let RunStatus::Ok(metrics) = &run.status {
                for (name, _) in metrics.entries() {
                    if !names.contains(&name.as_str()) {
                        names.push(name);
                    }
                }
            }
        }

        let metrics = names
            .iter()
            .map(|name| {
                let samples: Vec<f64> = cell_runs
                    .iter()
                    .filter_map(|run| match &run.status {
                        RunStatus::Ok(metrics) => metrics.get(name),
                        RunStatus::Failed(_) => None,
                    })
                    .collect();
                let s = tm_stats::Summary::of(&samples);
                let ci_half = tm_stats::t_interval(&samples, meta.confidence)
                    .map(|ci| ci.half_width)
                    .unwrap_or(0.0);
                MetricAggregate {
                    name: name.to_string(),
                    n: s.count,
                    mean: s.mean,
                    sd: s.sd,
                    min: s.min,
                    max: s.max,
                    ci_half,
                    q50: quantile(&samples, 0.5).unwrap_or(0.0),
                }
            })
            .collect();

        let failures = cell_runs
            .iter()
            .filter_map(|run| match &run.status {
                RunStatus::Failed(cause) => Some((run.seed, cause.clone())),
                RunStatus::Ok(_) => None,
            })
            .collect();

        cell_reports.push(CellReport {
            index,
            point: point.clone(),
            seeds: meta.seeds,
            failures,
            metrics,
        });
    }
    Ok(CampaignReport {
        scenario: meta.scenario.clone(),
        description: meta.description.clone(),
        base_seed: meta.base_seed,
        seeds: meta.seeds,
        confidence: meta.confidence,
        shard: Shard::full(),
        grid_cells: grid.len(),
        total_runs: runs.len(),
        cells: cell_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Axis, Metrics, Registry, Scenario};
    use crate::runner::run_campaign;

    fn one_cell_registry() -> Registry {
        let mut r = Registry::new();
        r.register(Scenario::new(
            "lin",
            "seed modulo grid",
            vec![Axis::new("k", &["2", "3"])],
            |point, seed| {
                let k: u64 = point.get("k").and_then(|v| v.parse().ok()).unwrap_or(1);
                Metrics::new().with("m", (seed % k) as f64)
            },
        ))
        .expect("register");
        r
    }

    #[test]
    fn aggregates_follow_the_merged_stream() {
        let mut spec = CampaignSpec::new("lin", 11);
        spec.seeds = 4;
        let report = run_campaign(&one_cell_registry(), &spec).expect("campaign");
        assert_eq!(report.cells.len(), 2);
        let cell = &report.cells[0];
        assert_eq!(cell.ok(), 4);
        let expect: Vec<f64> = (0..4)
            .map(|k| (tm_rand::stream_seed(11, k) % 2) as f64)
            .collect();
        let s = tm_stats::Summary::of(&expect);
        assert_eq!(cell.metrics[0].n, 4);
        assert!((cell.metrics[0].mean - s.mean).abs() < 1e-12);
        assert!((cell.metrics[0].sd - s.sd).abs() < 1e-12);
    }

    #[test]
    fn render_contains_cells_metrics_and_totals() {
        let mut spec = CampaignSpec::new("lin", 11);
        spec.seeds = 3;
        let report = run_campaign(&one_cell_registry(), &spec).expect("campaign");
        let text = report.render();
        assert!(text.contains("CAMPAIGN lin: 2 cells x 3 seeds"), "{text}");
        assert!(text.contains("[k=2]"), "{text}");
        assert!(text.contains("[k=3]"), "{text}");
        assert!(text.contains("total: 6/6 runs ok, 0 failed"), "{text}");
    }

    #[test]
    fn sharded_render_carries_the_shard_marker() {
        let mut spec = CampaignSpec::new("lin", 11);
        spec.seeds = 3;
        spec.shard = Shard { index: 1, count: 2 };
        let report = run_campaign(&one_cell_registry(), &spec).expect("campaign");
        let text = report.render();
        assert!(
            text.contains("CAMPAIGN lin [shard 1/2]: 1 of 2 cells x 3 seeds"),
            "{text}"
        );
        assert!(text.contains("[k=3]"), "{text}");
        assert!(
            !text.contains("[k=2]"),
            "shard 1/2 must not own cell 0: {text}"
        );
    }

    #[test]
    fn aggregate_stream_rejects_malformed_streams() {
        let meta = CampaignMeta {
            scenario: "s".into(),
            description: "d".into(),
            base_seed: 5,
            seeds: 2,
            confidence: 0.95,
            shard: Shard::full(),
        };
        let grid = vec![GridPoint { coords: Vec::new() }];
        let rec = |cell: usize, seed_index: usize| RunRecord {
            cell,
            seed_index,
            seed: tm_rand::stream_seed(5, (cell * 2 + seed_index) as u64),
            status: RunStatus::Ok(Metrics::new().with("m", 1.0)),
        };
        // Complete stream aggregates.
        assert!(aggregate_stream(&meta, &grid, vec![rec(0, 0), rec(0, 1)]).is_ok());
        // Missing the cell's second run.
        assert!(aggregate_stream(&meta, &grid, vec![rec(0, 0)]).is_err());
        // Out-of-grid cell.
        assert!(aggregate_stream(&meta, &grid, vec![rec(3, 0)]).is_err());
        // Wrong stored seed (mixed streams).
        let mut bad = rec(0, 0);
        bad.seed ^= 1;
        assert!(aggregate_stream(&meta, &grid, vec![bad, rec(0, 1)]).is_err());
        // Out-of-order seed indices.
        assert!(aggregate_stream(&meta, &grid, vec![rec(0, 1), rec(0, 0)]).is_err());
    }
}
