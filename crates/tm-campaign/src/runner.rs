//! The streaming worker-pool executor: fans `(grid-cell, seed)` runs out
//! across a fixed-size thread pool and aggregates the results **as they
//! are merged back into canonical order**, holding one open cell at a
//! time instead of every run of the campaign.
//!
//! Threading model (the determinism argument, also in DESIGN.md):
//!
//! * The canonical run list — cell-major, seed-minor over the cells this
//!   invocation's [`Shard`] owns — is enumerated up front. Run `k`'s seed
//!   is [`tm_rand::stream_seed`]`(base, k)` where `k` is the run's
//!   **global** canonical index (`cell * seeds + seed_index`), a pure
//!   function of the spec that sharding never re-numbers.
//! * Workers pull pending-run indices from an atomic counter and send
//!   `(index, status)` over a channel. Which worker executes which run,
//!   and in what real-time order results arrive, is scheduler-dependent.
//! * The aggregator thread holds out-of-order arrivals in a reorder
//!   buffer and releases them strictly in canonical order — into the
//!   per-cell [`CellAccumulator`] and past the caller's [`RunSink`]. The
//!   emitted stream is identical for any worker count, so everything
//!   derived from it (aggregates, render, run-log bytes) is too.
//! * A cell finalizes the moment its last seed is emitted; its raw
//!   samples are dropped then. Peak memory is O(cells) finalized reports
//!   plus the reorder buffer, never O(runs) retained metrics.
//!
//! Each run body executes under [`crate::isolate`], so a panic in one
//! parameter point is recorded as [`RunStatus::Failed`] with its message
//! and the campaign continues.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::aggregate::{CampaignReport, CellAccumulator, CellReport};
use crate::registry::{Metrics, Registry};
use crate::shard::Shard;

/// A campaign specification: which scenario, how many seeds per cell, how
/// wide the pool is, and which shard of the grid this invocation owns.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Registry name of the scenario to run.
    pub scenario: String,
    /// Base seed; per-run seeds are derived via `stream_seed(base, k)`.
    pub base_seed: u64,
    /// Seeds per grid cell (≥ 1).
    pub seeds: usize,
    /// Worker threads (≥ 1). Affects wall-clock only, never output.
    pub workers: usize,
    /// Confidence level for the per-cell intervals (e.g. 0.95).
    pub confidence: f64,
    /// The grid shard this invocation owns (`Shard::full()` = all cells).
    /// Affects which cells run, never any derived seed.
    pub shard: Shard,
    /// Suppress the default panic hook's backtrace spam while the pool
    /// runs (isolated failures are *reported*, not printed). Leave off in
    /// test binaries, which share the process-global hook.
    pub quiet_panics: bool,
}

impl CampaignSpec {
    /// A spec with the workspace defaults: 5 seeds, 1 worker, 95 % CI,
    /// unsharded.
    pub fn new(scenario: &str, base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            scenario: scenario.to_string(),
            base_seed,
            seeds: 5,
            workers: 1,
            confidence: 0.95,
            shard: Shard::full(),
            quiet_panics: false,
        }
    }
}

/// The outcome of one isolated run.
#[derive(Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// The run completed and produced metrics.
    Ok(Metrics),
    /// The run panicked; the payload message is the cause.
    Failed(String),
}

/// One run of the campaign, in canonical order.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Grid-cell index (into [`crate::Scenario::cells`]).
    pub cell: usize,
    /// Seed index within the cell (`0..spec.seeds`).
    pub seed_index: usize,
    /// The derived per-run seed.
    pub seed: u64,
    /// What happened.
    pub status: RunStatus,
}

/// Observer of the canonical result stream as the campaign executes.
///
/// The runner drives a sink strictly in canonical order: every owned,
/// non-resumed run via [`RunSink::on_run`] (cell-major, seed-minor). This
/// is how the binary run-log observes the campaign without the runner
/// retaining anything itself. A sink error aborts the campaign with that
/// message.
pub trait RunSink {
    /// Called for each completed run, in canonical order.
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        let _ = record;
        Ok(())
    }
}

/// The do-nothing sink used by [`run_campaign`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl RunSink for NullSink {}

/// A sink that retains everything it observes — the differential tests'
/// window into the canonical stream.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// Every run, in the order emitted.
    pub runs: Vec<RunRecord>,
}

impl RunSink for RecordingSink {
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        self.runs.push(record.clone());
        Ok(())
    }
}

/// Fans the stream out to two sinks (say, a run-log writer and a
/// [`RecordingSink`]).
pub struct TeeSink<'a> {
    /// First receiver; sees each event before `second`.
    pub first: &'a mut dyn RunSink,
    /// Second receiver.
    pub second: &'a mut dyn RunSink,
}

impl RunSink for TeeSink<'_> {
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        self.first.on_run(record)?;
        self.second.on_run(record)
    }
}

/// Cells already finalized by a previous invocation, re-aggregated from
/// its run-log (`bench::runlog::resume`).
///
/// Resumed cells are spliced into the report verbatim and **not** re-run;
/// the sink never sees them either — their run-log records were written
/// by the invocation that completed them.
#[derive(Clone, Debug, Default)]
pub struct Resume {
    /// Finalized cell reports, any order; validated against the grid.
    pub cells: Vec<CellReport>,
}

impl Resume {
    /// No resumed cells: run everything the shard owns.
    pub fn none() -> Resume {
        Resume { cells: Vec::new() }
    }
}

/// A saved process panic hook, as returned by `std::panic::take_hook`.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// RAII guard that replaces the process panic hook with a silent one and
/// restores the previous hook on drop.
///
/// The hook is process-global state: use this only in drivers that own
/// the process (the `experiments` binary), not in library defaults.
pub struct SilencedPanics {
    prev: Option<PanicHook>,
}

impl SilencedPanics {
    /// Installs the silent hook.
    pub fn new() -> SilencedPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        SilencedPanics { prev: Some(prev) }
    }
}

impl Default for SilencedPanics {
    fn default() -> Self {
        SilencedPanics::new()
    }
}

impl Drop for SilencedPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Runs a campaign to completion with streaming aggregation.
///
/// Equivalent to [`run_campaign_with`] with no resume state and no sink.
/// Fails (with a message, never a panic) on an unknown scenario, a
/// zero-seed spec, or an internal pool error. Individual run panics do
/// *not* fail the campaign; they surface as failed cells in the report.
pub fn run_campaign(registry: &Registry, spec: &CampaignSpec) -> Result<CampaignReport, String> {
    run_campaign_with(registry, spec, &Resume::none(), &mut NullSink)
}

/// Runs a campaign with streaming aggregation, skipping `resume`d cells
/// and feeding the canonical stream through `sink`.
///
/// The report is byte-identical for any `spec.workers`, and the union of
/// all shards' reports (merged in cell order) is byte-identical to an
/// unsharded run — both pinned by the differential tests. Resumed cells
/// must match the grid (owned index, matching point, matching seed
/// count); stale or foreign resume state is an error, not silent
/// mis-aggregation.
pub fn run_campaign_with(
    registry: &Registry,
    spec: &CampaignSpec,
    resume: &Resume,
    sink: &mut dyn RunSink,
) -> Result<CampaignReport, String> {
    let scenario = registry
        .get(&spec.scenario)
        .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
    if spec.seeds == 0 {
        return Err("campaign needs at least one seed per cell".to_string());
    }
    if spec.workers == 0 {
        return Err("campaign needs at least one worker".to_string());
    }
    // Everything below derives (cell, seed_index) as `j / spec.seeds` and
    // `j % spec.seeds`; restate the guard where the divisions live.
    debug_assert!(spec.seeds > 0);
    if !(spec.confidence > 0.0 && spec.confidence < 1.0) {
        return Err(format!("confidence {} outside (0, 1)", spec.confidence));
    }
    let grid = scenario.cells();
    let owned: Vec<usize> = (0..grid.len()).filter(|&c| spec.shard.owns(c)).collect();

    // Validate the resume state against this spec's grid before trusting
    // a single cell of it.
    let mut resumed: BTreeMap<usize, CellReport> = BTreeMap::new();
    for cell in &resume.cells {
        if !spec.shard.owns(cell.index) {
            return Err(format!(
                "resumed cell {} is not owned by shard {}",
                cell.index,
                spec.shard.label()
            ));
        }
        let point = grid.get(cell.index).ok_or_else(|| {
            format!(
                "resumed cell {} outside the {}-cell grid (stale run-log?)",
                cell.index,
                grid.len()
            )
        })?;
        if &cell.point != point {
            return Err(format!(
                "resumed cell {} was [{}] but the grid has [{}] (stale run-log?)",
                cell.index,
                cell.point.label(),
                point.label()
            ));
        }
        if cell.seeds != spec.seeds {
            return Err(format!(
                "resumed cell {} holds {} seeds, spec wants {}",
                cell.index, cell.seeds, spec.seeds
            ));
        }
        if resumed.insert(cell.index, cell.clone()).is_some() {
            return Err(format!("resumed cell {} listed twice", cell.index));
        }
    }

    // Pending cells: owned, not already finalized by a previous run.
    let pending: Vec<usize> = owned
        .iter()
        .copied()
        .filter(|c| !resumed.contains_key(c))
        .collect();
    let n_pending_runs = pending.len() * spec.seeds;

    let _quiet = if spec.quiet_panics {
        Some(SilencedPanics::new())
    } else {
        None
    };

    // Fan out: workers claim pending-run indices `j` from a shared
    // counter and stream `(j, status)` back over a channel — no shared
    // mutable results, no locks on the hot path. The aggregator below is
    // the only consumer of results.
    let next = AtomicUsize::new(0);
    let run_one = |j: usize| -> RunStatus {
        let slot = j / spec.seeds;
        let seed_index = j % spec.seeds;
        let status = pending
            .get(slot)
            .and_then(|&cell| grid.get(cell).map(|point| (cell, point)))
            .map(|(cell, point)| {
                let k = cell * spec.seeds + seed_index;
                let seed = tm_rand::stream_seed(spec.base_seed, k as u64);
                match crate::isolate(|| (scenario.run)(point, seed)) {
                    Ok(metrics) => RunStatus::Ok(metrics),
                    Err(cause) => RunStatus::Failed(cause),
                }
            });
        match status {
            Some(status) => status,
            // Unreachable: j < n_pending_runs and every pending cell is a
            // grid index. Reported as a failure rather than a panic.
            None => RunStatus::Failed("internal: pending-run index out of range".to_string()),
        }
    };

    let (tx, rx) = mpsc::channel::<(usize, RunStatus)>();
    let mut fresh: Vec<CellReport> = Vec::new();
    let mut stream_error: Option<String> = None;
    let pool_result: Result<(), String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(|| {
                    let tx = tx;
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= n_pending_runs {
                            break;
                        }
                        // The aggregator may have bailed (sink error);
                        // a closed channel just means "stop caring".
                        let _ = tx.send((j, run_one(j)));
                    }
                })
            })
            .collect();
        drop(tx);

        // The aggregator: release results strictly in canonical order via
        // a reorder buffer, feed the open cell's accumulator, finalize
        // cells as their last seed lands.
        let mut buffer: BTreeMap<usize, RunStatus> = BTreeMap::new();
        let mut next_emit = 0usize;
        let mut open: Option<CellAccumulator> = None;
        'drain: for (j, status) in &rx {
            buffer.insert(j, status);
            while let Some(status) = buffer.remove(&next_emit) {
                let slot = next_emit / spec.seeds;
                let seed_index = next_emit % spec.seeds;
                let Some(&cell) = pending.get(slot) else {
                    stream_error = Some(format!("emitted run {next_emit} has no pending cell"));
                    break 'drain;
                };
                let k = cell * spec.seeds + seed_index;
                let record = RunRecord {
                    cell,
                    seed_index,
                    seed: tm_rand::stream_seed(spec.base_seed, k as u64),
                    status,
                };
                if let Err(e) = sink.on_run(&record) {
                    stream_error = Some(e);
                    break 'drain;
                }
                let acc = open.get_or_insert_with(|| {
                    CellAccumulator::new(cell, record_point(&grid, cell), spec.seeds)
                });
                acc.absorb(&record);
                if acc.is_complete() {
                    fresh.extend(open.take().map(|a| a.finalize(spec.confidence)));
                }
                next_emit += 1;
            }
        }
        // Receiver dropped early on error; workers notice the closed
        // channel and wind down on their own.
        drop(rx);
        for h in handles {
            h.join()
                .map_err(|_| "campaign worker died outside run isolation".to_string())?;
        }
        if stream_error.is_none() && next_emit != n_pending_runs {
            return Err(format!("pool emitted {next_emit} of {n_pending_runs} runs"));
        }
        Ok(())
    });
    pool_result?;
    if let Some(e) = stream_error {
        return Err(e);
    }

    // Canonical splice: resumed + fresh cells, ordered by cell index.
    let mut cells: Vec<CellReport> = resumed.into_values().chain(fresh).collect();
    cells.sort_by_key(|c| c.index);

    Ok(CampaignReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        base_seed: spec.base_seed,
        seeds: spec.seeds,
        confidence: spec.confidence,
        shard: spec.shard,
        grid_cells: grid.len(),
        total_runs: owned.len() * spec.seeds,
        cells,
    })
}

/// The grid point for `cell`, cloned; an out-of-range index (impossible
/// for runner-emitted cells) yields an empty point rather than a panic.
fn record_point(grid: &[crate::registry::GridPoint], cell: usize) -> crate::registry::GridPoint {
    grid.get(cell)
        .cloned()
        .unwrap_or(crate::registry::GridPoint { coords: Vec::new() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Axis, Scenario};

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(Scenario::new(
            "synthetic",
            "pure arithmetic on the seed",
            vec![Axis::new("a", &["x", "y"])],
            |point, seed| {
                let bias = if point.get("a") == Some("x") {
                    1.0
                } else {
                    2.0
                };
                Metrics::new()
                    .with("value", bias * (seed % 1000) as f64)
                    .with("flag", f64::from(u8::from(seed % 2 == 0)))
            },
        ))
        .expect("register");
        r
    }

    #[test]
    fn unknown_scenario_and_bad_spec_are_errors() {
        let r = registry();
        assert!(run_campaign(&r, &CampaignSpec::new("missing", 1)).is_err());
        let mut zero_seeds = CampaignSpec::new("synthetic", 1);
        zero_seeds.seeds = 0;
        assert!(run_campaign(&r, &zero_seeds).is_err());
        let mut zero_workers = CampaignSpec::new("synthetic", 1);
        zero_workers.workers = 0;
        assert!(run_campaign(&r, &zero_workers).is_err());
        let mut bad_conf = CampaignSpec::new("synthetic", 1);
        bad_conf.confidence = 1.0;
        assert!(run_campaign(&r, &bad_conf).is_err());
    }

    #[test]
    fn sink_sees_runs_cell_major_with_derived_seeds() {
        let mut spec = CampaignSpec::new("synthetic", 0xC0FFEE);
        spec.seeds = 3;
        let mut sink = RecordingSink::default();
        let report =
            run_campaign_with(&registry(), &spec, &Resume::none(), &mut sink).expect("campaign");
        assert_eq!(report.total_runs, 6);
        assert_eq!(sink.runs.len(), 6);
        for (k, run) in sink.runs.iter().enumerate() {
            assert_eq!(run.cell, k / 3);
            assert_eq!(run.seed_index, k % 3);
            assert_eq!(run.seed, tm_rand::stream_seed(0xC0FFEE, k as u64));
            assert!(matches!(run.status, RunStatus::Ok(_)));
        }
    }

    #[test]
    fn worker_count_does_not_change_the_rendered_bytes() {
        let mut base = CampaignSpec::new("synthetic", 0xBEEF);
        base.seeds = 7;
        let one = run_campaign(&registry(), &base).expect("1 worker");
        for workers in [2, 5, 8] {
            let mut spec = base.clone();
            spec.workers = workers;
            let many = run_campaign(&registry(), &spec).expect("n workers");
            assert_eq!(one.render(), many.render(), "workers={workers}");
            assert_eq!(one, many, "workers={workers}");
        }
    }

    #[test]
    fn resumed_cells_are_skipped_and_spliced() {
        let mut spec = CampaignSpec::new("synthetic", 5);
        spec.seeds = 4;
        let full = run_campaign(&registry(), &spec).expect("full run");
        // Resume with cell 0 finalized: only cell 1 re-runs, output is
        // byte-identical to the full run.
        let resume = Resume {
            cells: vec![full.cells[0].clone()],
        };
        let mut sink = RecordingSink::default();
        let resumed =
            run_campaign_with(&registry(), &spec, &resume, &mut sink).expect("resumed run");
        assert_eq!(resumed.render(), full.render());
        assert_eq!(resumed, full);
        assert!(
            sink.runs.iter().all(|r| r.cell == 1),
            "cell 0 must not re-run"
        );
    }

    #[test]
    fn stale_resume_state_is_rejected() {
        let mut spec = CampaignSpec::new("synthetic", 5);
        spec.seeds = 2;
        let full = run_campaign(&registry(), &spec).expect("full run");

        let mut wrong_seeds = full.cells[0].clone();
        wrong_seeds.seeds = 9;
        let err = run_campaign_with(
            &registry(),
            &spec,
            &Resume {
                cells: vec![wrong_seeds],
            },
            &mut NullSink,
        );
        assert!(err.is_err(), "seed-count mismatch must be rejected");

        let mut wrong_index = full.cells[0].clone();
        wrong_index.index = 99;
        let err = run_campaign_with(
            &registry(),
            &spec,
            &Resume {
                cells: vec![wrong_index],
            },
            &mut NullSink,
        );
        assert!(err.is_err(), "out-of-grid index must be rejected");

        let dup = Resume {
            cells: vec![full.cells[0].clone(), full.cells[0].clone()],
        };
        assert!(
            run_campaign_with(&registry(), &spec, &dup, &mut NullSink).is_err(),
            "duplicate cells must be rejected"
        );
    }

    #[test]
    fn sink_errors_abort_the_campaign() {
        struct FailingSink;
        impl RunSink for FailingSink {
            fn on_run(&mut self, _: &RunRecord) -> Result<(), String> {
                Err("disk full".to_string())
            }
        }
        let spec = CampaignSpec::new("synthetic", 1);
        let err = run_campaign_with(&registry(), &spec, &Resume::none(), &mut FailingSink);
        assert_eq!(err.unwrap_err(), "disk full");
    }
}
