//! The streaming worker-pool executor: fans `(grid-cell, seed)` runs out
//! across a fixed-size thread pool and hands the results, **merged back
//! into canonical order**, to [`aggregate_stream`], which holds one open
//! cell at a time instead of every run of the campaign.
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
//! * The calling thread holds out-of-order arrivals in a reorder buffer
//!   and releases them strictly in canonical order — past the caller's
//!   [`RunSink`], then into [`aggregate_stream`]. A cell resumed from a
//!   run-log contributes its kept records at its place in that order
//!   instead. The folded stream is identical for any worker count and
//!   any resume point, so everything derived from it (aggregates,
//!   render, run-log bytes) is too.
//! * A cell finalizes the moment its last seed is folded; its raw
//!   samples are dropped then. Peak memory is O(cells) finalized reports
//!   plus the reorder buffer, never O(runs) retained metrics.
//!
//! Each run body executes under [`crate::isolate`], so a panic in one
//! parameter point is recorded as [`RunStatus::Failed`] with its message
//! and the campaign continues.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::aggregate::{aggregate_stream, CampaignMeta, CampaignReport};
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

    /// Rejects a spec no campaign can run: zero seeds per cell, zero
    /// workers, or a confidence outside (0, 1). [`run_campaign_with`]
    /// checks first; a driver with state on disk checks before touching
    /// it.
    pub fn check(&self) -> Result<(), String> {
        if self.seeds == 0 {
            return Err("campaign needs at least one seed per cell".to_string());
        }
        if self.workers == 0 {
            return Err("campaign needs at least one worker".to_string());
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!("confidence {} outside (0, 1)", self.confidence));
        }
        Ok(())
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

/// Cells already finished by a previous invocation, as the records its
/// run-log kept (`bench::runlog::resume`).
///
/// Resumed cells are **not** re-run: their records take their place in
/// the canonical stream the report folds, and the sink never sees them —
/// the invocation that completed them wrote them.
#[derive(Clone, Debug, Default)]
pub struct Resume {
    /// The kept records, whole cells in canonical order.
    pub records: Vec<RunRecord>,
}

impl Resume {
    /// No resumed cells: run everything the shard owns.
    pub fn none() -> Resume {
        Resume {
            records: Vec::new(),
        }
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
/// Fails (with a message, never a panic) on an unknown scenario, a spec
/// [`CampaignSpec::check`] rejects, or an internal pool error. Individual run panics do
/// *not* fail the campaign; they surface as failed cells in the report.
pub fn run_campaign(registry: &Registry, spec: &CampaignSpec) -> Result<CampaignReport, String> {
    run_campaign_with(registry, spec, &Resume::none(), &mut NullSink)
}

/// Runs a campaign with streaming aggregation, skipping `resume`d cells
/// and feeding the canonical stream through `sink`.
///
/// The report is byte-identical for any `spec.workers`, and the union of
/// all shards' reports (merged in cell order) is byte-identical to an
/// unsharded run — both pinned by the differential tests. Resumed records
/// must be whole cells this shard owns, in canonical order, with their
/// derived seeds; anything else is an error naming the cell, not silent
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
    spec.check()?;
    // Everything below derives (cell, seed_index) as `j / spec.seeds` and
    // `j % spec.seeds`; restate `check`'s guard where the divisions live.
    debug_assert!(spec.seeds > 0);
    let grid = scenario.cells();
    let owned: Vec<usize> = (0..grid.len()).filter(|&c| spec.shard.owns(c)).collect();

    let resumed: BTreeSet<usize> = resume.records.iter().map(|r| r.cell).collect();
    if let Some(cell) = resumed
        .iter()
        .find(|&&c| c >= grid.len() || !spec.shard.owns(c))
    {
        return Err(format!(
            "resumed cell {cell} is not a cell of shard {} in the {}-cell grid",
            spec.shard.label(),
            grid.len()
        ));
    }
    // Pending cells: owned, not already finished by a previous run.
    let pending: Vec<usize> = owned
        .iter()
        .copied()
        .filter(|c| !resumed.contains(c))
        .collect();
    let n_pending_runs = pending.len() * spec.seeds;

    let _quiet = if spec.quiet_panics {
        Some(SilencedPanics::new())
    } else {
        None
    };

    // Fan out: workers claim pending-run indices `j` from a shared
    // counter and stream `(j, status)` back over a channel — no shared
    // mutable results, no locks on the hot path.
    let next = AtomicUsize::new(0);
    let run_one = |j: usize| -> RunStatus {
        let status = pending
            .get(j / spec.seeds)
            .and_then(|&cell| grid.get(cell).map(|point| (cell, point)))
            .map(|(cell, point)| {
                let k = cell * spec.seeds + j % spec.seeds;
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
    let mut kept = resume.records.iter().peekable();
    let report = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(|| {
                    let tx = tx;
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        // A closed channel means the fold stopped early.
                        if j >= n_pending_runs || tx.send((j, run_one(j))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        // The canonical stream: every owned (cell, seed-index) slot in
        // order, filled by the cell's kept record if it was resumed, else
        // by its fresh run once the reorder buffer releases it (and the
        // sink has taken it). The stream stops at the first slot it
        // cannot fill.
        let mut buffer: BTreeMap<usize, RunStatus> = BTreeMap::new();
        let mut next_fresh = 0usize;
        let mut stream_error: Option<String> = None;
        let slots = owned
            .iter()
            .flat_map(|&cell| (0..spec.seeds).map(move |seed_index| (cell, seed_index)));
        let stream = slots.map_while(|(cell, seed_index)| {
            if resumed.contains(&cell) {
                return kept.next_if(|r| r.cell == cell).cloned();
            }
            let status = loop {
                if let Some(status) = buffer.remove(&next_fresh) {
                    break status;
                }
                match rx.recv() {
                    Ok((j, status)) => buffer.insert(j, status),
                    Err(_) => {
                        stream_error = Some(format!(
                            "pool emitted {next_fresh} of {n_pending_runs} runs"
                        ));
                        return None;
                    }
                };
            };
            next_fresh += 1;
            let k = cell * spec.seeds + seed_index;
            let record = RunRecord {
                cell,
                seed_index,
                seed: tm_rand::stream_seed(spec.base_seed, k as u64),
                status,
            };
            match sink.on_run(&record) {
                Ok(()) => Some(record),
                Err(e) => {
                    stream_error = Some(e);
                    None
                }
            }
        });
        let folded = aggregate_stream(&CampaignMeta::for_spec(scenario, spec), &grid, stream);
        // Workers notice the closed channel and wind down on their own.
        drop(rx);
        for h in handles {
            h.join()
                .map_err(|_| "campaign worker died outside run isolation".to_string())?;
        }
        match stream_error {
            Some(e) => Err(e),
            None => folded,
        }
    })?;
    match kept.next() {
        Some(r) => Err(format!(
            "resumed cell {} has a record out of canonical order or listed twice \
             (seed index {})",
            r.cell, r.seed_index
        )),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Axis, Scenario};

    /// `synthetic` (2 cells) and `wide` (4 cells): pure arithmetic on the
    /// point and the seed.
    fn registry() -> Registry {
        let mut r = Registry::new();
        for (name, values) in [
            ("synthetic", &["x", "y"][..]),
            ("wide", &["x", "y", "z", "w"]),
        ] {
            r.register(Scenario::new(
                name,
                "pure arithmetic on the seed",
                vec![Axis::new("a", values)],
                |point, seed| {
                    let bias = match point.get("a") {
                        Some("x") => 1.0,
                        Some("y") => 2.0,
                        _ => 3.0,
                    };
                    Metrics::new()
                        .with("value", bias * (seed % 1000) as f64)
                        .with("flag", f64::from(u8::from(seed % 2 == 0)))
                },
            ))
            .expect("register");
        }
        r
    }

    /// A fresh run of `spec` and the stream its sink saw.
    fn recorded(spec: &CampaignSpec) -> (CampaignReport, Vec<RunRecord>) {
        let mut sink = RecordingSink::default();
        let report =
            run_campaign_with(&registry(), spec, &Resume::none(), &mut sink).expect("fresh run");
        (report, sink.runs)
    }

    /// `runs` of the given cells, as a run-log would keep them.
    fn kept(runs: &[RunRecord], cells: &[usize]) -> Resume {
        Resume {
            records: runs
                .iter()
                .filter(|r| cells.contains(&r.cell))
                .cloned()
                .collect(),
        }
    }

    #[test]
    fn unknown_scenario_and_bad_spec_are_errors() {
        let r = registry();
        assert!(run_campaign(&r, &CampaignSpec::new("missing", 1)).is_err());
        let mut zero_seeds = CampaignSpec::new("synthetic", 1);
        zero_seeds.seeds = 0;
        let mut zero_workers = CampaignSpec::new("synthetic", 1);
        zero_workers.workers = 0;
        let mut bad_conf = CampaignSpec::new("synthetic", 1);
        bad_conf.confidence = 1.0;
        for spec in [zero_seeds, zero_workers, bad_conf] {
            let err = spec.check().expect_err("a spec no campaign can run");
            assert_eq!(run_campaign(&r, &spec).map(|_| ()), Err(err));
        }
        assert_eq!(CampaignSpec::new("synthetic", 1).check(), Ok(()));
    }

    #[test]
    fn sink_sees_runs_cell_major_with_derived_seeds() {
        let mut spec = CampaignSpec::new("synthetic", 0xC0FFEE);
        spec.seeds = 3;
        let mut sink = RecordingSink::default();
        let report =
            run_campaign_with(&registry(), &spec, &Resume::none(), &mut sink).expect("campaign");
        assert_eq!(report.total_runs(), 6);
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
    fn resumed_and_fresh_cells_interleave_in_the_fold() {
        let mut spec = CampaignSpec::new("wide", 5);
        spec.seeds = 3;
        spec.workers = 2;
        let (full, runs) = recorded(&spec);
        let mut sink = RecordingSink::default();
        let resumed = run_campaign_with(&registry(), &spec, &kept(&runs, &[1, 3]), &mut sink)
            .expect("resumed run");
        assert_eq!(resumed.render(), full.render());
        assert_eq!(resumed, full);
        assert_eq!(
            sink.runs,
            kept(&runs, &[0, 2]).records,
            "only cells 0 and 2 re-run"
        );
    }

    #[test]
    fn a_shard_resumes_its_own_cell() {
        let mut spec = CampaignSpec::new("wide", 5);
        spec.seeds = 2;
        spec.shard = Shard { index: 1, count: 2 };
        let (fresh, runs) = recorded(&spec);
        let mut sink = RecordingSink::default();
        let resumed = run_campaign_with(&registry(), &spec, &kept(&runs, &[1]), &mut sink)
            .expect("resumed shard");
        assert_eq!(resumed.render(), fresh.render());
        assert_eq!(resumed, fresh);
        assert_eq!(sink.runs, kept(&runs, &[3]).records);
    }

    #[test]
    fn foreign_or_malformed_resume_records_are_rejected() {
        let mut spec = CampaignSpec::new("wide", 5);
        spec.seeds = 2;
        let (_, runs) = recorded(&spec);
        let cell1 = kept(&runs, &[1]).records;
        let mut beyond = cell1.clone();
        for r in &mut beyond {
            r.cell = 5;
            r.seed = tm_rand::stream_seed(5, (5 * 2 + r.seed_index) as u64);
        }
        let mut forged = cell1.clone();
        forged[1].seed ^= 1;
        let mut shard1 = spec.clone();
        shard1.shard = Shard { index: 1, count: 2 };
        for (what, spec, records, cell) in [
            ("not owned", &shard1, kept(&runs, &[0]).records, "cell 0"),
            ("outside the grid", &spec, beyond, "cell 5"),
            (
                "listed twice",
                &spec,
                [&cell1[..], &cell1[..]].concat(),
                "cell 1",
            ),
            ("missing a seed", &spec, cell1[..1].to_vec(), "cell 1"),
            ("not the derived seed", &spec, forged, "cell 1"),
        ] {
            let resume = Resume { records };
            let err = run_campaign_with(&registry(), spec, &resume, &mut NullSink).expect_err(what);
            assert!(err.contains(cell), "{what}: {err}");
        }
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
