//! The campaign runner: (scenario × parameter-grid × seed-range) batch
//! execution with a worker-thread pool, per-run panic isolation,
//! streaming per-cell aggregation, and deterministic sharding with
//! resume.
//!
//! Every other crate in this workspace is single-threaded by contract —
//! the simulation must be a pure function of `(scenario, seed)`. This
//! crate is the one deliberate exception, and it preserves the contract
//! one level up: a **campaign's output is a pure function of (spec,
//! base seed)**, regardless of worker count, OS scheduling, or how the
//! grid is split across shards. Four mechanisms make that true:
//!
//! 1. **Per-run seed derivation.** Run `k` of a campaign draws its seed
//!    as [`tm_rand::stream_seed`]`(base, k)` where `k = cell × seeds +
//!    seed_index` is the run's **global** canonical index — a pure
//!    function of the spec, never of which thread picks the run up, when
//!    it finishes, or which shard executes it.
//! 2. **Single-threaded runs.** Each worker executes one fully
//!    sequential, deterministic simulation at a time; threads never share
//!    simulation state. The pool only distributes *which* runs execute
//!    where.
//! 3. **One canonical-order fold.** A reorder buffer releases results
//!    strictly in `(grid-cell, seed-index)` order into
//!    [`aggregate_stream`], which keeps one open cell (Welford) at a
//!    time, so the merged stream — and therefore every aggregate, table
//!    and JSON record derived from it — is byte-identical for
//!    `--workers 1` and `--workers 8`, while peak memory stays O(cells),
//!    not O(runs). `campaign replay` folds run-log records through the
//!    same function. Regression tests pin it against the retained
//!    two-pass reference ([`aggregate_two_pass`]).
//! 4. **Cell-granular sharding.** [`Shard`] `i/n` owns cells
//!    `index ≡ i (mod n)`; seeds are derived from global indices, so the
//!    union of all shards' streams merged back into canonical order is
//!    the unsharded stream, byte for byte. [`Resume`] hands the runner
//!    the records of cells a previous invocation finished (kept in its
//!    run-log); they take their place in the canonical stream without
//!    being re-run.
//!
//! Failure isolation: each run executes under [`isolate`]
//! (`catch_unwind`), so one panicking parameter point becomes a reported
//! `FAILED(<cause>)` cell instead of killing the whole campaign. The same
//! wrapper is exported for serial drivers (the detection matrix, the
//! sweeps) that want per-cell isolation without the pool.
//!
//! # Example: shard a campaign, then prove the merge is exact
//!
//! ```
//! use tm_campaign::{
//!     run_campaign, Axis, CampaignSpec, Metrics, Registry, Scenario, Shard,
//! };
//!
//! let mut registry = Registry::new();
//! registry
//!     .register(Scenario::new(
//!         "demo",
//!         "seed arithmetic",
//!         vec![Axis::new("k", &["2", "3", "5"])],
//!         |point, seed| {
//!             let k: u64 = point.get("k").unwrap().parse().unwrap();
//!             Metrics::new().with("residue", (seed % k) as f64)
//!         },
//!     ))
//!     .unwrap();
//!
//! let mut spec = CampaignSpec::new("demo", 0xD5_2018);
//! spec.seeds = 6;
//! let whole = run_campaign(&registry, &spec).unwrap();
//!
//! // Run the same campaign as two shards and splice their cells.
//! let mut cells = Vec::new();
//! for index in 0..2 {
//!     let mut shard_spec = spec.clone();
//!     shard_spec.shard = Shard { index, count: 2 };
//!     cells.extend(run_campaign(&registry, &shard_spec).unwrap().cells);
//! }
//! cells.sort_by_key(|c| c.index);
//! assert_eq!(cells, whole.cells); // byte-identical aggregates
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod codec;
pub mod registry;
pub mod runner;
pub mod shard;

pub use aggregate::{
    aggregate_stream, aggregate_two_pass, CampaignMeta, CampaignReport, CellReport, MetricAggregate,
};
pub use registry::{grid_of, Axis, GridPoint, Metrics, Registry, Scenario};
pub use runner::{
    run_campaign, run_campaign_with, CampaignSpec, NullSink, RecordingSink, Resume, RunRecord,
    RunSink, RunStatus, TeeSink,
};
pub use shard::Shard;

/// Runs `f` with panics captured as errors.
///
/// The returned `Err` carries the panic message (for `panic!("…")` and
/// `assert!` payloads; other payload types report a placeholder), which
/// drivers render as `FAILED(<cause>)` in the affected table cell. The
/// message is a pure function of the panic site, so isolated failures do
/// not break output determinism.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolate_passes_values_through() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
    }

    #[test]
    fn isolate_captures_str_and_string_panics() {
        let quiet = runner::SilencedPanics::new();
        assert_eq!(
            isolate(|| panic!("static cause")),
            Err::<(), _>("static cause".into())
        );
        let n = 7;
        assert_eq!(
            isolate(|| panic!("cell {n} bad")),
            Err::<(), _>("cell 7 bad".into())
        );
        drop(quiet);
    }
}
