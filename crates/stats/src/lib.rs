//! Statistical toolkit for the TopoMirage reproduction.
//!
//! Everything here is deterministic under a seeded [`tm_rand::Rng`]:
//!
//! * [`dist`] — sampling distributions (normal, log-normal, exponential,
//!   shifted Pareto) implemented from first principles so the workspace's
//!   dependency set stays at the approved list. The paper models network
//!   delay as `N(20 ms, 5 ms)` (§V-B1) and identifier-change latency as a
//!   heavy-tailed distribution (Fig. 4); both are built from these.
//! * [`summary`] — offline and online (Welford) summary statistics.
//! * [`quantile`](mod@quantile) — empirical quantiles and the normal inverse CDF, which is
//!   how the attacker derives a probe timeout from a target false-positive
//!   rate ("computing the quantile distribution function", §V-B1).
//! * [`ci`] — Student-t confidence intervals on means; the campaign
//!   runner's `t_interval_of` turns multi-seed sweeps into the paper's
//!   "value ± spread" table entries.
//! * [`iqr`] — the fixed-size latency store and `Q3 + 3·IQR` outlier rule
//!   used by TopoGuard+'s Link Latency Inspector (§VI-D).
//! * [`histogram`] — fixed-bin histograms with a text renderer, used to
//!   regenerate the paper's distribution figures (Figs. 4–8, 10, 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod dist;
pub mod histogram;
pub mod iqr;
pub mod quantile;
pub mod summary;

pub use ci::{student_t_quantile, t_interval, t_interval_of, ConfidenceInterval};
pub use dist::{Distribution, Exponential, LogNormal, Normal, ShiftedPareto, UniformRange};
pub use histogram::Histogram;
pub use iqr::{IqrOutlierDetector, IqrVerdict};
pub use quantile::{normal_inverse_cdf, normal_quantile, quantile, quantile_sorted};
pub use summary::{OnlineStats, Summary};
