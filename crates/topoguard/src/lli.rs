//! TOPOGUARD+'s Link Latency Inspector (§VI-D).
//!
//! Out-of-band Port Amnesia relays LLDP over a side channel, which cannot
//! avoid adding propagation and encode/decode latency. The LLI measures
//! every LLDP traversal's switch-link latency as `T_LLDP − T_SW1 − T_SW2`
//! (encrypted departure timestamp minus the two control-link delays), keeps
//! verified latencies in a fixed-size store, and flags any new measurement
//! beyond `Q3 + 3·IQR` as a fabricated link.
//!
//! # Per-trunk baselines
//!
//! The store is keyed by the *undirected trunk* (the canonical orientation
//! of the directed link), not shared across the fabric. A single global
//! store mixes every trunk's latency population, and on large fabrics —
//! where link profiles legitimately differ across tiers — the pooled IQR
//! fence tightens around the majority population and flags honest trunks
//! whose baseline merely sits in the distribution's tail (the measured
//! false-positive flip on the 80-switch fat-tree). Both directions of a
//! trunk share one store: they traverse the same physical medium, and
//! pooling them halves warmup time.
//!
//! A trunk with *no verified history* — typically a link appearing after
//! the fabric has formed, exactly a fabricated link's signature — cannot
//! be judged against its own baseline (it would happily verify its own
//! relay latency). Its samples are instead judged against the fabric's
//! most permissive established fence (the maximum per-trunk threshold);
//! only a sample passing that reference seeds the trunk's own store. At
//! bootstrap no fence is established yet, so every honest trunk warms up
//! against itself, whatever its tier's latency.

use controller::{
    AlertKind, Command, CounterHandle, DefenseModule, DirectedLink, HistogramHandle,
    LinkLatencySample, LinkTable, ModuleCtx,
};
use sdn_types::{Duration, SimTime};
use tm_stats::iqr::{MIN_SAMPLES, STORE_CAPACITY};
use tm_stats::{IqrOutlierDetector, IqrVerdict};

/// LLI configuration. Each trunk's store holds the paper's
/// [`STORE_CAPACITY`] latencies and judges after [`MIN_SAMPLES`]; an
/// anomalous update is vetoed (the paper's "may optionally block the
/// topology update").
#[derive(Clone, Copy, Debug)]
pub struct LliConfig {
    /// The outlier fence multiplier `k` in `Q3 + k·IQR` (paper: 3).
    pub iqr_k: f64,
}

impl Default for LliConfig {
    fn default() -> Self {
        LliConfig { iqr_k: 3.0 }
    }
}

/// One judgement of the LLI: a measured latency, the fence it was judged
/// against and the verdict. [`Lli::inspect`] returns it; the LLI keeps no
/// history of them (Figs. 10 and 11 record their own series).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LliObservation {
    /// When the measurement completed.
    pub at: SimTime,
    /// The measured switch-link latency, milliseconds.
    pub latency_ms: f64,
    /// The detection threshold at that moment (`None` during warmup).
    pub threshold_ms: Option<f64>,
    /// Whether the measurement was flagged anomalous.
    pub flagged: bool,
    /// The link the measurement belongs to.
    pub link: DirectedLink,
}

/// The Link Latency Inspector.
pub struct Lli {
    config: LliConfig,
    /// One verified-latency store per undirected trunk (see module docs),
    /// by the trunk's canonical orientation.
    detectors: LinkTable<IqrOutlierDetector>,
    /// `topoguard.lli.samples` and `topoguard.lli.link_latency_ns`,
    /// resolved from the run's telemetry on the first judgement.
    metrics: Option<(CounterHandle, HistogramHandle)>,
}

/// The canonical orientation of a trunk: both directions of the same
/// physical link map to one store key.
fn trunk_key(link: DirectedLink) -> DirectedLink {
    link.min(link.reversed())
}

impl Lli {
    /// Creates the module.
    pub fn new(config: LliConfig) -> Self {
        Lli {
            config,
            detectors: LinkTable::new(),
            metrics: None,
        }
    }

    /// The detection threshold for a trunk, if that trunk is past warmup.
    /// Either direction of the link selects the same baseline.
    pub fn threshold_ms(&self, link: DirectedLink) -> Option<f64> {
        self.detectors
            .get(&trunk_key(link))
            .and_then(IqrOutlierDetector::threshold)
    }

    /// The number of trunks with a baseline store.
    pub fn trunks_tracked(&self) -> usize {
        self.detectors.len()
    }

    /// The fence a history-less trunk is judged against: the maximum
    /// established threshold across the *other* trunks (the most
    /// permissive honest baseline). `None` until some trunk is past
    /// warmup.
    fn reference_threshold_ms(&self, exclude: DirectedLink) -> Option<f64> {
        self.detectors
            .iter()
            .filter(|&(key, _)| key != exclude)
            .filter_map(|(_, d)| d.threshold())
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.max(t)))
            })
    }

    /// Inspects one link update: measures its latency and judges it
    /// against the trunk's fence; a sample that passes joins the trunk's
    /// store. Returns `None` without timestamp evidence, and the judgement
    /// otherwise. A flagged judgement has already raised its alert;
    /// [`DefenseModule::on_link_update`] turns it into a veto.
    pub fn inspect(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        sample: Option<LinkLatencySample>,
    ) -> Option<LliObservation> {
        // No timestamp evidence (LLI disabled controller-side, or control
        // latency not yet measured): nothing to judge.
        let latency_ms = sample.and_then(|s| s.link_latency_ms())?;

        let key = trunk_key(link);
        let verdict = match self.detectors.get_mut(&key) {
            Some(detector) if !detector.is_empty() => detector.inspect(latency_ms),
            // No verified history for this trunk yet: judge against the
            // fabric reference fence (see module docs) before letting the
            // sample seed the trunk's own store.
            _ => {
                let reference = self.reference_threshold_ms(key);
                let detector = self.detectors.get_or_insert_with(key, || {
                    IqrOutlierDetector::new(STORE_CAPACITY, MIN_SAMPLES, self.config.iqr_k)
                });
                match reference {
                    Some(fence) if latency_ms > fence => IqrVerdict::Outlier { threshold: fence },
                    _ => detector.inspect(latency_ms),
                }
            }
        };
        let (threshold_ms, flagged) = match verdict {
            IqrVerdict::Warmup => (None, false),
            IqrVerdict::Normal { threshold } => (Some(threshold), false),
            IqrVerdict::Outlier { threshold } => (Some(threshold), true),
        };
        let (samples, latencies) = self.metrics.get_or_insert_with(|| {
            (
                cx.telemetry.counter_handle("topoguard.lli.samples"),
                cx.telemetry
                    .histogram_handle("topoguard.lli.link_latency_ns"),
            )
        });
        samples.inc();
        // Milliseconds → nanoseconds for the shared latency bucket ladder.
        latencies.observe(Duration::from_nanos((latency_ms * 1e6) as u64));

        if let IqrVerdict::Outlier { threshold } = verdict {
            cx.telemetry.counter_inc("topoguard.lli.detections");
            cx.raise(
                AlertKind::AbnormalLinkLatency,
                format!(
                    "detected suspicious link discovery: an abnormal delay during LLDP propagation; link delay is abnormal. delay:{:.0}ms, threshold:{:.0}ms ({} -> {})",
                    latency_ms, threshold, link.src, link.dst
                ),
            );
        }
        Some(LliObservation {
            at: cx.now,
            latency_ms,
            threshold_ms,
            flagged,
            link,
        })
    }
}

impl DefenseModule for Lli {
    fn name(&self) -> &'static str {
        "topoguard+/lli"
    }

    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: DirectedLink,
        _is_new: bool,
        sample: Option<LinkLatencySample>,
    ) -> Command {
        match self.inspect(cx, link, sample) {
            Some(judgement) if judgement.flagged => Command::Block,
            _ => Command::Continue,
        }
    }
}
