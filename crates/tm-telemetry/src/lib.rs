//! A deterministic metrics registry for the TopoMirage stack.
//!
//! Every layer of the reproduction — the `netsim` event loop, switch
//! pipeline, links and hosts; the controller's discovery, forwarding and
//! latency services; the TopoGuard/TopoGuard+/SPHINX defense modules —
//! publishes run-level metrics into a shared [`Telemetry`] handle. The
//! registry is deliberately boring:
//!
//! * **Counters** — monotonically increasing `u64` event counts.
//! * **Gauges** — last-write-wins `i64` levels (queue depth).
//! * **Histograms** — fixed-bucket latency/size distributions. Buckets are
//!   fixed at first observation, so two runs that observe the same values
//!   produce byte-identical snapshots.
//!
//! # Determinism
//!
//! [`MetricsSnapshot`] contains only virtual-time-derived data, keyed by
//! `BTreeMap` (stable iteration order) and rendered by [`MetricsSnapshot::render`]
//! into a canonical text form. Two simulation runs with the same seed must
//! produce byte-identical renders — the workspace determinism suite pins
//! this. Nothing here reads the wall clock; wall time is measured from
//! outside the simulator (see `benches/topobench`).
//!
//! # Zero cost when unused
//!
//! A handle created with [`Telemetry::disabled`] carries no registry at
//! all: every publish call is a branch on `Option` and returns
//! immediately, with no allocation and no `RefCell` traffic. Components
//! default to a disabled handle so standalone unit tests pay nothing.
//!
//! The handle is a `Rc<RefCell<...>>` clone — the simulator is
//! single-threaded by design, and every subsystem (controller logic, host
//! apps, defense modules) can hold its own cheap clone of the same
//! registry.
//!
//! # Hot paths
//!
//! The by-name calls search a map on every write. A site that fires once
//! per simulated event or frame resolves its metric once per run instead
//! ([`Telemetry::counter_handle`], [`Telemetry::histogram_handle`]) and
//! writes through the returned handle, which reaches its slot without a
//! name lookup. A snapshot merges the slots into the by-name metrics, so
//! which API wrote a name never shows in [`MetricsSnapshot::render`]: a
//! resolved name stays absent until its first write, exactly like a name
//! nobody wrote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use sdn_types::Duration;

/// Default histogram bucket upper bounds, in nanoseconds: 1 µs to 10 s,
/// shaped for the latency scales the simulator produces (link transits are
/// milliseconds, control round trips are low milliseconds, discovery
/// cadences are seconds). Values above the last bound land in the implicit
/// overflow bucket.
const DEFAULT_BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,          // 1 µs
    10_000,         // 10 µs
    100_000,        // 100 µs
    1_000_000,      // 1 ms
    2_000_000,      // 2 ms
    5_000_000,      // 5 ms
    10_000_000,     // 10 ms
    20_000_000,     // 20 ms
    50_000_000,     // 50 ms
    100_000_000,    // 100 ms
    1_000_000_000,  // 1 s
    10_000_000_000, // 10 s
];

/// A fixed-bucket histogram plus running count/sum/min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Histogram {
    /// Upper bounds (inclusive) of each bucket, ascending.
    bounds: &'static [u64],
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` (same bucket ladder) into `self`.
    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one entry per bound plus a final overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// One slot per [`CounterHandle`], in resolution order; `None` until
    /// the first write.
    counter_slots: Vec<(&'static str, Option<u64>)>,
    /// One slot per [`HistogramHandle`]; `None` until the first
    /// observation.
    histogram_slots: Vec<(&'static str, Option<Histogram>)>,
}

/// A counter resolved once by name ([`Telemetry::counter_handle`]); writes
/// go straight to its slot. The default handle is disabled.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle {
    registry: Option<Rc<RefCell<Registry>>>,
    slot: usize,
}

impl CounterHandle {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments the counter by `n`. Adding 0 still makes the name appear
    /// in snapshots, as [`Telemetry::counter_add`] does.
    pub fn add(&self, n: u64) {
        if let Some(registry) = &self.registry {
            if let Some((_, value)) = registry.borrow_mut().counter_slots.get_mut(self.slot) {
                *value.get_or_insert(0) += n;
            }
        }
    }
}

/// A histogram resolved once by name ([`Telemetry::histogram_handle`]),
/// on the default bucket ladder. The default handle is disabled.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    registry: Option<Rc<RefCell<Registry>>>,
    slot: usize,
}

impl HistogramHandle {
    /// Records a virtual-time duration.
    pub fn observe(&self, d: Duration) {
        if let Some(registry) = &self.registry {
            if let Some((_, hist)) = registry.borrow_mut().histogram_slots.get_mut(self.slot) {
                hist.get_or_insert_with(|| Histogram::new(&DEFAULT_BUCKET_BOUNDS_NS))
                    .observe(d.as_nanos());
            }
        }
    }
}

/// A cheaply cloneable handle onto a shared metrics registry (or onto
/// nothing, when disabled).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl Telemetry {
    /// Creates an enabled handle with a fresh, empty registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Registry::default()))),
        }
    }

    /// Creates a disabled handle: every publish call is a no-op and
    /// [`Telemetry::snapshot`] returns an empty snapshot.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Increments counter `name` by one.
    pub fn counter_inc(&self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Increments counter `name` by `n`.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            *inner.borrow_mut().counters.entry(name).or_insert(0) += n;
        }
    }

    /// Sets counter `name` to an absolute value (for flushing totals that
    /// are accumulated outside the registry on hot paths). Idempotent.
    pub fn counter_set(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().counters.insert(name, value);
        }
    }

    /// Sets gauge `name` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().gauges.insert(name, value);
        }
    }

    /// Records `ns` into histogram `name` (default bucket ladder).
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(&DEFAULT_BUCKET_BOUNDS_NS))
                .observe(ns);
        }
    }

    /// Resolves counter `name` to a handle for a hot path. Resolve once per
    /// run, not per component: each call takes a new slot. Slots that share
    /// a name, and a by-name counter of that name, sum in snapshots.
    pub fn counter_handle(&self, name: &'static str) -> CounterHandle {
        let Some(inner) = &self.inner else {
            return CounterHandle::default();
        };
        let mut reg = inner.borrow_mut();
        reg.counter_slots.push((name, None));
        CounterHandle {
            registry: Some(Rc::clone(inner)),
            slot: reg.counter_slots.len() - 1,
        }
    }

    /// Resolves histogram `name` to a handle for a hot path, under the same
    /// rules as [`Telemetry::counter_handle`]: histograms that share a name
    /// merge in snapshots.
    pub fn histogram_handle(&self, name: &'static str) -> HistogramHandle {
        let Some(inner) = &self.inner else {
            return HistogramHandle::default();
        };
        let mut reg = inner.borrow_mut();
        reg.histogram_slots.push((name, None));
        HistogramHandle {
            registry: Some(Rc::clone(inner)),
            slot: reg.histogram_slots.len() - 1,
        }
    }

    /// Takes a deterministic snapshot of all counters, gauges and
    /// histograms, handle slots included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let reg = inner.borrow();
        let mut counters = reg.counters.clone();
        for (name, value) in &reg.counter_slots {
            if let Some(value) = value {
                *counters.entry(name).or_insert(0) += value;
            }
        }
        let mut histograms = reg.histograms.clone();
        for (name, hist) in &reg.histogram_slots {
            if let Some(hist) = hist {
                histograms
                    .entry(name)
                    .or_insert_with(|| Histogram::new(hist.bounds))
                    .merge(hist);
            }
        }
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time, fully deterministic copy of the registry.
///
/// Entries are sorted by metric name. [`MetricsSnapshot::render`] produces
/// a canonical text form that is byte-identical across runs with the same
/// seed — the format the workspace determinism tests compare.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded (or telemetry was disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Renders the snapshot into its canonical text form: one metric per
    /// line, sorted, with a fixed grammar. Byte-identical across runs with
    /// the same seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "hist {name} count={} sum={} min={} max={} buckets=",
                h.count, h.sum, h.min, h.max
            );
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = write!(out, "{b}:{c}");
                    }
                    None => {
                        let _ = write!(out, "+inf:{c}");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let t = Telemetry::new();
        t.counter_inc("b.two");
        t.counter_add("a.one", 5);
        t.counter_inc("b.two");
        let s = t.snapshot();
        assert_eq!(
            s.counters,
            vec![("a.one".to_string(), 5), ("b.two".to_string(), 2)]
        );
        assert_eq!(s.counter("b.two"), Some(2));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        t.counter_inc("x");
        t.gauge_set("y", 1);
        t.observe_ns("z", 10);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let a = Telemetry::new();
        let b = a.clone();
        a.counter_inc("shared");
        b.counter_inc("shared");
        assert_eq!(a.snapshot().counter("shared"), Some(2));
    }

    #[test]
    fn gauge_set_last_write_wins() {
        let t = Telemetry::new();
        t.gauge_set("level", 3);
        t.gauge_set("level", 1);
        assert_eq!(t.snapshot().gauge("level"), Some(1));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let t = Telemetry::new();
        t.observe_ns("lat", 500); // <= 1 µs bucket
        t.observe_ns("lat", 4_000_000); // <= 5 ms bucket
        t.observe_ns("lat", 99_000_000_000); // overflow
        let s = t.snapshot();
        let [(name, h)] = &s.histograms[..] else {
            panic!("one histogram recorded: {:?}", s.histograms);
        };
        assert_eq!(name, "lat");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 500);
        assert_eq!(h.max, 99_000_000_000);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[5], 1); // the 5 ms bucket
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert_eq!(h.sum, 500 + 4_000_000 + 99_000_000_000);
    }

    #[test]
    fn render_is_stable_and_complete() {
        let t = Telemetry::new();
        t.counter_add("c", 7);
        t.gauge_set("g", -2);
        t.observe_ns("h", 3);
        let a = t.snapshot().render();
        let b = t.snapshot().render();
        assert_eq!(a, b);
        assert!(a.contains("counter c 7\n"));
        assert!(a.contains("gauge g -2\n"));
        assert!(a.contains("hist h count=1 sum=3 min=3 max=3 buckets=1000:1,"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn identical_publish_sequences_render_identically() {
        let publish = |t: &Telemetry| {
            for i in 0..100u64 {
                t.counter_inc("events");
                t.observe_ns("delay", i * 1_000);
            }
            t.gauge_set("depth", 42);
        };
        let (a, b) = (Telemetry::new(), Telemetry::new());
        publish(&a);
        publish(&b);
        assert_eq!(a.snapshot().render(), b.snapshot().render());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn handles_render_like_by_name_writes() {
        // The same writes, once by name and once through handles, render
        // byte-identically: names never written stay absent, a name
        // written with 0 appears.
        let by_name = Telemetry::new();
        by_name.counter_inc("a.hot");
        by_name.counter_add("a.hot", 2);
        by_name.counter_add("a.zero", 0);
        by_name.observe_ns("a.lat", 1_500);
        by_name.observe_ns("a.lat", 7);
        let handles = Telemetry::new();
        let hot = handles.counter_handle("a.hot");
        let zero = handles.counter_handle("a.zero");
        let _never = handles.counter_handle("a.never");
        let lat = handles.histogram_handle("a.lat");
        let _never_observed = handles.histogram_handle("a.quiet");
        hot.inc();
        hot.add(2);
        zero.add(0);
        lat.observe(Duration::from_nanos(1_500));
        lat.observe(Duration::from_nanos(7));
        assert_eq!(handles.snapshot().render(), by_name.snapshot().render());
        assert_eq!(handles.snapshot().counter("a.never"), None);
        assert_eq!(handles.snapshot().counter("a.zero"), Some(0));
    }

    #[test]
    fn slots_sharing_a_name_merge_with_by_name_writes() {
        let t = Telemetry::new();
        let (c1, c2) = (t.counter_handle("c"), t.counter_handle("c"));
        let (h1, h2) = (t.histogram_handle("h"), t.histogram_handle("h"));
        c1.add(3);
        c2.inc();
        t.counter_inc("c");
        h1.observe(Duration::from_nanos(5));
        h2.observe(Duration::from_nanos(2_000_000));
        t.observe_ns("h", 40);
        let merged = Telemetry::new();
        merged.counter_add("c", 5);
        for ns in [5, 2_000_000, 40] {
            merged.observe_ns("h", ns);
        }
        assert_eq!(t.snapshot(), merged.snapshot());
    }

    #[test]
    fn disabled_handles_are_no_ops() {
        let t = Telemetry::disabled();
        t.counter_handle("x").inc();
        t.histogram_handle("y").observe(Duration::from_nanos(1));
        CounterHandle::default().add(4);
        assert!(t.snapshot().is_empty());
    }
}
