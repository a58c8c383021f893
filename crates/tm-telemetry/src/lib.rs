//! A deterministic metrics registry for the TopoMirage stack.
//!
//! Every layer of the reproduction — the `netsim` event loop, switch
//! pipeline, links and hosts; the controller's discovery, forwarding and
//! latency services; the TopoGuard/TopoGuard+/SPHINX defense modules —
//! publishes run-level metrics into a shared [`Telemetry`] handle. The
//! registry is deliberately boring:
//!
//! * **Counters** — monotonically increasing `u64` event counts.
//! * **Gauges** — last-write-wins or high-water `i64` levels (queue depth).
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
pub const DEFAULT_BUCKET_BOUNDS_NS: [u64; 12] = [
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

    /// Raises gauge `name` to `value` if `value` is higher (high-water
    /// mark).
    pub fn gauge_max(&self, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            let mut reg = inner.borrow_mut();
            let g = reg.gauges.entry(name).or_insert(i64::MIN);
            if value > *g {
                *g = value;
            }
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

    /// Records a virtual-time duration into histogram `name`.
    pub fn observe_duration(&self, name: &'static str, d: Duration) {
        self.observe_ns(name, d.as_nanos());
    }

    /// Takes a deterministic snapshot of all counters, gauges and
    /// histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let reg = inner.borrow();
                MetricsSnapshot {
                    counters: reg
                        .counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    gauges: reg
                        .gauges
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    histograms: reg
                        .histograms
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.snapshot()))
                        .collect(),
                }
            }
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

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
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
    fn gauge_set_and_high_water() {
        let t = Telemetry::new();
        t.gauge_set("level", 3);
        t.gauge_set("level", 1);
        t.gauge_max("hw", 4);
        t.gauge_max("hw", 2);
        let s = t.snapshot();
        assert_eq!(s.gauge("level"), Some(1));
        assert_eq!(s.gauge("hw"), Some(4));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let t = Telemetry::new();
        t.observe_ns("lat", 500); // <= 1 µs bucket
        t.observe_ns("lat", 4_000_000); // <= 5 ms bucket
        t.observe_ns("lat", 99_000_000_000); // overflow
        let s = t.snapshot();
        let h = s.histogram("lat").expect("recorded");
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
            t.gauge_max("depth", 42);
        };
        let (a, b) = (Telemetry::new(), Telemetry::new());
        publish(&a);
        publish(&b);
        assert_eq!(a.snapshot().render(), b.snapshot().render());
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
