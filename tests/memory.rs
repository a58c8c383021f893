//! Memory is bounded by the network, not by simulated time: a benign
//! fat-tree soak holds exactly as many live heap bytes after running to
//! `2L` as after running to `L`.
//!
//! A counting global allocator keeps the live byte total. The comparison
//! is of sizes, not RSS, so the host cannot make it flake. This file holds
//! exactly one test, so no other test's allocations mix into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use topomirage::controller::{ControllerConfig, ControllerProfile};
use topomirage::netsim::{LinkProfile, Simulator, TrafficPlan, TrafficWindow};
use topomirage::scenarios::fabric::TRAFFIC_START;
use topomirage::scenarios::{DefenseStack, TrafficLoad};
use topomirage::telemetry::Telemetry;
use topomirage::topo::TopoKind;
use topomirage::types::{Duration, SimTime};

/// Live heap bytes: allocations minus deallocations, resizes included.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

/// A size as a signed byte delta. `GlobalAlloc`'s contract keeps every
/// size it passes, rounded up to its alignment, within `isize::MAX`, so
/// the cast is exact.
fn signed(bytes: usize) -> isize {
    bytes as isize
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(signed(layout.size()), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(signed(layout.size()), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(signed(new_size) - signed(layout.size()), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A fat-tree-4 soak under `stack`, built as `tm_core::scale` builds it
/// (no traffic) or as `tm_core::load` does (flow-level `load`, its window
/// open until `end`).
fn soak(stack: DefenseStack, load: Option<TrafficLoad>, end: SimTime) -> Simulator {
    let kind = TopoKind::FatTree { k: 4 };
    let seed = 0xD5_2018;
    let mut spec = kind.generate(seed, 0).build_network(
        LinkProfile::fixed(Duration::from_micros(50)),
        LinkProfile::fixed(Duration::from_millis(1)),
    );
    spec.set_controller(Box::new(stack.build_controller(ControllerConfig {
        profile: ControllerProfile::FLOODLIGHT,
        tree_scoped_flood: load.is_some(),
        ..ControllerConfig::default()
    })));
    spec.set_telemetry(Telemetry::new());
    let plan = match load {
        Some(load) => load.plan_for(kind, TrafficWindow::new(SimTime::ZERO + TRAFFIC_START, end)),
        None => TrafficPlan::new(),
    };
    Simulator::with_traffic_plan(spec, seed, plan)
}

#[test]
fn live_heap_stays_flat_from_l_to_2l() {
    let cases = [
        (
            "TOPOGUARD+, no traffic",
            DefenseStack::TopoGuardPlus,
            None,
            150,
        ),
        (
            "TOPOGUARD+, steady load",
            DefenseStack::TopoGuardPlus,
            Some(TrafficLoad::steady(50, 2.0)),
            30,
        ),
        (
            "TopoGuard+SPHINX, steady load",
            DefenseStack::TopoGuardSphinx,
            Some(TrafficLoad::steady(20, 5.0)),
            30,
        ),
    ];
    // A soak that stalled after L would hold its heap flat for nothing.
    let events = |sim: &Simulator| {
        sim.metrics_snapshot()
            .counter("netsim.engine.events_processed")
            .unwrap_or(0)
    };
    for (name, stack, load, l_secs) in cases {
        let l = SimTime::ZERO + Duration::from_secs(l_secs);
        let two_l = SimTime::ZERO + Duration::from_secs(2 * l_secs);
        let mut sim = soak(stack, load, two_l);
        sim.run_until(l);
        let events_at_l = events(&sim);
        let at_l = LIVE_BYTES.load(Ordering::Relaxed);
        sim.run_until(two_l);
        let at_2l = LIVE_BYTES.load(Ordering::Relaxed);
        assert!(events(&sim) > events_at_l, "{name}: no events after L");
        assert_eq!(
            at_l,
            at_2l,
            "{name}: live heap bytes at {l_secs} s and at {} s",
            2 * l_secs
        );
    }
}
