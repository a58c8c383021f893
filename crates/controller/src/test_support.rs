//! Test support: drive a [`DefenseModule`](crate::DefenseModule) directly,
//! without a simulator or controller.
//!
//! Intended for unit tests of defense logic (and used by the `topoguard`
//! and `sphinx` test suites); not part of the stable API surface.

use openflow::OfMessage;
use sdn_types::{DatapathId, SimTime};
use tm_telemetry::Telemetry;

use crate::alerts::AlertSink;
use crate::devices::DeviceTable;
use crate::module::ModuleCtx;
use crate::topology::Topology;

/// Owns the state a [`ModuleCtx`] borrows, so tests can create contexts at
/// successive timestamps and inspect alerts/outbox in between.
pub struct ModuleHarness {
    /// The alert sink modules raise into.
    pub alerts: AlertSink,
    /// The topology view modules read.
    pub topology: Topology,
    /// The device table modules read.
    pub devices: DeviceTable,
    /// Messages modules queued via [`ModuleCtx::send`].
    pub outbox: Vec<(DatapathId, OfMessage)>,
    /// Metrics handle handed to modules (enabled, so tests can assert on
    /// published counters).
    pub telemetry: Telemetry,
}

impl Default for ModuleHarness {
    fn default() -> Self {
        ModuleHarness::new()
    }
}

impl ModuleHarness {
    /// Creates an empty harness.
    pub fn new() -> Self {
        ModuleHarness {
            alerts: AlertSink::new(),
            topology: Topology::new(),
            devices: DeviceTable::new(),
            outbox: Vec::new(),
            telemetry: Telemetry::new(),
        }
    }

    /// Produces a context at `now`, borrowing the harness state. Alerts
    /// raised through it carry the source `"test-harness"`.
    pub fn ctx(&mut self, now: SimTime) -> ModuleCtx<'_> {
        ModuleCtx {
            now,
            topology: &self.topology,
            devices: &self.devices,
            telemetry: &self.telemetry,
            source: "test-harness",
            alerts: &mut self.alerts,
            outbox: &mut self.outbox,
        }
    }
}
