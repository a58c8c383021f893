//! The four workloads and one rep of each, assembled from the public APIs
//! of `tm-topo`, `netsim`, `controller`, the defense crates, `tm-core` and
//! the `fabric-matrix` campaign scenario.
//!
//! Why these four: `load-probe` is population-heavy (ARP announcements
//! flood Packet-Ins through the controller and every defense module),
//! `flow-churn` is flow-heavy and population-light (the engine and the
//! traffic runtime dominate, the controller barely works), `fabric-soak`
//! is control-plane-heavy (LLDP signing, sealing and LLI link updates on
//! 1,000 switches, no traffic engine at all), and `paper-matrix` is many
//! short full-attack runs on two worker threads — how users reproduce the
//! paper's Fig. 1/9 verdicts. A scheduler change shows on `flow-churn`
//! and should not move `load-probe`'s controller share; a controller
//! change shows on `load-probe` and `fabric-soak` and should not move
//! `flow-churn`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bench::campaign::{
    fabric_matrix_scenario, FABRIC_MATRIX_DEFAULT_ATTACKS, FABRIC_MATRIX_STACKS,
};
use controller::{ControllerConfig, ControllerProfile, DefenseModule, DirectedLink, SdnController};
use netsim::{LinkProfile, Simulator, TrafficPlan, TrafficWindow};
use sdn_types::{Duration, SimTime, SwitchPort};
use sphinx::{Sphinx, SphinxConfig};
use tm_campaign::{
    run_campaign_with, CampaignReport, CampaignSpec, GridPoint, Registry, Resume, RunRecord,
    RunSink, RunStatus, Scenario,
};
use tm_core::fabric::TRAFFIC_START;
use tm_core::{DefenseStack, HijackScenario, LinkFabScenario, RelayMode, TrafficLoad};
use tm_telemetry::{MetricsSnapshot, Telemetry};
use tm_topo::{SwitchLink, TopoKind};
use topoguard::{Cmm, CmmConfig, Lli, LliConfig, TopoGuard, TopoGuardConfig};

use crate::trace::{ControllerTally, ModuleTally, TracedController, TracedModule};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fat-tree-4, 2,048 virtual hosts per edge at 8 flows/host/s, TOPOGUARD+.
    LoadProbe,
    /// fat-tree-4, 400 hosts per edge at 500 flows/host/s, TopoGuard+SPHINX.
    FlowChurn,
    /// core-edge-8x992x1 (1,000 switches), TOPOGUARD+, no host traffic.
    FabricSoak,
    /// The `fabric-matrix` campaign on three fabrics.
    PaperMatrix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LoadProbe,
        Workload::FlowChurn,
        Workload::FabricSoak,
        Workload::PaperMatrix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoadProbe => "load-probe",
            Workload::FlowChurn => "flow-churn",
            Workload::FabricSoak => "fabric-soak",
            Workload::PaperMatrix => "paper-matrix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The soak this workload assembles, or `None` for the matrix.
    pub fn soak(self) -> Option<Soak> {
        match self {
            Workload::LoadProbe => Some(Soak {
                topo: TopoKind::FatTree { k: 4 },
                stack: Stack::TopoGuardPlus,
                traffic: Some(TrafficLoad::steady(2048, 8.0)),
                run_for: Duration::from_secs(6),
            }),
            Workload::FlowChurn => Some(Soak {
                topo: TopoKind::FatTree { k: 4 },
                stack: Stack::TopoGuardSphinx,
                traffic: Some(TrafficLoad::steady(400, 500.0)),
                run_for: Duration::from_secs(6),
            }),
            Workload::FabricSoak => Some(Soak {
                topo: TopoKind::CoreEdge {
                    core: 8,
                    edge: 992,
                    hosts_per_edge: 1,
                },
                stack: Stack::TopoGuardPlus,
                traffic: None,
                run_for: Duration::from_secs(1200),
            }),
            Workload::PaperMatrix => None,
        }
    }
}

/// The modules the soaks run, by metric prefix, with the hooks each one
/// implements. The traced rep times only these; the others are default
/// no-ops, and timing them would cost more than they do.
pub const MODULE_HOOKS: [(&str, &[&str]); 4] = [
    (
        "topoguard",
        &[
            "on_packet_in",
            "on_lldp_receive",
            "on_port_status",
            "on_host_move",
            "on_tick",
        ],
    ),
    (
        "topoguard.cmm",
        &[
            "on_lldp_emit",
            "on_lldp_receive",
            "on_port_status",
            "on_tick",
        ],
    ),
    ("topoguard.lli", &["on_link_update"]),
    (
        "sphinx",
        &[
            "on_flow_mod",
            "on_flow_stats",
            "on_host_move",
            "on_link_update",
        ],
    ),
];

/// The defense stacks the soaks run, built module by module so the traced
/// rep can wrap each module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// TopoGuard, CMM and LLI with signed, timestamped LLDP.
    TopoGuardPlus,
    /// TopoGuard and SPHINX with stats polled every 2 s.
    TopoGuardSphinx,
}

impl Stack {
    /// The `tm-core` stack this one reproduces.
    pub fn defense(self) -> DefenseStack {
        match self {
            Stack::TopoGuardPlus => DefenseStack::TopoGuardPlus,
            Stack::TopoGuardSphinx => DefenseStack::TopoGuardSphinx,
        }
    }

    /// The controller features the stack depends on, as
    /// `DefenseStack::build_controller` sets them.
    fn configure(self, config: &mut ControllerConfig) {
        config.sign_lldp = true;
        match self {
            Stack::TopoGuardPlus => {
                config.timestamp_lldp = true;
                config.echo_interval = Some(Duration::from_secs(1));
            }
            Stack::TopoGuardSphinx => {
                config.stats_interval = Some(Duration::from_secs(2));
            }
        }
    }

    /// The stack's modules in pipeline order, with their metric prefixes.
    fn modules(self) -> Vec<(&'static str, Box<dyn DefenseModule>)> {
        let topoguard: Box<dyn DefenseModule> =
            Box::new(TopoGuard::new(TopoGuardConfig::default()));
        match self {
            Stack::TopoGuardPlus => vec![
                ("topoguard", topoguard),
                ("topoguard.cmm", Box::new(Cmm::new(CmmConfig::default()))),
                ("topoguard.lli", Box::new(Lli::new(LliConfig::default()))),
            ],
            Stack::TopoGuardSphinx => vec![
                ("topoguard", topoguard),
                ("sphinx", Box::new(Sphinx::new(SphinxConfig::default()))),
            ],
        }
    }
}

/// A soak: a generated fabric under a defense stack, optionally with
/// flow-level traffic, run for a fixed stretch of simulated time. With
/// traffic it is `tm_core::load::run`; without, `tm_core::scale::run`.
#[derive(Clone, Copy, Debug)]
pub struct Soak {
    /// The generated fabric.
    pub topo: TopoKind,
    /// The defense stack.
    pub stack: Stack,
    /// Flow-level background load, opening at `TRAFFIC_START`.
    pub traffic: Option<TrafficLoad>,
    /// Simulated time to run.
    pub run_for: Duration,
}

/// Set-up time split by layer, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    /// `TopoKind::generate`.
    pub generate_ns: u64,
    /// `TrafficLoad::plan_for`.
    pub plan_ns: u64,
    /// Network build, controller and `Simulator` construction.
    pub build_ns: u64,
}

/// The timing handles of a traced soak.
pub struct Tracer {
    /// The controller's per-kind tally.
    pub controller: Rc<RefCell<ControllerTally>>,
    /// Each module's per-hook tally, by metric prefix.
    pub modules: Vec<(&'static str, Rc<RefCell<ModuleTally>>)>,
}

/// A soak ready to run.
pub struct Assembled {
    /// The simulator, before its first event.
    pub sim: Simulator,
    /// The fabric's trunks.
    pub trunks: Vec<SwitchLink>,
    /// Virtual hosts the traffic plan parks behind aggregation ports.
    pub hosts_virtual: u64,
    /// Where set-up time went.
    pub setup: SetupSplit,
    /// Timing handles when traced.
    pub tracer: Option<Tracer>,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Soak {
    /// Builds the soak up to its first event, wrapping the controller and
    /// every module in timing decorators when `traced`.
    pub fn assemble(&self, seed: u64, traced: bool) -> Assembled {
        let t = Instant::now();
        let topo = self.topo.generate(seed, 0);
        let generate_ns = ns_since(t);

        let t = Instant::now();
        let mut spec = topo.build_network(
            LinkProfile::fixed(Duration::from_micros(50)),
            LinkProfile::fixed(Duration::from_millis(1)),
        );
        // Traffic's ARP announcements broadcast on loopy fabrics, so the
        // loaded soak scopes floods exactly as `tm_core::load` does.
        let mut config = ControllerConfig {
            profile: ControllerProfile::FLOODLIGHT,
            tree_scoped_flood: self.traffic.is_some(),
            ..ControllerConfig::default()
        };
        self.stack.configure(&mut config);
        let mut ctrl = SdnController::new(config);
        let mut modules = Vec::new();
        for (prefix, module) in self.stack.modules() {
            ctrl = if traced {
                let hooks = MODULE_HOOKS
                    .iter()
                    .find(|(p, _)| *p == prefix)
                    .map_or(&[][..], |(_, hooks)| hooks);
                let (wrapped, tally) = TracedModule::new(module, hooks);
                modules.push((prefix, tally));
                ctrl.with_module(Box::new(wrapped))
            } else {
                ctrl.with_module(module)
            };
        }
        let tracer = if traced {
            let (wrapped, controller) = TracedController::new(ctrl);
            spec.set_controller(Box::new(wrapped));
            Some(Tracer {
                controller,
                modules,
            })
        } else {
            spec.set_controller(Box::new(ctrl));
            None
        };
        spec.set_telemetry(Telemetry::new());
        let mut build_ns = ns_since(t);

        let t = Instant::now();
        let window =
            TrafficWindow::new(SimTime::ZERO + TRAFFIC_START, SimTime::ZERO + self.run_for);
        let plan = match self.traffic {
            Some(load) => load.plan_for(self.topo, window),
            None => TrafficPlan::new(),
        };
        let hosts_virtual = plan.total_hosts();
        let plan_ns = ns_since(t);

        let t = Instant::now();
        let sim = Simulator::with_traffic_plan(spec, seed, plan);
        build_ns += ns_since(t);

        Assembled {
            sim,
            trunks: topo.links,
            hosts_virtual,
            setup: SetupSplit {
                generate_ns,
                plan_ns,
                build_ns,
            },
            tracer,
        }
    }
}

impl Assembled {
    /// Runs the soak up to simulated time `until` and returns the wall
    /// nanoseconds that took.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let t = Instant::now();
        self.sim.run_until(until);
        ns_since(t)
    }

    /// The run's telemetry, and the benign-soak invariants it broke: no
    /// alerts, every trunk discovered in both directions, one ARP
    /// expansion per virtual host.
    pub fn check(&self) -> (MetricsSnapshot, Vec<String>) {
        let snapshot = self.sim.metrics_snapshot();
        let mut problems = Vec::new();
        match self.sim.controller_as::<SdnController>() {
            None => problems.push("controller is not an SdnController".to_string()),
            Some(ctrl) => {
                if !ctrl.alerts().is_empty() {
                    problems.push(format!("{} alerts on a benign soak", ctrl.alerts().len()));
                }
                let missing = self
                    .trunks
                    .iter()
                    .flat_map(|l| {
                        let a = SwitchPort::new(l.a, l.port_a);
                        let b = SwitchPort::new(l.b, l.port_b);
                        [DirectedLink::new(a, b), DirectedLink::new(b, a)]
                    })
                    .filter(|link| !ctrl.topology().contains(link))
                    .count();
                if missing > 0 {
                    problems.push(format!(
                        "{missing} of {} directed trunks undiscovered",
                        2 * self.trunks.len()
                    ));
                }
            }
        }
        let arp = snapshot.counter("traffic.expansions_arp").unwrap_or(0);
        if arp != self.hosts_virtual {
            problems.push(format!(
                "{arp} ARP expansions for {} virtual hosts",
                self.hosts_virtual
            ));
        }
        (snapshot, problems)
    }
}

/// Slices the traced rep cuts a soak into, to interleave it with its
/// untraced twin.
pub const SLICES: u64 = 20;

/// Runs two builds of one soak for `run_for` in alternating slices of
/// simulated time, and returns the wall nanoseconds each took. Slice `i`
/// runs `a` first when `i` is even and `b` first when it is odd, so a
/// drift in machine speed, or which build's data is warm in cache, lands
/// on both equally.
pub fn interleave(a: &mut Assembled, b: &mut Assembled, run_for: Duration) -> (u64, u64) {
    let (mut a_ns, mut b_ns) = (0, 0);
    for i in 1..=SLICES {
        let until = SimTime::ZERO + Duration::from_nanos(run_for.as_nanos() * i / SLICES);
        if i % 2 == 0 {
            a_ns += a.run_until(until);
            b_ns += b.run_until(until);
        } else {
            b_ns += b.run_until(until);
            a_ns += a.run_until(until);
        }
    }
    (a_ns, b_ns)
}

/// The matrix grid: the paper's four attacks and five stacks on three
/// fabrics, two of them small enough that a run takes milliseconds.
pub const MATRIX_TOPOS: [&str; 3] = ["fat-tree-4", "fat-tree-8", "ring-8x2"];

/// Seeds per matrix cell.
pub const MATRIX_SEEDS: usize = 2;

/// Worker threads for the matrix campaign.
pub const MATRIX_WORKERS: usize = 2;

/// The `fabric-matrix` scenario over [`MATRIX_TOPOS`].
pub fn matrix_scenario() -> Scenario {
    fabric_matrix_scenario(
        &MATRIX_TOPOS,
        &FABRIC_MATRIX_DEFAULT_ATTACKS,
        &FABRIC_MATRIX_STACKS,
    )
    .unwrap_or_else(|e| unreachable!("the matrix grid is built from validated labels: {e}"))
}

/// Per-run wall times by attack, filled by a wrapped `RunFn`.
pub type RunTimes = Arc<Mutex<Vec<(usize, u64)>>>;

/// Wraps the scenario's `RunFn` to time each run, keyed by the run's index
/// in [`FABRIC_MATRIX_DEFAULT_ATTACKS`].
pub fn timed_matrix(mut scenario: Scenario) -> (Scenario, RunTimes) {
    let times: RunTimes = Arc::new(Mutex::new(Vec::new()));
    let inner = Arc::clone(&scenario.run);
    let sink = Arc::clone(&times);
    scenario.run = Arc::new(move |point: &GridPoint, seed: u64| {
        let attack = point
            .get("attack")
            .and_then(|a| FABRIC_MATRIX_DEFAULT_ATTACKS.iter().position(|k| *k == a))
            .unwrap_or(0);
        let t = Instant::now();
        let metrics = inner(point, seed);
        let ns = ns_since(t);
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((attack, ns));
        metrics
    });
    (scenario, times)
}

/// The matrix campaign spec for `seed`.
pub fn matrix_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        seeds: MATRIX_SEEDS,
        workers: MATRIX_WORKERS,
        quiet_panics: true,
        ..CampaignSpec::new("fabric-matrix", seed)
    }
}

/// Whether `stack` should detect `attack`, per the paper's Fig. 1/9 matrix
/// (EXPERIMENTS.md): the naive relay is caught by every stack running
/// TopoGuard, both Port Amnesia variants only by TOPOGUARD+, and the Port
/// Probing hijack by none.
fn expected_detection(attack: &str, stack: &str) -> bool {
    match attack {
        "naive-relay" => matches!(stack, "topoguard" | "tg-sphinx" | "topoguard-plus"),
        "oob-amnesia" | "in-band" => stack == "topoguard-plus",
        _ => false,
    }
}

/// Checks every matrix run's verdict as the campaign streams it.
pub struct VerdictSink {
    grid: Vec<GridPoint>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that panicked or disagreed with the paper's verdict.
    pub failed: u64,
    /// Simulated seconds over every run checked.
    pub sim_s: f64,
    /// The first few disagreements, for the log.
    pub problems: Vec<String>,
}

impl VerdictSink {
    /// A sink for `scenario`'s grid.
    pub fn new(scenario: &Scenario) -> Self {
        VerdictSink {
            grid: scenario.cells(),
            attempted: 0,
            failed: 0,
            sim_s: 0.0,
            problems: Vec::new(),
        }
    }
}

/// Simulated seconds one matrix run covers, read off the public scenario
/// definitions: a relay runs the paper's 150 s evaluation, the hijack
/// runs to the end of the migration window plus its tail.
fn simulated_s(attack: &str) -> f64 {
    let kind = TopoKind::FatTree { k: 4 };
    if attack == "port-probing-hijack" {
        let s = HijackScenario::on_fabric(kind, DefenseStack::None, 0);
        (s.victim_down_at.since(SimTime::ZERO) + s.downtime + s.tail).as_secs_f64()
    } else {
        LinkFabScenario::on_fabric(RelayMode::OutOfBand, kind, DefenseStack::None, 0)
            .run_for
            .as_secs_f64()
    }
}

impl RunSink for VerdictSink {
    fn on_run(&mut self, record: &RunRecord) -> Result<(), String> {
        self.attempted += 1;
        let point = self.grid.get(record.cell);
        let attack = point.and_then(|p| p.get("attack")).unwrap_or("");
        let stack = point.and_then(|p| p.get("stack")).unwrap_or("");
        self.sim_s += simulated_s(attack);
        let problem = match &record.status {
            RunStatus::Failed(cause) => Some(format!("panicked: {cause}")),
            RunStatus::Ok(m) => {
                let detected = m.get("detected") == Some(1.0);
                let succeeded = m.get("succeeded") == Some(1.0);
                if detected != expected_detection(attack, stack) {
                    Some(format!("detected={detected}"))
                } else if attack == "port-probing-hijack" && !succeeded {
                    Some("hijack did not succeed".to_string())
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 8 {
                let label = point.map(GridPoint::label).unwrap_or_default();
                self.problems
                    .push(format!("[{label}] seed {:#x}: {p}", record.seed));
            }
        }
        Ok(())
    }
}

/// The matrix campaign, built up to its first run: the registry with
/// the scenario (its `RunFn` wrapped when traced) and the verdict sink
/// holding the enumerated grid.
pub struct MatrixSetup {
    /// The registry holding `fabric-matrix`.
    pub registry: Registry,
    /// The verdict checks, over the scenario's grid.
    pub verdicts: VerdictSink,
    /// Per-run wall times when traced.
    pub times: Option<RunTimes>,
}

impl MatrixSetup {
    /// Builds the registry and grid, wrapping the `RunFn` when `traced`.
    pub fn new(traced: bool) -> MatrixSetup {
        let scenario = matrix_scenario();
        let (scenario, times) = if traced {
            let (s, t) = timed_matrix(scenario);
            (s, Some(t))
        } else {
            (scenario, None)
        };
        let verdicts = VerdictSink::new(&scenario);
        let mut registry = Registry::new();
        if let Err(e) = registry.register(scenario) {
            unreachable!("a fresh registry holds no scenario yet: {e}");
        }
        MatrixSetup {
            registry,
            verdicts,
            times,
        }
    }

    /// Runs the campaign, checking every verdict as it streams; returns
    /// the report and the campaign's wall nanoseconds.
    pub fn run(&mut self, seed: u64) -> Result<(CampaignReport, u64), String> {
        let t = Instant::now();
        let report = run_campaign_with(
            &self.registry,
            &matrix_spec(seed),
            &Resume::none(),
            &mut self.verdicts,
        )?;
        Ok((report, ns_since(t)))
    }
}
