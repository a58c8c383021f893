// Fixture: telemetry metric names must live in a registered namespace
// and use snake_case dot-separated segments. Non-literal names are out
// of scope (the call site cannot be vetted statically).

pub fn emit(t: &mut Telemetry, n: u64, dynamic_name: &str) {
    t.counter_inc("netsim.frames_forwarded", 1);
    t.gauge_set("controller.links_active", n);
    t.observe_ns("topoguard.verdict_latency", n);
    t.counter_inc("bogus.frames", 1); //~ ERROR telemetry-names
    t.observe_ns("netsim.BadSegment.latency", n); //~ ERROR telemetry-names
    t.counter_add("netsim..double_dot", 1); //~ ERROR telemetry-names
    let _hot = t.counter_handle("netsim.event.Deliver-To-Switch"); //~ ERROR telemetry-names
    t.counter_inc(dynamic_name, 1);
}
