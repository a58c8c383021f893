#!/usr/bin/env sh
# Hermetic verification: everything here must pass on a machine with no
# network access and an empty cargo registry — the workspace has zero
# external dependencies by policy (see DESIGN.md).
set -eux

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
# Documentation is part of the contract: broken intra-doc links or missing
# docs on public items fail the build. Fully offline, no deps to fetch.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Determinism lint: every file analyzed from source, under the 2-second
# budget (wall_ms counts analysis, not cargo).
tmp="${TMPDIR:-/tmp}"
cargo run -q -p tm-lint --offline >"$tmp/tm_lint.out"
lint_ms=$(sed -n 's/^TM_LINT_JSON .*"wall_ms":\([0-9]*\).*/\1/p' "$tmp/tm_lint.out")
test "$lint_ms" -lt 2000

cargo build --release --offline
cargo test -q --offline --workspace
cargo bench --no-run --offline

# Worker-count identity, full registry: every campaign scenario must
# render byte-identical reports at workers 1 and 2. Minutes of virtual
# time per scenario, so it is #[ignore]d in the debug tier and runs here
# in release.
cargo test -q --release --offline --test worker_identity -- --ignored

# The paper pin: `experiments all` must reproduce experiments_output.txt
# byte for byte, apart from the two Table II rows that time LLDP
# construction and processing on the wall clock.
cargo run -q --release --offline -p bench --bin experiments -- all \
    >"$tmp/tm_experiments_all.out"
wall_rows='^LLDP \(Construction\|Processing\) '
grep -v "$wall_rows" experiments_output.txt >"$tmp/tm_pin_expected.out"
grep -v "$wall_rows" "$tmp/tm_experiments_all.out" >"$tmp/tm_pin_actual.out"
diff "$tmp/tm_pin_expected.out" "$tmp/tm_pin_actual.out"

# Live determinism check: the smoke campaign (2 cheap scenarios x 3 seeds)
# must produce byte-identical stdout at --workers 1 and --workers 2. The
# wall-clock BENCH_JSON records go to stderr precisely so they stay out of
# this diff.
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign smoke --seeds 3 --workers 1 \
    >"$tmp/tm_campaign_w1.out" 2>"$tmp/tm_campaign_w1.err"
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign smoke --seeds 3 --workers 2 \
    >"$tmp/tm_campaign_w2.out" 2>"$tmp/tm_campaign_w2.err"
diff "$tmp/tm_campaign_w1.out" "$tmp/tm_campaign_w2.out"

# Warehouse-scale smoke: sharding, crash-resume, and run-log replay on
# the cheap probe-overhead grid. (1) a single-shot run is the byte
# baseline; (2) the same campaign runs as --shard 0/2 + 1/2 with
# --state, writing one binary run-log per shard; (3) shard 0's run-log
# loses its last 11 bytes (a simulated mid-write crash) and --resume
# must rebuild the surviving cells from it and reproduce the fresh shard
# stdout exactly; (4) `campaign replay` over the two shard logs
# re-aggregates the merged stream without re-simulating and must equal
# the single-shot stdout byte for byte.
state="$tmp/tm_campaign_state"
rm -rf "$state"
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign probe-overhead --seeds 6 --workers 2 \
    >"$tmp/tm_shard_single.out" 2>/dev/null
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign probe-overhead --seeds 6 --workers 2 --shard 0/2 --state "$state" \
    >"$tmp/tm_shard_0.out" 2>"$tmp/tm_shard_0.err"
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign probe-overhead --seeds 6 --workers 2 --shard 1/2 --state "$state" \
    >"$tmp/tm_shard_1.out" 2>"$tmp/tm_shard_1.err"
log="$state/probe-overhead.shard0of2.runlog"
size=$(wc -c <"$log")
head -c $((size - 11)) "$log" >"$log.cut"
mv "$log.cut" "$log"
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign probe-overhead --seeds 6 --workers 2 --shard 0/2 --state "$state" --resume \
    >"$tmp/tm_shard_resume.out" 2>"$tmp/tm_shard_resume.err"
grep -q '^resume: ' "$tmp/tm_shard_resume.err"
diff "$tmp/tm_shard_0.out" "$tmp/tm_shard_resume.out"
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign replay "$state/probe-overhead.shard0of2.runlog" \
    "$state/probe-overhead.shard1of2.runlog" \
    >"$tmp/tm_shard_replay.out" 2>"$tmp/tm_shard_replay.err"
grep -q 'without re-simulating' "$tmp/tm_shard_replay.err"
diff "$tmp/tm_shard_single.out" "$tmp/tm_shard_replay.out"

# Topology-parameterized matrix smoke: one fat-tree hijack cell, offline,
# single seed. Guards the whole fabric-elaboration path (generator → role
# mapping → tree-scoped flooding → scenario) end to end; isolated-run
# panics surface as failed= counts in the report, so the cell must report
# failed=0 and nothing else.
cargo run -q --release --offline -p bench --bin experiments -- \
    matrix --topo fat-tree-4 --attacks port-probing-hijack --stacks none \
    --seeds 1 --workers 1 >"$tmp/tm_topo_matrix.out" 2>/dev/null
grep -q 'failed=0' "$tmp/tm_topo_matrix.out"
! grep -q 'failed=[1-9]' "$tmp/tm_topo_matrix.out"
# The attack and defense-stack label tables guard the command line too:
# an unknown label is a usage error (exit 2), never a default run.
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    matrix --topo ring-4x2 --attacks ddos >/dev/null 2>"$tmp/tm_bad_attack.err" || status=$?
test "$status" -eq 2
grep -q 'unknown attack' "$tmp/tm_bad_attack.err"
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    matrix --topo ring-4x2 --stacks kitchen-sink >/dev/null 2>"$tmp/tm_bad_stack.err" || status=$?
test "$status" -eq 2
grep -q 'unknown defense stack' "$tmp/tm_bad_stack.err"

# High-load smoke cell: the 102,400-host flow-level throughput probe
# (fat-tree-4, steady-2 demand, TOPOGUARD+). Guards the traffic engine
# end to end — plan elaboration → arrival chains → detector-boundary
# expansion → controller — and records the aggregation leverage. The
# probe's stdout is a pure function of the seed; its speedup line is the
# flow-level-vs-per-packet floor and must stay at least 50x.
cargo run -q --release --offline -p bench --bin experiments -- \
    load --probe-only >"$tmp/tm_load_probe.out" 2>"$tmp/tm_load_probe.err"
grep -q 'flow-level speedup' "$tmp/tm_load_probe.out"
probe_speedup=$(sed -n 's/.*flow-level speedup  *\([0-9]*\)x.*/\1/p' "$tmp/tm_load_probe.out")
test "$probe_speedup" -ge 50

# Perf trajectory: the sharded campaign's wall clock and run-log size,
# the traffic-throughput probe, plus the in-house bench medians.
# TM_BENCH_SAMPLES=3 keeps this a smoke run; the artifact records the
# trajectory, it is not a rigorous benchmark.
TM_BENCH_SAMPLES=3 cargo bench --offline -p bench >"$tmp/tm_bench.out"
{
    printf '{\n  "campaign_scale": [\n'
    cat "$tmp/tm_shard_0.err" "$tmp/tm_shard_1.err" "$tmp/tm_shard_resume.err" \
        | grep '^BENCH_JSON ' | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "traffic_throughput": [\n'
    grep '^BENCH_JSON ' "$tmp/tm_load_probe.err" \
        | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "bench": [\n'
    grep '^BENCH_JSON ' "$tmp/tm_bench.out" \
        | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "lint": '
    grep '^TM_LINT_JSON ' "$tmp/tm_lint.out" | sed 's/^TM_LINT_JSON //'
    printf '}\n'
} >BENCH_topomirage.json
