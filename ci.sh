#!/usr/bin/env sh
# Hermetic verification: everything here must pass on a machine with no
# network access and an empty cargo registry — the workspace has zero
# external dependencies by policy (see DESIGN.md).
set -eux

cargo fmt --check
# --workspace: the root has its own [package], so without it clippy would
# lint only the root crate and none of the member crates.
cargo clippy --offline --workspace --all-targets -- -D warnings
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
# Each example asserts the claims it prints: run them all, not only
# compile them (clippy --all-targets does that).
for example in examples/*.rs; do
    cargo run -q --release --offline --example "$(basename "$example" .rs)" >/dev/null
done
# The repo benchmark is a package of its own that uses the workspace's
# public API; build and test it against this tree. --locked fails on a
# stale benches/topobench/Cargo.lock instead of rewriting it, and the
# shared target dir keeps build output out of benches/topobench/.
CARGO_TARGET_DIR=target cargo test -q --release --offline --locked \
    --manifest-path benches/topobench/Cargo.toml
# Benchmark pins: one rep of each workload at the suite's seed must pass
# the workload's own checks ("failed":0 — a benign soak raises no alert,
# every trunk is discovered, the paper's Fig. 1/9 verdicts hold) and
# reproduce its simulation fingerprint. A change that moves simulation
# output on purpose updates these values, as it would experiments_output.txt.
CARGO_TARGET_DIR=target cargo build -q --release --offline --locked \
    --manifest-path benches/topobench/Cargo.toml
cat >"$tmp/tm_rep_expected.out" <<'PINS'
load-probe 6860783a693945b8
flow-churn d132ab420b76f544
fabric-soak 9d6dcaddf1bf6f6a
paper-matrix b2b8e7b50fda9650
PINS
: >"$tmp/tm_rep_actual.out"
while read -r workload _; do
    target/release/topobench rep "$workload" 0xd52018 0 </dev/null >"$tmp/tm_rep.out"
    grep -q '"failed":0,' "$tmp/tm_rep.out"
    fingerprint=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' "$tmp/tm_rep.out")
    echo "$workload $fingerprint" >>"$tmp/tm_rep_actual.out"
    # Memory is bounded by the network, not by simulated time: the
    # 1,000-switch soak peaks near 10 MB, and a per-sample log kept over
    # its 80 LLDP rounds would take it past 30 MB. POSIX sh has no float
    # test, so awk compares.
    if test "$workload" = fabric-soak; then
        rss=$(sed -n 's/.*"peak_rss_mb":\([0-9.]*\).*/\1/p' "$tmp/tm_rep.out")
        test -n "$rss"
        awk -v rss="$rss" 'BEGIN { exit !(rss <= 16) }'
    fi
done <"$tmp/tm_rep_expected.out"
diff "$tmp/tm_rep_expected.out" "$tmp/tm_rep_actual.out"
cargo test -q --offline --workspace
# The event queue's lanes against a one-heap reference, over many more
# generated programs than the debug suite draws.
TM_PROP_CASES=2000 cargo test -q --release --offline -p netsim --lib \
    lanes_pop_exactly_what_one_heap_pops
# The shared switch, port and host table against a BTreeMap model, over
# as many generated operation sequences.
TM_PROP_CASES=2000 cargo test -q --release --offline -p sdn-types --test table
# The in-house benches (bench::harness, 25 samples each): built and run
# here, their stderr BENCH_JSON records kept for BENCH_topomirage.json.
cargo bench --offline -p bench 2>"$tmp/tm_bench.err"

# Worker-count identity, full registry: every campaign scenario must
# render byte-identical reports at workers 1 and 2. Minutes of virtual
# time per scenario, so it is #[ignore]d in the debug tier and runs here
# in release.
cargo test -q --release --offline --test worker_identity -- --ignored

# The paper pin: `experiments all` must reproduce experiments_output.txt
# byte for byte, apart from the two Table II rows that time LLDP
# construction and processing on the wall clock. Table II's harness
# records go to stderr, kept for BENCH_topomirage.json.
cargo run -q --release --offline -p bench --bin experiments -- all \
    >"$tmp/tm_experiments_all.out" 2>"$tmp/tm_experiments_all.err"
wall_rows='^LLDP \(Construction\|Processing\) '
grep -v "$wall_rows" experiments_output.txt >"$tmp/tm_pin_expected.out"
grep -v "$wall_rows" "$tmp/tm_experiments_all.out" >"$tmp/tm_pin_actual.out"
diff "$tmp/tm_pin_expected.out" "$tmp/tm_pin_actual.out"

# The relay and fault campaigns, byte for byte: the relay scenario's
# benign twin under each fault profile (false positives, discovery, fault
# counters), then the Fig. 1 relay cells. Their BENCH_JSON records are on
# stdout and pinned with them.
{
    cargo run -q --release --offline -p bench --bin experiments -- \
        campaign faults --seeds 2 --workers 2 2>/dev/null
    cargo run -q --release --offline -p bench --bin experiments -- \
        campaign linkfab --seeds 2 --workers 2 2>/dev/null
} >"$tmp/tm_campaign_pin.out"
diff campaign_output.txt "$tmp/tm_campaign_pin.out"

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
# stdout exactly; (4) `campaign replay` over the two shard logs, named in
# either order, re-aggregates the merged stream without re-simulating and
# must equal the single-shot stdout byte for byte.
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
# The merge sorts by global run index, so the order the logs are named
# in must not matter.
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign replay "$state/probe-overhead.shard1of2.runlog" \
    "$state/probe-overhead.shard0of2.runlog" \
    >"$tmp/tm_shard_replay_rev.out" 2>/dev/null
diff "$tmp/tm_shard_single.out" "$tmp/tm_shard_replay_rev.out"
# A campaign the runner rejects exits 2 before it touches --state: the
# shard's run-log keeps every byte.
cp "$log" "$tmp/tm_shard_0.runlog"
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign probe-overhead --seeds 0 --shard 0/2 --state "$state" \
    >/dev/null 2>"$tmp/tm_shard_rejected.err" || status=$?
test "$status" -eq 2
cmp "$log" "$tmp/tm_shard_0.runlog"

# A flag the command does not read is a usage error, never ignored: exit 2
# before any work, nothing on stdout, and the flag named on stderr. Each
# line is the flag, then the command line that passes it.
while read -r flag args; do
    status=0
    # $args is split into words on purpose.
    # shellcheck disable=SC2086
    cargo run -q --release --offline -p bench --bin experiments -- $args </dev/null \
        >"$tmp/tm_unread.out" 2>"$tmp/tm_unread.err" || status=$?
    test "$status" -eq 2
    if test -s "$tmp/tm_unread.out"; then exit 1; fi
    grep -q -- "$flag is not read by this command" "$tmp/tm_unread.err"
done <<CASES
--trials table3 --trials 7
--seed table2 --seed 0x1
--seeds load --probe-only --seeds 3
--seed campaign replay $state/probe-overhead.shard0of2.runlog --seed 0x5
CASES

# Topology-parameterized matrix smoke: one fat-tree hijack cell, offline,
# single seed. Guards the whole fabric-elaboration path (generator → role
# mapping → tree-scoped flooding → scenario) end to end; isolated-run
# panics surface as failed= counts in the report, so the cell must report
# failed=0 and nothing else.
cargo run -q --release --offline -p bench --bin experiments -- \
    matrix --topo fat-tree-4 --attacks port-probing-hijack --stacks none \
    --seeds 1 --workers 1 >"$tmp/tm_topo_matrix.out" 2>/dev/null
grep -q 'failed=0' "$tmp/tm_topo_matrix.out"
# `set -e` ignores a command negated with `!`, so absence checks exit
# explicitly.
if grep -q 'failed=[1-9]' "$tmp/tm_topo_matrix.out"; then exit 1; fi
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
# So does an unwritable --json path: exit 2 naming the flag, not a panic,
# and before any work — the matrix prints nothing, the campaign writes no
# campaign-wall record.
rm -rf "$tmp/tm_missing_dir"
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    matrix --json "$tmp/tm_missing_dir/m.json" \
    >"$tmp/tm_bad_json.out" 2>"$tmp/tm_bad_json.err" || status=$?
test "$status" -eq 2
grep -q -- '--json' "$tmp/tm_bad_json.err"
test ! -s "$tmp/tm_bad_json.out"
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    campaign smoke --seeds 1 --json "$tmp/tm_missing_dir/c.json" \
    >/dev/null 2>"$tmp/tm_bad_json.err" || status=$?
test "$status" -eq 2
grep -q -- '--json' "$tmp/tm_bad_json.err"
if grep -q 'campaign-wall' "$tmp/tm_bad_json.err"; then exit 1; fi
# --json on a command that writes no JSON file is rejected the same way:
# exit 2 before any work, nothing on stdout, no file left behind.
rm -f "$tmp/tm_unwritten.json"
status=0
cargo run -q --release --offline -p bench --bin experiments -- \
    table3 --json "$tmp/tm_unwritten.json" \
    >"$tmp/tm_unwritten.out" 2>"$tmp/tm_unwritten.err" || status=$?
test "$status" -eq 2
test ! -s "$tmp/tm_unwritten.out"
if test -e "$tmp/tm_unwritten.json"; then exit 1; fi

# High-load smoke cell: the 102,400-host flow-level throughput probe
# (fat-tree-4, steady-2 demand, TOPOGUARD+). Guards the traffic engine
# end to end — plan elaboration → arrival chains → detector-boundary
# expansion → controller — and records the aggregation leverage. The
# probe's stdout is a pure function of the seed, pinned byte for byte by
# load_probe_output.txt; its speedup line is the flow-level-vs-per-packet
# floor and must stay at least 50x.
cargo run -q --release --offline -p bench --bin experiments -- \
    load --probe-only >"$tmp/tm_load_probe.out" 2>"$tmp/tm_load_probe.err"
diff load_probe_output.txt "$tmp/tm_load_probe.out"
grep -q 'flow-level speedup' "$tmp/tm_load_probe.out"
probe_speedup=$(sed -n 's/.*flow-level speedup  *\([0-9]*\)x.*/\1/p' "$tmp/tm_load_probe.out")
test "$probe_speedup" -ge 50

# Perf trajectory: the sharded campaign's wall clock and run-log size,
# the traffic-throughput probe, plus the harness medians of the in-house
# benches and of Table II.
{
    printf '{\n  "campaign_scale": [\n'
    cat "$tmp/tm_shard_0.err" "$tmp/tm_shard_1.err" "$tmp/tm_shard_resume.err" \
        | grep '^BENCH_JSON ' | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "traffic_throughput": [\n'
    grep '^BENCH_JSON ' "$tmp/tm_load_probe.err" \
        | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "bench": [\n'
    cat "$tmp/tm_bench.err" "$tmp/tm_experiments_all.err" \
        | grep '^BENCH_JSON ' | sed -e 's/^BENCH_JSON /    /' -e 's/$/,/' -e '$s/,$//'
    printf '  ],\n  "lint": '
    grep '^TM_LINT_JSON ' "$tmp/tm_lint.out" | sed 's/^TM_LINT_JSON //'
    printf '}\n'
} >BENCH_topomirage.json
