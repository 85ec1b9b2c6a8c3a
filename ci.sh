#!/usr/bin/env sh
# Local CI gate for helios.
#
# Runs the same four checks a hosted pipeline would, in order of
# increasing strictness. The root crate is a package as well as the
# workspace root, so every step passes --workspace explicitly: a bare
# `cargo build` would cover only the root package and leave e.g. the
# helios-cli binary stale. All third-party dependencies are vendored as
# workspace members under vendor/ (see DESIGN.md §5), so every step
# works fully offline — no registry, no network, no lockfile updates.
# If cargo still tries to reach a registry, check that Cargo.toml's
# [workspace.dependencies] all point at vendor/ paths.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> perfbench's own tests (every workload at test scale)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> scheduler conformance battery"
cargo test -q --test sched_conformance

echo "==> resilience battery"
cargo test -q --test fault_paths

echo "==> elasticity battery (join/drain/preempt, dead capacity, exhaustion)"
cargo test -q --test elastic_paths

echo "==> extended fault battery (link faults, domains, lineage recovery)"
cargo test -q -p helios-core resilience::
cargo test -q -p helios-core campaign::

echo "==> cross-path execution-core conformance"
# The hook-composed core with every feature hook off must be
# byte-identical to the plain Engine (property over random DAGs ×
# presets × schedulers), and every execution mode must match its
# committed golden report — the before/after anchor for refactors that
# claim byte-identity.
cargo test -q -p helios-core exec::conformance
cargo test -q --test exec_golden

echo "==> resilient-runner size guard"
# The runner must stay a thin hook set over the execution core; shared
# step-loop or staging math creeping back in shows up as line growth.
runner=crates/core/src/resilience/runner.rs
runner_lines=$(wc -l < "$runner")
if [ "$runner_lines" -gt 1000 ]; then
    echo "$runner has $runner_lines lines (limit 1000): move shared logic into core/src/exec" >&2
    exit 1
fi
echo "$runner: $runner_lines lines (limit 1000)"

echo "==> panic-site ratchet (core and CLI non-test code)"
# Counts unwrap(/expect(/panic!/unreachable! in the non-test code of
# crates/core and crates/cli: the lines of each source file above its
# first #[cfg(test)], comment lines excluded. *_tests.rs files and the
# files of modules declared `#[cfg(test)] mod name;` are test code and
# are skipped whole. Every site is a way for hostile input to end in a
# signal instead of a typed error, so the count may only fall: lower
# tests/fixtures/panic_sites.max with the change that removes sites,
# never raise it.
test_modules=$(find crates/core/src crates/cli/src -name '*.rs' -exec awk '
    FNR == 1 { prev = "" }
    prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ && $0 ~ /^[[:space:]]*mod [a-z0-9_]+;/ {
        name = $0; sub(/^[[:space:]]*mod /, "", name); sub(/;.*/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "mod" && base != "lib" && base != "main") dir = dir "/" base
        print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    { prev = $0 }' {} +)
panic_sites=$(find crates/core/src crates/cli/src -name '*.rs' ! -name '*_tests.rs' |
    grep -vxF "$test_modules" |
    xargs awk '/#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// { print }' |
    grep -oE 'unwrap\(|expect\(|panic!|unreachable!' | wc -l | tr -d ' ')
panic_max=$(cat tests/fixtures/panic_sites.max)
if [ "$panic_sites" -gt "$panic_max" ]; then
    echo "$panic_sites panic sites in core/CLI non-test code (ratchet: $panic_max);" \
        "return a typed error instead" >&2
    exit 1
fi
echo "panic sites: $panic_sites (ratchet: $panic_max)"

echo "==> sharded sweep byte-identity smoke"
# The release binary sweeps the committed smoke spec unsharded, then as
# a 2-shard partition recombined by `campaign merge`; the two reports
# must be byte-identical (the tier-1 test suite pins the same property
# in-process for 1/1, 2, and 4 shards).
sweep_tmp="$(mktemp -d)"
trap 'rm -rf "$sweep_tmp"' EXIT
helios=target/release/helios
"$helios" campaign run --spec examples/specs/smoke.json --out "$sweep_tmp/full.json" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 1/2 --out "$sweep_tmp/s1.json" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 2/2 --out "$sweep_tmp/s2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/s1.json" --in "$sweep_tmp/s2.json" \
    --out "$sweep_tmp/merged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/merged.json"
echo "2-shard merge is byte-identical to the unsharded sweep"

echo "==> paper-grid report bytes (pinned digest, --jobs 1 and 2)"
# The release binary sweeps the paper's 1200-cell evaluation grid; the
# --out report must hash to the committed digest. Planning and metrics
# optimizations claim byte-identical output, and this is their gate.
# The --jobs 2 run gates the sweep's shared per-call memo of workflows
# and SLR bounds, which workers fill concurrently.
for jobs in 1 2; do
    "$helios" campaign run --spec examples/specs/paper_grid.json --jobs "$jobs" \
        --out "$sweep_tmp/paper_grid.json" > /dev/null
    grid_digest=$(sha256sum "$sweep_tmp/paper_grid.json" | cut -d' ' -f1)
    if [ "$grid_digest" != "$(cat tests/fixtures/paper_grid_report.sha256)" ]; then
        echo "paper-grid report digest $grid_digest (--jobs $jobs) differs from" \
            "tests/fixtures/paper_grid_report.sha256" >&2
        exit 1
    fi
done
echo "paper-grid report matches the pinned digest at --jobs 1 and 2"

echo "==> flat-retry fault report bytes (pinned digest)"
# The spec-file `faults` knob (flat retry, noisy cells, some of them
# running out of retries) through the release binary: the --out report
# must hash to the committed digest. Changes to the fault configuration
# or the per-attempt occupancy math claim byte-identity, and this is
# their end-to-end gate.
"$helios" campaign run --spec examples/specs/faults_smoke.json \
    --out "$sweep_tmp/faults_smoke.json" > /dev/null
faults_digest=$(sha256sum "$sweep_tmp/faults_smoke.json" | cut -d' ' -f1)
if [ "$faults_digest" != "$(cat tests/fixtures/faults_smoke_report.sha256)" ]; then
    echo "faults-smoke report digest $faults_digest differs from" \
        "tests/fixtures/faults_smoke_report.sha256" >&2
    exit 1
fi
echo "faults-smoke report matches the pinned digest"

echo "==> query answers over the paper grid (pinned digest)"
# The 10-query mix of perfbench's results_query workload plus a GROUP BY
# over every cell, each rendered by `helios query --json` over the
# paper-grid report the previous step wrote, must hash to the committed
# digest. Query-evaluator changes claim identical answers, and this is
# their gate.
: > "$sweep_tmp/query_mix.json"
while IFS= read -r q; do
    "$helios" query "$q" --in "$sweep_tmp/paper_grid.json" --json >> "$sweep_tmp/query_mix.json"
done << 'QUERIES'
SELECT scheduler, count(*), avg_completed(makespan_secs) GROUP BY scheduler
SELECT family, platform, avg_completed(slr), frac(completed) GROUP BY family, platform
SELECT cell, makespan_secs WHERE completed = false
SELECT family, min(slr), max(slr) GROUP BY family
SELECT count(*)
SELECT scheduler, sum(energy_j) WHERE platform = 'hpc_node' GROUP BY scheduler
SELECT cell, family, slr WHERE slr > 4.5 AND completed = true
SELECT platform, frac(completed) GROUP BY platform
SELECT incomplete_reason, count(*) GROUP BY incomplete_reason
SELECT scheduler, avg(transfers), max(failures) WHERE family = 'montage' GROUP BY scheduler
SELECT cell, count(*) GROUP BY cell
QUERIES
query_digest=$(sha256sum "$sweep_tmp/query_mix.json" | cut -d' ' -f1)
if [ "$query_digest" != "$(cat tests/fixtures/query_mix.sha256)" ]; then
    echo "query-mix digest $query_digest differs from tests/fixtures/query_mix.sha256" >&2
    exit 1
fi
echo "query answers match the pinned digest"

echo "==> kill-and-resume smoke (resilient spec)"
# A store sweep of the resilient spec is cut after one cell (test hook,
# nonzero exit expected), resumed from the store, and its --out view
# must come out byte-identical to an uninterrupted run. The same spec is
# also swept as a 2-shard partition to pin byte-identity under
# resilience.
rspec=examples/specs/resilient_smoke.json
"$helios" campaign run --spec "$rspec" --out "$sweep_tmp/rfull.json" > /dev/null
if HELIOS_SWEEP_ABORT_AFTER=1 "$helios" campaign run --spec "$rspec" \
    --store "$sweep_tmp/rresume.store" > /dev/null 2>&1; then
    echo "aborted sweep unexpectedly exited zero" >&2
    exit 1
fi
"$helios" campaign run --spec "$rspec" --store "$sweep_tmp/rresume.store" \
    --out "$sweep_tmp/rresume.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/rresume.json"
"$helios" campaign run --spec "$rspec" --shard 1/2 --out "$sweep_tmp/r1.json" > /dev/null
"$helios" campaign run --spec "$rspec" --shard 2/2 --out "$sweep_tmp/r2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/r1.json" --in "$sweep_tmp/r2.json" \
    --out "$sweep_tmp/rmerged.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/rmerged.json"
echo "kill-and-resume and 2-shard merge are byte-identical under resilience"

# chaos_loop FLAG: sweeps a 6000-cell resilient spec into a cell store
# with the given commit flag (--journal: per-cell commit; --store:
# 256-row group commit) while kill -9'ing the release binary at
# randomized delays: at least 5 hard kills land wherever they land —
# between records or mid-record. `campaign recover` then salvages the
# store (truncating any torn tail) and a final run completes it; the
# compiled view must be byte-identical to a run that was never
# interrupted. HELIOS_POISON_LIMIT is raised so a cell the random kills
# keep hitting under --journal is retried rather than quarantined
# (quarantine changes the bytes by design).
cspec="$sweep_tmp/chaos_spec.json"
sed 's/"count": 3/"count": 3000/' "$rspec" > "$cspec"
"$helios" campaign run --spec "$cspec" --out "$sweep_tmp/chaos_ref.json" > /dev/null
chaos_loop() {
    chaos_store="$sweep_tmp/chaos$1.store"
    kills=0
    tries=0
    while [ "$kills" -lt 5 ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 60 ]; then
            echo "chaos loop ($1) could not land 5 kills in $tries tries" >&2
            exit 1
        fi
        HELIOS_POISON_LIMIT=100 "$helios" campaign run --spec "$cspec" \
            "$1" "$chaos_store" --out "$sweep_tmp/chaos.json" \
            > /dev/null 2>&1 &
        chaos_pid=$!
        # POSIX sh has no $RANDOM: draw two bytes from /dev/urandom for
        # a randomized 20-490 ms kill delay.
        delay=$(od -An -N2 -tu2 /dev/urandom | tr -d ' ')
        sleep "$(printf '0.%03d' $((delay % 470 + 20)))"
        kill -9 "$chaos_pid" 2> /dev/null || true
        if wait "$chaos_pid" 2> /dev/null; then
            # The sweep finished before the kill landed: the store is
            # complete, so restart the chaos from an empty one.
            rm -f "$chaos_store" "$sweep_tmp/chaos.json"
        else
            kills=$((kills + 1))
        fi
    done
    "$helios" campaign recover "$chaos_store" > /dev/null
    HELIOS_POISON_LIMIT=100 "$helios" campaign run --spec "$cspec" \
        "$1" "$chaos_store" --out "$sweep_tmp/chaos.json" > /dev/null
    cmp "$sweep_tmp/chaos_ref.json" "$sweep_tmp/chaos.json"
    echo "chaos loop ($1): survived $kills hard kills ($tries runs) byte-identically"
}

echo "==> kill -9 chaos loop, per-cell commit (--journal)"
chaos_loop --journal

echo "==> kill -9 chaos loop, group commit (--store)"
chaos_loop --store

echo "==> torn-write smoke (mid-record kill is salvaged, not hand-repaired)"
# The torn-write hook persists half of one record's bytes and dies —
# the exact shape a kill mid-`write(2)` leaves behind. Recovery must
# truncate the torn tail, report it, and resume byte-identically.
if HELIOS_JOURNAL_TORN_WRITE=3 "$helios" campaign run --spec "$rspec" \
    --journal "$sweep_tmp/torn.store" > /dev/null 2>&1; then
    echo "torn-write injection unexpectedly exited zero" >&2
    exit 1
fi
"$helios" campaign recover "$sweep_tmp/torn.store" | grep -q "torn byte(s)"
"$helios" campaign run --spec "$rspec" \
    --journal "$sweep_tmp/torn.store" --out "$sweep_tmp/torn.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/torn.json"
# The store is a merge input in its own right; its attempt records never
# surface as rows.
"$helios" campaign merge --in "$sweep_tmp/torn.store" \
    --out "$sweep_tmp/torn_merged.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/torn_merged.json"
echo "torn store salvaged and merged byte-identically"

echo "==> partition smoke (correlated rack outage + interconnect faults)"
# The full three-class fault stack through the release binary: a rack
# domain that permanently kills node1 and severs the only inter-node
# link of cluster2, on top of per-link interconnect faults. The sweep
# must survive (lost cells are measurements) and a 2-shard partition
# must recombine byte-identical to the unsharded run.
pspec=examples/specs/partition_smoke.json
"$helios" campaign run --spec "$pspec" --out "$sweep_tmp/pfull.json" > /dev/null
"$helios" campaign run --spec "$pspec" --shard 1/2 --out "$sweep_tmp/p1.json" > /dev/null
"$helios" campaign run --spec "$pspec" --shard 2/2 --out "$sweep_tmp/p2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/p1.json" --in "$sweep_tmp/p2.json" \
    --out "$sweep_tmp/pmerged.json" > /dev/null
cmp "$sweep_tmp/pfull.json" "$sweep_tmp/pmerged.json"
echo "2-shard merge is byte-identical under the full fault stack"

echo "==> elastic-capacity smoke (spot preempt + drain + churn)"
# Capacity events through the release binary: a timed preempt/drain/join
# plan plus a spot-churn renewal, with the benign synthesized resilience
# stack. A 2-shard partition must recombine byte-identical to the
# unsharded sweep — capacity realizations are keyed by entity id, never
# by worker or shard.
espec=examples/specs/elastic_smoke.json
"$helios" campaign run --spec "$espec" --out "$sweep_tmp/efull.json" > /dev/null
grep -q '"preemptions"' "$sweep_tmp/efull.json"
"$helios" campaign run --spec "$espec" --shard 1/2 --out "$sweep_tmp/e1.json" > /dev/null
"$helios" campaign run --spec "$espec" --shard 2/2 --out "$sweep_tmp/e2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/e1.json" --in "$sweep_tmp/e2.json" \
    --out "$sweep_tmp/emerged.json" > /dev/null
cmp "$sweep_tmp/efull.json" "$sweep_tmp/emerged.json"
echo "2-shard merge is byte-identical under elastic capacity"

echo "==> adversarial fuzz smoke (differential oracles)"
# A deterministic slice of the fuzz harness through the release binary:
# 25 random campaign specs from seed 7, each checked against the
# differential oracles (hooks-off identity, --jobs and shard
# byte-identity, fault-free lower bound, schedule invariants). Any
# divergence shrinks to a fixture and fails this step.
"$helios" fuzz --seed 7 --runs 25

echo "==> bugbase replay (fixed bugs stay fixed)"
# Every committed fixture replays through the oracles, via the binary
# and via the in-process harness test; the count cross-check makes a
# fixture the replay did not pick up a hard failure.
fixture_count=$(ls tests/bugbase/*.json | wc -l | tr -d ' ')
"$helios" fuzz --replay tests/bugbase | tee "$sweep_tmp/replay.log"
if ! grep -q "replayed $fixture_count fixture(s), 0 diverging" "$sweep_tmp/replay.log"; then
    echo "bugbase replay missed fixtures: expected $fixture_count, see replay.log" >&2
    exit 1
fi
cargo test -q --test bugbase

echo "==> infeasible-grid smoke (incomplete cells survive shard merge)"
# cybershake on edge_soc can never be placed: every cell must come back
# as an `infeasible` measurement with null summary means, and a 2-shard
# partition must recombine byte-identical to the unsharded run.
ispec=examples/specs/infeasible_smoke.json
"$helios" campaign run --spec "$ispec" --out "$sweep_tmp/ifull.json" > /dev/null
grep -q '"incomplete_reason": "infeasible"' "$sweep_tmp/ifull.json"
grep -q '"mean_makespan_secs": null' "$sweep_tmp/ifull.json"
"$helios" campaign run --spec "$ispec" --shard 1/2 --out "$sweep_tmp/i1.json" > /dev/null
"$helios" campaign run --spec "$ispec" --shard 2/2 --out "$sweep_tmp/i2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/i1.json" --in "$sweep_tmp/i2.json" \
    --out "$sweep_tmp/imerged.json" > /dev/null
cmp "$sweep_tmp/ifull.json" "$sweep_tmp/imerged.json"
echo "infeasible cells are measurements and merge byte-identically"

echo "==> columnar store + query smoke"
# The smoke spec swept into 2 columnar store shards must merge (through
# the mixed-format merge path) byte-identical to the unsharded JSON
# report, and a GROUP BY scheduler query over the store shards must
# byte-match the same query over the compiled JSON summary's report.
"$helios" campaign run --spec examples/specs/smoke.json --shard 1/2 \
    --store "$sweep_tmp/s1.store" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 2/2 \
    --store "$sweep_tmp/s2.store" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/s1.store" --in "$sweep_tmp/s2.store" \
    --out "$sweep_tmp/store_merged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/store_merged.json"
gq='SELECT scheduler, count(*), avg_completed(makespan_secs), frac(completed) GROUP BY scheduler'
"$helios" query "$gq" --in "$sweep_tmp/s1.store" --in "$sweep_tmp/s2.store" \
    --json > "$sweep_tmp/q_store.json"
"$helios" query "$gq" --in "$sweep_tmp/full.json" --json > "$sweep_tmp/q_json.json"
cmp "$sweep_tmp/q_store.json" "$sweep_tmp/q_json.json"
echo "store merge and GROUP BY query are byte-identical to the JSON path"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
