#!/usr/bin/env bash
# Tier-1 gate for the tagbreathe workspace. Fully offline: no network,
# no external tools beyond the pinned Rust toolchain.
#
# Steps (fail-fast, in order):
#   1. formatting         cargo fmt --check
#   2. clippy, zero-warn  cargo clippy --workspace --all-targets -- -D warnings
#   3. release build      cargo build --release               (every crate)
#   4. test suite         cargo test -q                       (every crate)
#   5. rustdoc, zero-warn RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
#   6. release suites     cargo test -q --release --test equivalence --test allocation_oracle
#                         cargo test -q --release -p tagbreathe-epcgen2 -p tagbreathe-server -p tagbreathe --lib
#   7. server suites x6   cargo test -q --release --test server_loopback --test slo --test idle_cpu
#                         (5 passes, default threads; 1 pass, RUST_TEST_THREADS=1)
#   8. bench smoke        cargo run --release -p tagbreathe-bench --bin stream_bench -- --smoke --trace
#   9. fleet bench smoke  cargo run --release -p tagbreathe-bench --bin stream_bench -- --fleet --smoke
#  10. CLI slo smoke      cargo run --release --bin tagbreathe-cli -- slo <metrics sidecar>
#  11. workspace lint     cargo run -p tagbreathe-lint -- check --format sarif
#  12. atomics report     cargo run -p tagbreathe-lint -- atomics --max-violations 0
#  13. atomics mutant     cargo run -p tagbreathe-lint -- atomics --cfg sync_mutant  (must FAIL)
#  14. model checker      cargo run --release -p tagbreathe-syncmodel --bin syncmodel_check -- --deep
#  15. perfbench tests    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
#                         perfbench --workload fleet_flood --seed 1 --seconds 2 --trace 0
#                         perfbench --workload ward_paced --seed 1 --seconds 2 --trace 0
#
# Step 2 enforces the library-crate rules: every crate listed in
# lint.toml's `lib-crates` denies `missing_docs`, `unreachable_pub`,
# `unsafe_code` and clippy's `unwrap_used`, `expect_used`, `panic` and
# `unreachable` at its root, in-src test modules included
# (docs/LINTING.md). Steps 3 and 4
# cover the whole workspace: the root manifest's `default-members`
# lists the suite package and every crate, so plain `cargo test -q`
# runs each crate's unit tests, integration tests (the fleet ring
# stress, the model-checker protocols, the lint golden corpus) and
# doctests, not only the suite's. Step 5 keeps the API docs
# buildable (broken intra-doc links are errors). Step 6 pins the batch/streaming agreement of the shared
# operator graph: bit-identical rates on time-ordered traces, within
# 0.1 bpm when timestamps arrive out of order. It runs the allocation
# oracle (0 allocations per ward- and per flood-shaped report) in the
# optimised build that perfbench measures, not only in step 4's debug
# build (~0.1 s). It also runs the codec's,
# the ingest server's and the core library's unit tests in an optimised
# build (CRC and fixed-layout record oracles, the run-release merge
# oracle, the chunked-read session tests, the router's table probe
# arithmetic and its chunked-routing oracle, the shard oracles), so their
# arithmetic and bounds hold where debug assertions and overflow checks
# are compiled out. Step 7 repeats the three real-socket server
# suites (loopback bit-identity, SLO/freshness, idle CPU) five times
# with the default test threads and once with RUST_TEST_THREADS=1: they
# must pass every time on any core count, so a timing-dependent wait, an
# engine that sits on finished snapshots, or a worker or acceptor that
# spins while idle fails here instead of flaking later (one pass is
# ~0.6 s of test time, 0.5 s of it the idle-CPU measurement). The
# loopback suite streams two readers over real TCP in 0.5 s time slices
# and requires the live `/snapshots` bits to be a prefix of the inline
# engine's, every sent report accepted and none shed, a valid `/slo` and
# a complete `/status` page. Step 8 is the
# streaming-vs-recompute microbench in its one-iteration smoke mode,
# and also asserts the
# instrumented metrics sidecar and the flight-recorder Chrome-trace
# sidecar are written and non-empty (stream_bench itself validates both
# JSON documents before writing). Step 9 runs the sharded fleet engine
# in its one-point smoke mode: the binary exits non-zero unless the
# fleet's merged snapshot stream is bit-identical to the single-threaded
# engine's, and its JSON output is re-validated here like the other
# machine-readable artefacts. Step 9 also ratchets the fleet's memory
# footprint: the max `bytes_per_resident_user` across smoke points must
# stay under the ceiling asserted below (observed ~364 B/user at the
# smoke window; the ceiling leaves ~10x headroom and catches per-user
# state blowups). Step 10 renders the SLO table offline from the step-8
# metrics sidecar via `tagbreathe-cli slo` — the same burn-rate code the
# server runs behind `/slo`. Step 11 is the in-tree
# ratchet linter (crates/lint): it fails on any violation beyond
# lint-baseline.txt AND on any uncommitted slack (a burn-down that
# forgot `-- check --update-baseline`). It also emits the full report as
# SARIF 2.1.0 (lint.sarif), re-validated with the linter's own in-tree
# JSON validator (`validate-json`, backed by tagbreathe_obs::json).
# Step 12 is the atomics-discipline gate: every atomic call site must
# match the ordering protocol declared in lint.toml's `[atomics]` section
# (`--max-violations 0`), and the JSON report is re-validated. Step 13
# is the static mutant proof: re-resolving the cfg-switched ordering
# constants under `--cfg sync_mutant` MUST produce violations — if the
# weakened orderings pass the gate, the analyzer has gone blind and CI
# fails. Step 14 runs the bounded model checker (crates/syncmodel): the
# declared ring/barrier/drain/idle-wake/low-water-wake protocols must
# survive exhaustive small-bound exploration AND seeded deep random
# walks, and each runtime mutant (weakened orderings, an unpark issued
# before its batch is published, a producer that parks on a full ring
# without re-checking it) must fail with a counterexample trace. Under
# `--cfg sync_mutant` steps 13 and 14 both reject the weakened wait
# handshake too: its ordering is spelled through the same
# `fleet::ring::protocol` constants. Steps 11-14
# together must finish inside the lint wall-clock budget below — the
# linter re-parses the workspace per invocation, so a runaway pass
# shows up here before it slows every pre-commit hook. The per-report
# allocation budget is not a lint step: tests/allocation_oracle.rs
# counts allocations at run time in step 4. Step 15 builds
# the end-to-end benchmark (perfbench/, a package of its own with path
# dependencies on crates/*) and runs its self-tests, so a workspace API
# change that would break the benchmark fails here. It then runs one
# short `fleet_flood` round (~2 s) and one short `ward_paced` round
# (~2.3 s) and requires `"correct": true` on each benchmark's last line:
# a library change that makes the served snapshots differ from the
# benchmark's inline replay fails here rather than in the next benchmark
# run. Flood users never hold enough reads to be rated, so only the ward
# round compares served rates: 896 rated (cadence point, user) pairs.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q --release --test equivalence --test allocation_oracle"
cargo test -q --release --test equivalence --test allocation_oracle

echo "==> cargo test -q --release -p tagbreathe-epcgen2 -p tagbreathe-server -p tagbreathe --lib"
cargo test -q --release -p tagbreathe-epcgen2 -p tagbreathe-server -p tagbreathe --lib

echo "==> server suites: 5 passes with default threads, 1 with RUST_TEST_THREADS=1"
for pass in 1 2 3 4 5; do
    echo "ci: server suites pass ${pass}/5"
    cargo test -q --release --test server_loopback --test slo --test idle_cpu
done
RUST_TEST_THREADS=1 cargo test -q --release --test server_loopback --test slo --test idle_cpu

echo "==> stream_bench --smoke --trace"
cargo run -q --release -p tagbreathe-bench --bin stream_bench -- --smoke --trace --out /tmp/BENCH_streaming_smoke.json
test -s /tmp/BENCH_streaming_smoke.metrics.json \
    || { echo "ci: metrics sidecar missing or empty" >&2; exit 1; }
test -s /tmp/BENCH_streaming_smoke.trace.json \
    || { echo "ci: chrome-trace sidecar missing or empty" >&2; exit 1; }

echo "==> stream_bench --fleet --smoke"
cargo run -q --release -p tagbreathe-bench --bin stream_bench -- --fleet --smoke --out /tmp/BENCH_fleet_smoke.json
test -s /tmp/BENCH_fleet_smoke.json \
    || { echo "ci: fleet bench output missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/BENCH_fleet_smoke.json

# Memory-ceiling ratchet: per-user resident state on the fleet path must
# stay bounded. Observed ~364 B/user at the smoke window; 4096 leaves
# ~10x headroom while still catching per-user state blowups.
bytes_user_max=$(grep -o '"bytes_per_resident_user": *[0-9.]*' /tmp/BENCH_fleet_smoke.json \
    | awk -F': *' 'BEGIN{m=0} {if ($2+0 > m) m = $2+0} END{printf "%d", m}')
if [ "$bytes_user_max" -le 0 ]; then
    echo "ci: fleet smoke reported no resident bytes per user" >&2
    exit 1
fi
if [ "$bytes_user_max" -gt 4096 ]; then
    echo "ci: bytes_per_resident_user ${bytes_user_max} exceeds the 4096 B ceiling" >&2
    exit 1
fi
echo "ci: bytes_per_resident_user max ${bytes_user_max} (ceiling 4096)"

echo "==> tagbreathe-cli slo /tmp/BENCH_streaming_smoke.metrics.json"
cargo run -q --release --bin tagbreathe-cli -- slo /tmp/BENCH_streaming_smoke.metrics.json \
    > /tmp/tagbreathe-slo.txt
grep -q "snapshot_lag_p99" /tmp/tagbreathe-slo.txt \
    || { echo "ci: CLI slo table missing the lag objective" >&2; exit 1; }
grep -q "bytes_per_resident_user" /tmp/tagbreathe-slo.txt \
    || { echo "ci: CLI slo table missing the residency objective" >&2; exit 1; }

echo "==> cargo run -p tagbreathe-lint -- check --format sarif --out /tmp/tagbreathe-lint.sarif"
lint_started_s=$SECONDS
cargo run -q -p tagbreathe-lint -- check --format sarif --out /tmp/tagbreathe-lint.sarif
test -s /tmp/tagbreathe-lint.sarif \
    || { echo "ci: SARIF report missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/tagbreathe-lint.sarif

echo "==> cargo run -p tagbreathe-lint -- atomics --max-violations 0"
cargo run -q -p tagbreathe-lint -- atomics --max-violations 0 --out /tmp/tagbreathe-atomics.json
test -s /tmp/tagbreathe-atomics.json \
    || { echo "ci: atomics report missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/tagbreathe-atomics.json

echo "==> cargo run -p tagbreathe-lint -- atomics --cfg sync_mutant (expected to fail)"
if cargo run -q -p tagbreathe-lint -- atomics --cfg sync_mutant --max-violations 0 \
    --out /tmp/tagbreathe-atomics-mutant.json >/dev/null 2>&1; then
    echo "ci: atomics pass did NOT flag the sync_mutant orderings — analyzer is blind" >&2
    exit 1
fi
echo "ci: sync_mutant orderings rejected by the atomics gate, as required"

echo "==> syncmodel_check --deep"
cargo run -q --release -p tagbreathe-syncmodel --bin syncmodel_check -- --deep

# Lint wall-clock budget: the semantic runs (check + atomics, both
# cfgs) plus the model checker, binaries already built, must stay
# interactive. They take ~2.5 s here (1.4 s lint, 1.1 s model), so
# 20 s is ~8x current cost.
lint_elapsed_s=$((SECONDS - lint_started_s))
if [ "$lint_elapsed_s" -gt 20 ]; then
    echo "ci: lint passes took ${lint_elapsed_s}s — over the 20 s budget" >&2
    exit 1
fi
echo "ci: lint passes took ${lint_elapsed_s}s (budget 20 s)"

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench --workload fleet_flood --seed 1 --seconds 2 --trace 0"
flood_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload fleet_flood --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$flood_last" in
    *'"correct": true'*) echo "ci: fleet_flood round bit-identical to the inline replay" ;;
    *) echo "ci: fleet_flood round not correct: ${flood_last}" >&2; exit 1 ;;
esac

echo "==> perfbench --workload ward_paced --seed 1 --seconds 2 --trace 0"
ward_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload ward_paced --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$ward_last" in
    *'"correct": true'*) echo "ci: ward_paced round's served rates match the inline replay" ;;
    *) echo "ci: ward_paced round not correct: ${ward_last}" >&2; exit 1 ;;
esac

echo "ci: all green"
