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
#   6. equivalence suite  cargo test -q --release --test equivalence
#   7. server suites x6   cargo test -q --release --test server_loopback --test slo --test idle_cpu
#                         (5 passes, default threads; 1 pass, RUST_TEST_THREADS=1)
#   8. bench smoke        cargo run --release -p tagbreathe-bench --bin stream_bench -- --smoke --trace
#   9. fleet bench smoke  cargo run --release -p tagbreathe-bench --bin stream_bench -- --fleet --smoke
#  10. CLI slo smoke      cargo run --release --bin tagbreathe-cli -- slo <metrics sidecar>
#  11. loopback soak      cargo run --release -p tagbreathe-bench --bin loopback_soak -- --smoke
#  12. workspace lint     cargo run -p tagbreathe-lint -- check --format sarif
#  13. hot-path report    cargo run -p tagbreathe-lint -- hotpath --max-sites 0
#  14. atomics report     cargo run -p tagbreathe-lint -- atomics --max-violations 0
#  15. atomics mutant     cargo run -p tagbreathe-lint -- atomics --cfg sync_mutant  (must FAIL)
#  16. model checker      cargo run --release -p tagbreathe-syncmodel --bin syncmodel_check -- --deep
#  17. perfbench tests    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
#
# Steps 3 and 4 cover the whole workspace: the root manifest's
# `default-members` lists the suite package and every crate, so plain
# `cargo test -q` runs each crate's unit tests, integration tests (the
# fleet ring stress, the model-checker protocols, the lint golden
# corpus) and doctests, not only the suite's. Step 5 keeps the API docs
# buildable (broken intra-doc links are errors). Step 6 pins the batch/streaming agreement of the shared
# operator graph: bit-identical rates on time-ordered traces, within
# 0.1 bpm when timestamps arrive out of order. Step 7 repeats the three real-socket server
# suites (loopback bit-identity, SLO/freshness, idle CPU) five times
# with the default test threads and once with RUST_TEST_THREADS=1: they
# must pass every time on any core count, so a timing-dependent wait, an
# engine that sits on finished snapshots, or a worker or acceptor that
# spins while idle fails here instead of flaking later (one pass is
# ~0.6 s of test time, 0.5 s of it the idle-CPU measurement). Step 8 is the
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
# server runs behind `/slo`. Step 11 drives a simulated reader fleet
# through real TCP into tagbreathe-server (docs/PROTOCOL.md) and exits
# non-zero unless every served snapshot is bit-identical to the inline
# engine and nothing was shed; it also validates the `/slo` JSON (via
# obs::json) and the `/status` dashboard sections under live load.
# Step 12 is the in-tree
# ratchet linter (crates/lint): it fails on any violation beyond
# lint-baseline.txt AND on any uncommitted slack (a burn-down that
# forgot `-- check --update-baseline`). It also emits the full report as
# SARIF 2.1.0 (lint.sarif), re-validated with the linter's own in-tree
# JSON validator (`validate-json`, backed by tagbreathe_obs::json).
# Step 13 is the machine-readable hot-path cost inventory: it fails if a
# `[hotpath]` root no longer resolves or the per-report path performs
# any allocation or non-slab map lookup at all (`--max-sites 0` — the
# slab/interner refactor burned the last two sites, and this pins the
# ratchet shut), and its JSON is re-validated like the SARIF. Step 14 is
# the atomics-discipline gate: every atomic call site must match the
# ordering protocol declared in lint.toml's `[atomics]` section
# (`--max-violations 0`), and the JSON report is re-validated. Step 15
# is the static mutant proof: re-resolving the cfg-switched ordering
# constants under `--cfg sync_mutant` MUST produce violations — if the
# weakened orderings pass the gate, the analyzer has gone blind and CI
# fails. Step 16 runs the bounded model checker (crates/syncmodel): the
# declared ring/barrier/drain/idle-wake protocols must survive
# exhaustive small-bound exploration AND seeded deep random walks, and
# each runtime mutant (weakened orderings, an unpark issued before its
# batch is published) must fail with a counterexample trace. Steps 12-16
# together must finish inside the lint wall-clock budget below — the
# linter re-parses the workspace per invocation, so a runaway pass
# shows up here before it slows every pre-commit hook. Step 17 builds
# the end-to-end benchmark (perfbench/, a package of its own with path
# dependencies on crates/*) and runs its self-tests, so a workspace API
# change that would break the benchmark fails here.
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

echo "==> cargo test -q --release --test equivalence"
cargo test -q --release --test equivalence

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

echo "==> loopback_soak --smoke"
cargo run -q --release -p tagbreathe-bench --bin loopback_soak -- --smoke --out /tmp/BENCH_loopback_smoke.json
test -s /tmp/BENCH_loopback_smoke.json \
    || { echo "ci: loopback soak output missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/BENCH_loopback_smoke.json

echo "==> cargo run -p tagbreathe-lint -- check --format sarif --out /tmp/tagbreathe-lint.sarif"
lint_started_s=$SECONDS
cargo run -q -p tagbreathe-lint -- check --format sarif --out /tmp/tagbreathe-lint.sarif
test -s /tmp/tagbreathe-lint.sarif \
    || { echo "ci: SARIF report missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/tagbreathe-lint.sarif

echo "==> cargo run -p tagbreathe-lint -- hotpath --max-sites 0"
cargo run -q -p tagbreathe-lint -- hotpath --max-sites 0 --out /tmp/tagbreathe-hotpath.json
test -s /tmp/tagbreathe-hotpath.json \
    || { echo "ci: hot-path report missing or empty" >&2; exit 1; }
cargo run -q -p tagbreathe-lint -- validate-json /tmp/tagbreathe-hotpath.json

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

# Lint wall-clock budget: the semantic runs (check + hotpath + atomics,
# both cfgs) plus the model checker, binaries already built, must stay
# interactive. 60 s is ~10x current cost.
lint_elapsed_s=$((SECONDS - lint_started_s))
if [ "$lint_elapsed_s" -gt 60 ]; then
    echo "ci: lint passes took ${lint_elapsed_s}s — over the 60 s budget" >&2
    exit 1
fi
echo "ci: lint passes took ${lint_elapsed_s}s (budget 60 s)"

echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "ci: all green"
