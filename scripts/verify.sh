#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + lint gates.
#
# Runs fully offline — the workspace has no external dependencies, so
# no network (and no pre-populated cargo cache) is required.
set -euo pipefail
cd "$(dirname "$0")/.."

# One allocation meter (DESIGN.md §5): `sintel_common::alloc::Counting`
# is the only global allocator. perfbench/ has its own and is not scanned.
echo "==> one allocation meter (impl GlobalAlloc only in crates/common/src/alloc.rs)"
if grep -rl "impl GlobalAlloc" crates src tests examples | grep -vx "crates/common/src/alloc.rs"; then
    echo "verify: a second allocation meter in the files above" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# The root manifest's default-members cover every crate, so plain
# `cargo test -q` is the whole workspace. The gate also fails if the
# number of passing tests drops below this floor: a suite must never
# shrink quietly.
TEST_FLOOR=812

# Run `cargo test -q` with the given environment, echo its output and
# fail unless at least TEST_FLOOR tests passed.
run_tests() {
    local log
    log=$(mktemp)
    env "$@" cargo test -q 2>&1 | tee "$log"
    local passed
    passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
    rm -f "$log"
    if [ "$passed" -lt "$TEST_FLOOR" ]; then
        echo "verify: only $passed tests passed, below the floor of $TEST_FLOOR" >&2
        exit 1
    fi
    echo "==> $passed tests passed (floor $TEST_FLOOR)"
}

echo "==> cargo test -q (SINTEL_THREADS=1, serial paths)"
run_tests SINTEL_THREADS=1

# The determinism contract (DESIGN.md §4e): the same suite must pass —
# with bitwise-identical scores asserted inside the tests — on the
# parallel paths.
echo "==> cargo test -q (SINTEL_THREADS=4, parallel paths)"
run_tests SINTEL_THREADS=4

# Crash-recovery contract (DESIGN.md §4f): every injected crash point
# and every torn-tail byte offset must recover without a panic. The
# fault hooks only exist behind the `faulty` feature, so the suite runs
# as its own compilation of sintel-store.
echo "==> cargo test -q -p sintel-store --features faulty (crash recovery)"
cargo test -q -p sintel-store --features faulty

# Serving-tier chaos contract (DESIGN.md §4g): injected tenant faults
# (panic/hang/slow/flaky) must leave healthy tenants bitwise-unaffected,
# and both serve crash points must recover exactly-once.
echo "==> cargo test -q -p sintel-serve --features faulty (chaos + crash points)"
cargo test -q -p sintel-serve --features faulty

# Contract-conformance sanitizer (DESIGN.md §4i): with slot-access
# instrumentation on, the full shipped primitive set must sweep clean
# against its declared contracts, and the seeded drift mutation must be
# caught replayably. Dev-only feature, so it compiles its own tree.
echo "==> cargo test -q -p sintel-pipeline --features sanitizer (contract sanitizer)"
cargo test -q -p sintel-pipeline --features sanitizer

# Bounded soak: misbehaving tenants streamed for SINTEL_SOAK_SECS
# (default 30s inside the test) must not grow RSS past the cap or
# perturb healthy tenants. Release build keeps the gate wall-clock
# bounded; override SINTEL_SOAK_SECS to lengthen locally.
echo "==> cargo test -p sintel-serve --features faulty --release -- --ignored soak (bounded soak)"
SINTEL_SOAK_SECS="${SINTEL_SOAK_SECS:-10}" \
    cargo test -q -p sintel-serve --features faulty --release -- --ignored soak_

# Introspection smoke (DESIGN.md §4h): the HTTP status endpoint must
# answer every route with well-formed payloads mid-ingest, and a
# hammered endpoint must leave emissions + store bytes bitwise-identical
# (release build: the scrape-purity race is timing-sensitive, so smoke
# it in the optimized profile too, not just the debug runs above).
echo "==> cargo test -q -p sintel-serve --release http smoke + scrape purity"
cargo test -q -p sintel-serve --release --test http_status --test scrape_under_load

# `cargo test` and `cargo clippy` never build bench targets; compile
# the ablation micro-bench (DESIGN.md §4) so it cannot rot unseen.
# End-to-end and per-layer numbers come from perfbench/, not from here.
echo "==> cargo bench -p sintel-bench --no-run (ablation harness builds)"
cargo bench -q -p sintel-bench --no-run

# The fault-isolation layer must never itself abort: deny unwrap in the
# pipeline executor, the framework core, the durability-critical store,
# the long-running serving tier, the human-in-the-loop layer that writes
# expert annotations, the observability substrate every one of them
# calls into, sintel-common's cancel tokens and fan-out substrate, the
# nn training kernels every deep pipeline runs, the primitives, stats
# models and linalg kernels every serve pass runs through, and the
# time-series substrate and dataset loaders that decode untrusted CSV
# (test code is exempt — clippy only lints lib/bin targets here).
echo "==> cargo clippy (deny unwrap_used in sintel-pipeline, sintel, sintel-store, sintel-serve, sintel-hil, sintel-obs, sintel-analyze, sintel-common, sintel-nn, sintel-primitives, sintel-stats, sintel-linalg, sintel-timeseries, sintel-datasets)"
cargo clippy -p sintel-pipeline -p sintel -p sintel-store -p sintel-serve -p sintel-hil -p sintel-obs -p sintel-analyze -p sintel-common -p sintel-nn -p sintel-primitives -p sintel-stats -p sintel-linalg -p sintel-timeseries -p sintel-datasets -- -D clippy::unwrap_used

# Library crates must route diagnostics through sintel-obs, never print
# directly. Lib targets only: binaries (CLI, bench tables) legitimately
# print their output.
echo "==> cargo clippy (deny print_stdout/print_stderr in library crates)"
cargo clippy --workspace --lib -- -D clippy::print_stdout -D clippy::print_stderr

# The parallel substrate is scoped-threads only: an Arc around a
# non-Send/Sync payload is always a bug here, never a workaround.
echo "==> cargo clippy (deny arc_with_non_send_sync workspace-wide)"
cargo clippy --workspace -- -D clippy::arc_with_non_send_sync

# Crate-scoped lint extensions (the deny attributes live in each crate's
# lib.rs, with documented inline allows at the justified sites):
#  - sintel-linalg denies clippy::indexing_slicing — dense kernels must
#    justify every direct index against a construction invariant;
#  - sintel-linalg and sintel-nn deny clippy::needless_range_loop — hot
#    kernels iterate slices, they never index by range (DESIGN.md §4j):
#    range loops defeat bounds-check elision and hide access patterns
#    from the vectorizer;
#  - sintel-metrics denies clippy::float_cmp — computed scores must never
#    be compared with `==`.
# The linalg step lints every target: the crate-level denies reach its
# `#[cfg(test)]` modules too, so unit tests use checked access as well.
echo "==> cargo clippy (crate-scoped denies: linalg indexing + range loops, nn range loops, metrics float_cmp)"
cargo clippy -q -p sintel-linalg --all-targets
cargo clippy -q -p sintel-nn --lib
cargo clippy -q -p sintel-metrics --lib

# The store, the serving tier, the observability substrate, the
# pipeline executor and its watchdog, the framework core, the shared
# substrate, the time-series substrate, the dataset loaders, the
# human-in-the-loop layer and the paper's bench binaries are
# clippy-clean on every target, tests included; keep them so.
echo "==> cargo clippy (store, serve, obs, pipeline, core, common, timeseries, datasets, hil, bench: all targets, warnings denied)"
cargo clippy -q -p sintel-store -p sintel-serve -p sintel-obs -p sintel-pipeline -p sintel \
    -p sintel-common -p sintel-timeseries -p sintel-datasets -p sintel-hil -p sintel-bench \
    --all-targets -- -D warnings

# The API docs must build without a warning: no broken, ambiguous or
# private intra-doc links.
echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# Static analysis gate: every hub and extension pipeline must produce
# zero error diagnostics (SA000-SA009) under `sintel-cli analyze`.
echo "==> sintel-cli analyze --all"
cargo run --release -q -p sintel --bin sintel-cli -- analyze --all

# Deployment analysis gate (DESIGN.md §4i): the shipped hub templates
# must be deployable as a tenant roster under the default serve
# configuration — zero SA008/SA010-SA014 error diagnostics. Extensions
# are excluded on purpose: they are benchmark comparators, and e.g.
# holt_winters is legitimately cheaper than the default fallback.
echo "==> sintel-cli analyze --deployment (hub roster)"
cargo run --release -q -p sintel --bin sintel-cli -- analyze --deployment \
    lstm_dynamic_threshold dense_autoencoder lstm_autoencoder tadgan arima \
    azure_anomaly_detection

echo "verify: OK"
