#!/bin/sh
# CI gate: build, test, lint, docs, and smoke runs. The one bench file,
# BENCH_kernels.json, is regenerated (which also re-asserts that every
# vision kernel, including the LK paths and the demand-driven gradient and
# Shi-Tomasi scans, is bit-identical to its oracle in
# adavp_vision::reference) and bench-diffed against the committed copy.
# Harness and serve parity across --jobs, and the batching acceptance bar,
# are tests (crates/bench/tests/parallel_determinism.rs,
# tests/serve_determinism.rs); end-to-end speed is perfbench's.
#
# Usage: scripts/ci.sh [--no-bench] [--strict]
#   --no-bench  skip the bench/smoke half (build+test+lint only)
#   --strict    make the bench-diff regression gate and the lint.baseline
#               drift check fail CI instead of just printing a warning
set -eu
cd "$(dirname "$0")/.."
# The workspace is std-only: every crate is a path crate and the committed
# Cargo.lock lists nothing else, so builds and tests never need the network.

NO_BENCH=0
STRICT=0
for arg in "$@"; do
    case "$arg" in
    --no-bench) NO_BENCH=1 ;;
    --strict) STRICT=1 ;;
    *)
        echo "unknown flag: $arg (usage: scripts/ci.sh [--no-bench] [--strict])" >&2
        exit 2
        ;;
    esac
done

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== perfbench type-check (its own workspace; catches public-API breaks in the crates it drives)"
cargo check --offline --manifest-path perfbench/Cargo.toml
# The check re-resolves perfbench's lockfile against the path crates;
# restore the committed one, as the lint step does for lint.baseline.
git checkout -- perfbench/Cargo.lock

echo "== cargo test (overflow-checks=on via [profile.test])"
# --no-fail-fast: one failing test binary must not hide the results of the
# binaries after it; the step still fails if any test fails.
cargo test -q --offline --workspace --no-fail-fast

echo "== determinism lint (adavp-lint --fix-check; DESIGN.md §13/§18)"
cargo run --release -p adavp-lint -- --fix-check

echo "== lint --json byte-stability + baseline diff (DESIGN.md §18)"
mkdir -p target/ci-results
cargo run --release -q -p adavp-lint -- --json target/ci-results/lint_a.json
cargo run --release -q -p adavp-lint -- --json target/ci-results/lint_b.json
cmp target/ci-results/lint_a.json target/ci-results/lint_b.json
# Regenerate the baseline into a scratch file and diff against the committed
# one: drift means new legacy debt was absorbed (or paid down) without the
# checked-in lint.baseline being updated. Warn by default; gate on --strict.
cargo run --release -q -p adavp-lint -- \
    --write-baseline --root . >/dev/null
if git diff --quiet -- lint.baseline; then
    echo "lint.baseline matches the live tree"
else
    git checkout -- lint.baseline
    if [ "$STRICT" = "1" ]; then
        echo "FAIL: lint.baseline is out of date; run adavp-lint --write-baseline and audit the diff" >&2
        exit 1
    fi
    echo "WARN: lint.baseline drifted from the live tree (non-blocking; re-run with --strict to gate)"
fi

echo "== miri smoke (UB check over the dep-free deterministic core)"
if cargo miri --version >/dev/null 2>&1; then
    # adavp-sim (over adavp-rng) and adavp-lint are std-only, so Miri can
    # interpret them without native FFI.
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p adavp-sim -p adavp-lint --lib
else
    echo "cargo miri unavailable (component not installed); skipping UB smoke"
fi

echo "== rustfmt"
cargo fmt --all -- --check

echo "== clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [ "$NO_BENCH" != "1" ]; then
    # Snapshot the committed baseline before the smoke run regenerates the
    # file in place, so bench-diff compares fresh-vs-committed.
    mkdir -p target/ci-results
    git show HEAD:BENCH_kernels.json > target/ci-results/baseline_kernels.json 2>/dev/null || true

    echo "== kernel bench smoke (writes BENCH_kernels.json)"
    cargo run --release -p adavp-vision --bin kernels_bench -- BENCH_kernels.json

    echo "== parallel harness smoke (every memoized-run reader at --jobs 2; ablations.csv matches the committed smoke-scale record)"
    cargo run --release -p adavp-bench --bin experiments -- \
        fig5 fig6 fig7 fig8 fig9 fig10 fig11 table3 ablations \
        --scale smoke --jobs 2 --out target/ci-results
    cmp target/ci-results/ablations.csv results/ablations.csv

    echo "== fault sweep smoke (clean→stress battery incl. cascade + CTD, writes faults.csv/json)"
    cargo run --release -p adavp-bench --bin experiments -- faults \
        --scale smoke --out target/ci-results

    echo "== telemetry trace smoke (Chrome export parses and is run-to-run byte-identical)"
    cargo run --release --bin adavp -- trace --scenario highway --seed 7 \
        --frames 90 --chrome target/ci-results/trace_a.json
    cargo run --release --bin adavp -- trace --scenario highway --seed 7 \
        --frames 90 --chrome target/ci-results/trace_b.json
    cmp target/ci-results/trace_a.json target/ci-results/trace_b.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'EOF'
import json
with open("target/ci-results/trace_a.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
tids = {e["tid"] for e in events}
assert len(tids) >= 3, f"expected >=3 tracks, got {sorted(tids)}"
assert any(e.get("ph") == "X" for e in events), "no spans in chrome trace"
print(f"chrome trace OK: {len(events)} events on {len(tids)} tracks")
EOF
    fi

    echo "== serve sweep smoke (all three schemes, --jobs 2 vs --jobs 1 byte parity incl. metrics)"
    mkdir -p target/ci-results
    cargo run --release --bin adavp -- serve --streams 1,8,24 --cycles 6 --jobs 1 \
        --schemes mpdt,cascade,ctd \
        --csv target/ci-results/serve_j1.csv --json target/ci-results/serve_j1.json \
        --metrics-prom target/ci-results/metrics_j1.prom \
        --metrics-json target/ci-results/metrics_j1.json
    cargo run --release --bin adavp -- serve --streams 1,8,24 --cycles 6 --jobs 2 \
        --schemes mpdt,cascade,ctd \
        --csv target/ci-results/serve_j2.csv --json target/ci-results/serve_j2.json \
        --metrics-prom target/ci-results/metrics_j2.prom \
        --metrics-json target/ci-results/metrics_j2.json
    cmp target/ci-results/serve_j1.csv target/ci-results/serve_j2.csv
    cmp target/ci-results/serve_j1.json target/ci-results/serve_j2.json
    cmp target/ci-results/metrics_j1.prom target/ci-results/metrics_j2.prom
    cmp target/ci-results/metrics_j1.json target/ci-results/metrics_j2.json

    echo "== metrics report smoke (2-stream fleet, SLO budget table; exposition and snapshot run-to-run byte-identical)"
    cargo run --release --bin adavp -- metrics --streams 2 --gpus 1 --cycles 6 \
        --prom target/ci-results/fleet_metrics_a.prom \
        --json target/ci-results/fleet_metrics_a.json
    cargo run --release --bin adavp -- metrics --streams 2 --gpus 1 --cycles 6 \
        --prom target/ci-results/fleet_metrics_b.prom \
        --json target/ci-results/fleet_metrics_b.json
    cmp target/ci-results/fleet_metrics_a.prom target/ci-results/fleet_metrics_b.prom
    cmp target/ci-results/fleet_metrics_a.json target/ci-results/fleet_metrics_b.json

    echo "== bench-diff regression gate (fresh vs committed BENCH_kernels.json)"
    if [ -s target/ci-results/baseline_kernels.json ]; then
        DIFF_FLAGS="--baseline target/ci-results/baseline_kernels.json --fresh BENCH_kernels.json"
        if [ "$STRICT" = "1" ]; then
            # shellcheck disable=SC2086
            cargo run --release -p adavp-bench --bin bench-diff -- $DIFF_FLAGS
        else
            # shellcheck disable=SC2086
            cargo run --release -p adavp-bench --bin bench-diff -- $DIFF_FLAGS ||
                echo "WARN: bench regression beyond tolerance (non-blocking; re-run with --strict to gate)"
        fi
    else
        echo "no committed baseline found; skipping bench-diff"
    fi

    echo "== telemetry determinism suite (chrome trace bytes across jobs)"
    cargo test -q --offline -p adavp-bench --test parallel_determinism \
        chrome_trace_bytes_identical_across_jobs --release
fi

echo "CI OK"
