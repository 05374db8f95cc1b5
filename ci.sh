#!/usr/bin/env bash
# Tier-1 gate plus the lint gauntlet. Run from the repo root.
#
#   ./ci.sh         full gate (build, tests, fmt, clippy, lint, perf, chaos,
#                   benchmark smoke)
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Debug-profile tests run with the verbs-contract validator in Panic mode
# (rsj-rdma's default `verify` feature), so this is the validator-enabled
# pass: any RDMA protocol misuse aborts the suite. `--workspace`: the root
# manifest is also the `rsj` facade package, so a bare `cargo test` would
# test only the facade and skip every crate's own suite.
cargo test --workspace -q
cargo fmt --check
cargo clippy --workspace -- -D warnings
# Project rules (token-level analysis: determinism hazards, barrier
# protocol, error swallowing, plus the ported pattern rules). The gate
# fails only on findings absent from the committed baseline; after
# review, refresh it with `cargo run -p rsj-lint -- --update-baseline`.
cargo run -q -p rsj-lint -- --json --baseline lint-baseline.json > target/lint-report.json
# The validator must also compile out cleanly (hard safety checks stay).
cargo check -q -p rsj-rdma --no-default-features
# Wall-clock perf gate: a short harness run must succeed end to end (it
# measures the validator-overhead bound, warning on a breach; full runs
# enforce it), and the committed BENCH_PERF.json trajectory must exist
# and parse.
cargo run --release -q -p rsj-bench --bin perf -- --short --label ci --out target/ci_bench_perf.json
cargo run --release -q -p rsj-bench --bin perf -- --check
# Sweep-smoke lane: a small experiment subset through the parallel sweep
# engine with two workers, diffed byte-wise against the serial engine.
# Guards the stitching contract (DESIGN.md §12): `--jobs N` must never
# change a single output byte.
cargo run --release -q -p rsj-bench --bin experiments -- \
    all --subset fig3,fig5b,hardware,optimal --jobs 1 > target/sweep_smoke_serial.txt
cargo run --release -q -p rsj-bench --bin experiments -- \
    all --subset fig3,fig5b,hardware,optimal --jobs 2 > target/sweep_smoke_parallel.txt
cmp target/sweep_smoke_serial.txt target/sweep_smoke_parallel.txt
# Seeded chaos sweep: every operator under a deterministic fault schedule
# must complete byte-correct or abort with a structured error, and replay
# identically. The watchdog timeout turns any hang into a hard CI failure.
timeout 600 cargo run --release -q -p rsj-bench --bin chaos -- --seeds 6
# Query-service smoke: a short mixed-operator batch through the admission
# queue and shared fabric, every result verified against its generator
# oracle. Same watchdog rule — a wedged schedule must fail, not stall.
timeout 300 cargo run --release -q -p rsj-bench --bin service -- --short
# Self-healing soak (DESIGN.md §13): a seeded crash/recovery batch through
# the healing service — every query must end Completed (byte-correct) or
# typed Rejected, at least one query must heal, and the report must replay
# byte-identically. The watchdog turns a hung query into a CI failure.
timeout 300 cargo run --release -q -p rsj-bench --bin chaos -- --soak --short
# Benchmark smoke: the repository benchmark is its own package over the
# library crates' public API, so nothing above compiles it. Build it and
# run one short workload; its last line must report every output correct
# and no failed operation.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench_last="$(cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
    --workload service-heal --seconds 1 --trace 0 | tail -n 1)"
echo "benchmark smoke: $bench_last"
grep -q '"correct": true' <<<"$bench_last"
grep -Eq '"failed": 0[,}]' <<<"$bench_last"
