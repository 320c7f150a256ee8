#!/usr/bin/env bash
# Full offline-safe verification: build, test, clippy (warnings are errors),
# and the static analyzer over every example model. Run from anywhere.
# Smoke runs write their JSON under target/ and never rewrite the committed
# BENCH_*.json files.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> ledger benchmark: build and test against these crates (--locked: ledger/Cargo.lock must stay valid)"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked \
    --manifest-path ledger/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml

echo "==> ledger smoke run (one short traced corpus-cold run: C-digest oracle holds, no op fails)"
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml -- run --workload corpus-cold --seed 1 \
    --seconds 2 --trace 1 --out target/ledger-smoke > target/ledger-smoke.txt
tail -n 1 target/ledger-smoke.txt | grep -q '"correct": true'
tail -n 1 target/ledger-smoke.txt | grep -q '"failed": 0,'

echo "==> ledger edit-replay smoke (one short traced run: whole-Program edit oracle over the data-patch path, no op fails, emit makes one buffer per program)"
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml -- run --workload edit-replay --seed 1 \
    --seconds 2 --trace 1 --out target/ledger-smoke > target/ledger-edit-smoke.txt
tail -n 1 target/ledger-edit-smoke.txt | grep -q '"correct": true'
tail -n 1 target/ledger-edit-smoke.txt | grep -q '"failed": 0,'
tail -n 1 target/ledger-edit-smoke.txt \
    | grep -oE '"core\.emit\.allocs_per_op": \{"value": [0-9.]+' \
    | awk '{ v = $NF } END { exit !(NR > 0 && v <= 2) }'

echo "==> ledger paper-cold smoke (one short traced run over every paper model: C digests match, the VM-vs-reference oracle holds, no op fails)"
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml -- run --workload paper-cold --seed 1 \
    --seconds 2 --trace 1 --out target/ledger-smoke > target/ledger-paper-smoke.txt
tail -n 1 target/ledger-paper-smoke.txt | grep -q '"correct": true'
tail -n 1 target/ledger-paper-smoke.txt | grep -q '"failed": 0,'

echo "==> ledger serve-zipf smoke (one short traced run: every served body matches a direct compile, no op fails)"
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml -- run --workload serve-zipf --seed 1 \
    --seconds 2 --trace 1 --out target/ledger-smoke > target/ledger-serve-smoke.txt
tail -n 1 target/ledger-serve-smoke.txt | grep -q '"correct": true'
tail -n 1 target/ledger-serve-smoke.txt | grep -q '"failed": 0,'

echo "==> ledger serve-cold smoke (one short traced run: every request a new model, parsed, compiled and admitted; served bodies match, no op fails, the full cache evicts)"
CARGO_TARGET_DIR=.bench_build cargo run -q --release --offline --locked \
    --manifest-path ledger/Cargo.toml -- run --workload serve-cold --seed 1 \
    --seconds 2 --trace 1 --out target/ledger-smoke > target/ledger-serve-cold-smoke.txt
tail -n 1 target/ledger-serve-cold-smoke.txt | grep -q '"correct": true'
tail -n 1 target/ledger-serve-cold-smoke.txt | grep -q '"failed": 0,'
tail -n 1 target/ledger-serve-cold-smoke.txt \
    | grep -oE '"serve\.cache\.evictions_per_kreq": \{"value": [0-9.]+' \
    | awk '{ v = $NF } END { exit !(v > 0) }'

echo "==> lint example models"
cargo run -q --release -p hcg-bench --bin lint -- examples/models/*.xml

echo "==> static verification gate (prove the fleet; committed BENCH files are not rewritten)"
cargo run -q --release -p hcg-bench --bin repro -- verify \
    --json target/verify.json --out target/repro_verify.txt
grep -q '"all_equivalent": true' target/verify.json

echo "==> incremental smoke run (edit-replay program identity + bench JSON)"
cargo run -q --release -p hcg-bench --bin repro -- incremental --seed 0 --edits 50 \
    --json target/incremental.json --out target/repro_incremental.txt
grep -q '"identical_outputs": true' target/incremental.json

echo "==> incremental identity gate (1,000 random edit sequences, release)"
cargo test -q --release --test incremental_identity

echo "==> search smoke run (calibrated beam vs greedy + verified gate, bench JSON)"
cargo run -q --release -p hcg-bench --bin repro -- search --beam 4 --calibrate \
    --iters 200 --json target/search.json --out target/repro_search.txt
grep -q '"beam_strictly_better"' target/search.json
grep -q '"all_proved": true' target/search.json

echo "==> fuzz smoke run (fixed seed, zero divergences expected)"
cargo run -q --release -p hcg-bench --bin repro -- fuzz --seed 0 --iters 50 \
    --json target/fuzz/smoke.json --out target/repro_fuzz.txt

echo "==> fuzz smoke run under beam mapping (oracle parity with search enabled)"
cargo run -q --release -p hcg-bench --bin repro -- fuzz --seed 0 --iters 50 --beam 4 \
    --json target/fuzz/smoke_beam.json --out target/repro_fuzz_beam.txt

echo "==> edit-oracle smoke (metamorphic edits, release)"
cargo test -q --release -p hcg-fuzz edits

echo "==> corpus replay (committed repros through the full oracle)"
cargo test -q --release -p hcg-fuzz --test corpus_replay

echo "==> compile-service smoke (ephemeral daemon; cache hits + prometheus scrape via bundled client)"
cargo run -q --release -p hcg-bench --bin repro -- serve-smoke \
    --out target/repro_serve_smoke.txt
grep -q "clean shutdown" target/repro_serve_smoke.txt
grep -q "prometheus scrape parses" target/repro_serve_smoke.txt

echo "==> observability overhead smoke (telemetry layers off/hist/log/trace; gate skipped on short runs)"
cargo run -q --release -p hcg-bench --bin repro -- obs-bench --requests 60 \
    --clients 4 --corpus-size 10 \
    --access-log target/obs-bench-access.jsonl \
    --json target/obs_smoke.json --out target/repro_obs_bench.txt
grep -q '"experiment": "obs-overhead"' target/obs_smoke.json
grep -q '"layer": "histograms+access-log+tracing"' target/obs_smoke.json

echo "==> profile smoke run (cycle attribution conserves, trace JSON parses)"
cargo run -q --release -p hcg-bench --bin repro -- profile --model FIR \
    --json target/profile_smoke.json --trace target/trace_smoke.json \
    --out target/repro_profile.txt
grep -q '"traceEvents"' target/trace_smoke.json
grep -q '"total_cycles"' target/profile_smoke.json

echo "OK: all checks passed"
