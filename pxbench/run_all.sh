#!/usr/bin/env bash
# Runs every pxbench workload once, untraced and traced, and prints each
# run's report and result. Exits non-zero as soon as a run fails (a wrong
# answer or a durability divergence exits 1 without a result line).
#
#   pxbench/run_all.sh [seed] [seconds]      # from the repository root
set -euo pipefail

seed="${1:-1}"
seconds="${2:-25}"
cargo build --release --offline --quiet --manifest-path pxbench/Cargo.toml
for workload in read_hot mixed_durable fig7_algebra; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path pxbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
