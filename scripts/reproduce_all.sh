#!/usr/bin/env bash
# Regenerate every artifact of the reproduction from scratch: the test
# suites, every table and figure under results/ (each artifact writes its
# own results/NAME.txt and CSVs), and the Criterion microbenches.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tests =="
cargo test --workspace

echo "== figures and tables =="
cargo run --release -p fm-bench --bin repro -- all

echo "== microbenches =="
cargo bench --workspace

echo "done; outputs in results/ and target/criterion/"
