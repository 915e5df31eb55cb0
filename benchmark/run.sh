#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh                       full suite: every workload, untraced
#                                          then traced, every metric printed
#   benchmark/run.sh --quick               one segment per pass (<= 20 s)
#   benchmark/run.sh --workload NAME       only that workload (repeatable)
#   benchmark/run.sh --repeat 2            two sets, held against each other
#   benchmark/run.sh compare A.json B.json the comparator alone
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; the last line of standard
#                                          output is the result object
#
# Runs from the repository root so relative paths (CARGO_TARGET_DIR,
# BENCHMARK.json, benchmark/out) mean the same thing wherever it is called
# from. The build is offline and touches neither the root manifest nor the
# root lock file.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fm-benchmark"

# Address-space randomisation gives every process its own code, stack and
# heap alignment, which alone moved latencies by 3-5 % from one run to the
# next on this box (and made peak RSS wander); one fixed layout repeats
# within about 1 %. Children of the suite inherit the setting. Where the
# sandbox refuses it the benchmark runs as it is; the result file's `env`
# block says which.
fixed=()
if setarch "$(uname -m)" -R true 2>/dev/null; then
  fixed=(setarch "$(uname -m)" -R)
fi

case " $* " in
  *" --trace "*) exec "${fixed[@]}" "$bin" run "$@" ;;
esac
if [ "${1:-}" = compare ]; then
  shift
  exec "$bin" compare "$@"
fi
exec "${fixed[@]}" "$bin" suite "$@"
