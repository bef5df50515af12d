#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run|trace|repeat ...      (see src/main.rs)
#   bash benchmark/run.sh                           (= run: every workload once)
#
# Cargo reports to standard error, so the last line of standard output
# is always the benchmark's own result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec "$target/release/perfbench" "$@"
