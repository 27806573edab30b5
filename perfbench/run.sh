#!/usr/bin/env bash
# Builds pex-serve and the benchmark from this checkout's sources, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload keystroke|replay|edit-mix \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the run's JSON
# result. Artefacts go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p pex-serve --bin pex-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The benchmark and the daemon it spawns share one CPU (the first this
# process may use). On a small VM a hand-off to an idle vCPU costs tens of
# microseconds of hypervisor wake-up that come and go with the host's
# load; on one CPU each hand-off is an ordinary context switch.
bench=("$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/pex-serve" "$@")
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed -e 's/.*: //' -e 's/[,-].*//')
    exec taskset -c "$cpu" "${bench[@]}"
fi
exec "${bench[@]}"
