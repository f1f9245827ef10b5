#!/usr/bin/env bash
# Full local CI gate: everything the hosted workflow runs, in one command.
#   scripts/check.sh          # build + test + fmt + clippy + rustdoc links
#   scripts/check.sh --fast   # skip the release build (debug test run only)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() {
  echo
  echo "==> $*"
  "$@"
}

if [[ "$FAST" -eq 0 ]]; then
  run cargo build --workspace --release
fi
run cargo build --workspace --tests --examples
run cargo test -q --workspace
run cargo fmt --all -- --check
# disallowed-types and disallowed-methods (clippy.toml: RandomState maps,
# host clocks) are enforced per kernel crate below; the workspace-wide run
# allows them so the bench/CLI crates can keep HashMap and time
# themselves. The crate list is detlint's KERNEL_CRATES (a detlint test
# holds the two equal); rustc's `#![forbid(unsafe_code)]` in each of
# their lib.rs is the unsafe check.
run cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed-types -A clippy::disallowed-methods
for p in pls-timewarp pls-partition pls-logic pls-netlist pls-gatesim; do
  run cargo clippy -q -p "$p" --lib -- -D warnings -D clippy::disallowed-types -D clippy::disallowed-methods
done
# Rustdoc link gate: an intra-doc link to a deleted, renamed or private
# item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

# Determinism static analysis — see docs/LINTS.md. The fixture tests that
# `cargo test` ran above prove every rule still fires (a lint that stops
# firing passes forever); here the workspace (kernel crates plus
# tests/examples/CLI under the flow-aware rules) must be violation-free,
# every waiver carrying a written reason. The workspace run is timed:
# the gate only stays on every commit if it stays fast, so a fixpoint
# regression that balloons the dataflow pass is itself a failure. (The
# protocol model's explored state spaces are pinned by
# crates/timewarp/tests/modelcheck.rs, which `cargo test` ran above.)
echo
echo "==> pls-detlint --workspace (timed)"
detlint_start=$(date +%s)
./target/debug/pls-detlint --workspace
detlint_secs=$(( $(date +%s) - detlint_start ))
echo "detlint workspace wall time: ${detlint_secs}s (budget 30s)"
if [[ "$detlint_secs" -gt 30 ]]; then
  echo "pls-detlint --workspace exceeded its 30s budget"
  exit 1
fi

if [[ "$FAST" -eq 0 ]]; then
  # One-core gate for the threaded executive: a rendezvous waiter must
  # park, not spin or yield, once the peer it waits for needs the core it
  # sits on. Pinned to a single core the threaded unit tests (rendezvous
  # hammer with 8 parties, GVT round after every batch on up to 8
  # clusters) take ~3 s; a spin-then-yield waiter took them from 0.2 s
  # to 23 s. Timed like the workspace lint.
  if command -v taskset >/dev/null; then
    run cargo test --release -q -p pls-timewarp --lib --no-run
    echo
    echo "==> threaded unit tests pinned to one core (timed)"
    one_core=$(taskset -cp $$ | sed 's/.*: //; s/[,-].*//')
    pin_start=$(date +%s)
    taskset -c "$one_core" cargo test --release -q -p pls-timewarp --lib threaded
    pin_secs=$(( $(date +%s) - pin_start ))
    echo "one-core threaded tests wall time: ${pin_secs}s (budget 10s)"
    if [[ "$pin_secs" -gt 10 ]]; then
      echo "threaded unit tests on one core exceeded their 10s budget"
      exit 1
    fi
  else
    echo
    echo "==> taskset not found: skipping the one-core threaded test budget"
  fi

  # Perf smoke: tiny kernel benchmark suite. Catches a hot path that stops
  # compiling or an order-of-magnitude regression; real numbers live in
  # BENCH_kernel.json (refresh with `bench_kernel --set-baseline`); the
  # smoke suite's counts and modeled seconds are gated exactly by the
  # detcheck golden below.
  run ./target/release/parlogsim bench_kernel --smoke

  # Determinism gate: every observable detcheck prints (stats, states,
  # modeled clocks, telemetry) must match the committed golden byte for
  # byte. Refresh the golden deliberately after a behavior-changing PR:
  #   target/release/parlogsim detcheck > crates/bench/src/detcheck.golden
  echo
  echo "==> detcheck vs golden"
  ./target/release/parlogsim detcheck \
    | diff -u crates/bench/src/detcheck.golden - \
    || { echo "detcheck drifted from crates/bench/src/detcheck.golden"; exit 1; }

  # Pipeline benchmark harness (benchmark/ is a workspace of its own, so
  # nothing above builds it): unit tests plus a --smoke run of the real
  # binary — all five workloads, all three executives, every committed
  # fingerprint compared with the sequential oracle's.
  run cargo test -q --manifest-path benchmark/Cargo.toml
fi

# ROADMAP's consolidation metric (informational, no threshold): quote
# these figures, parent and change, in a PR that claims to simplify.
run scripts/loc.sh

echo
echo "All checks passed."
