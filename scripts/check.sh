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
# disallowed-types (clippy.toml) is enforced per kernel crate below; the
# workspace-wide run allows it so the bench/CLI crates can keep HashMap.
run cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed-types
for p in pls-timewarp pls-partition pls-logic pls-netlist pls-gatesim; do
  run cargo clippy -q -p "$p" --lib -- -D warnings -D clippy::disallowed-types
done
# Rustdoc link gate: an intra-doc link to a deleted, renamed or private
# item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

# Determinism static analysis — see docs/LINTS.md. First prove the
# linter itself still catches the seeded bug shapes (a lint that stops
# firing passes forever), then require the workspace (kernel crates plus
# tests/examples/CLI under the flow-aware rules) to be violation-free,
# every waiver carrying a written reason. The workspace run is timed:
# the gate only stays on every commit (--changed pre-commit hook, CI) if
# it stays fast, so a fixpoint regression that balloons the dataflow
# pass is itself a failure.
run cargo run -q -p pls-detlint -- --self-test
run cargo build -q -p pls-detlint
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

# Protocol model check: exhaustively explore every interleaving of both
# protocol families (flush-and-barrier GVT + migration + lossy channel,
# and the asynchronous Mattern-token GVT) at the small bound, then prove
# the checker still detects all five re-injected historical bug shapes.
# Timed like the workspace lint: the exhaustive gate only stays on every
# commit if it stays fast.
run cargo build --release -q -p pls-detlint
echo
echo "==> pls-detlint mc --model all --bound small + self-test (timed)"
mc_start=$(date +%s)
./target/release/pls-detlint mc --model all --bound small
./target/release/pls-detlint mc --self-test
mc_secs=$(( $(date +%s) - mc_start ))
echo "model-check wall time: ${mc_secs}s (budget 60s)"
if [[ "$mc_secs" -gt 60 ]]; then
  echo "pls-detlint mc exceeded its 60s budget"
  exit 1
fi

if [[ "$FAST" -eq 0 ]]; then
  # One-core gate for the threaded executive: a rendezvous waiter must
  # park, not spin or yield, once the peer it waits for needs the core it
  # sits on. Pinned to a single core the threaded unit tests (rendezvous
  # hammer with 8 parties, GVT round after every batch on up to 8
  # clusters) take ~3 s; a spin-then-yield waiter took them from 0.2 s
  # to 23 s. Timed like the lint and model-check budgets.
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
  run cargo run --release -p pls-bench -- bench_kernel --smoke

  # Determinism gate: every observable detcheck prints (stats, states,
  # modeled clocks, telemetry) must match the committed golden byte for
  # byte. Refresh the golden deliberately after a behavior-changing PR:
  #   cargo run --release -p pls-bench -- detcheck > crates/bench/src/detcheck.golden
  echo
  echo "==> detcheck vs golden"
  cargo run --release -q -p pls-bench -- detcheck \
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
