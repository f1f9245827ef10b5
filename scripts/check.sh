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
# (The model checker's explored state spaces are pinned by the
# `threaded_*` tests of crates/timewarp/src/modelcheck/threads.rs, which
# this runs; the one-core gate below times them again.)
run cargo test -q --workspace
run cargo fmt --all -- --check
# disallowed-types and disallowed-methods (clippy.toml: RandomState maps,
# host clocks, threads, channels, locks, atomics, interior-mutability
# cells, once-set globals, file and stdio handles, environment reads and
# writes, thread identity, raw `VTime::from` tick sums) and
# the print/dbg lints are enforced per kernel crate below; the
# workspace-wide run allows the two disallowed lints so the bench/CLI
# crates can keep HashMap, threads and time themselves. The crate list is
# KERNEL_CRATES in tests/toolchain_guard.rs, which holds the two equal and
# pins every lint. Rustc's `#![forbid(unsafe_code)]` in each of their
# lib.rs is the unsafe check, VTime's private field and the `VTime::from`
# ban the wraparound check, and the float lints that pls-timewarp and
# pls-gatesim deny in their lib.rs the float check (docs/LINTS.md).
run cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed-types -A clippy::disallowed-methods
for p in pls-timewarp pls-partition pls-logic pls-netlist pls-gatesim; do
  run cargo clippy -q -p "$p" --lib -- -D warnings -D clippy::disallowed-types -D clippy::disallowed-methods -D clippy::print_stdout -D clippy::print_stderr -D clippy::dbg_macro
done
# Rustdoc link gate: an intra-doc link to a deleted, renamed or private
# item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

if [[ "$FAST" -eq 0 ]]; then
  # One-core gate for the threaded executive: a rendezvous waiter must
  # park, not spin or yield, once the peer it waits for needs the core it
  # sits on. Pinned to a single core the threaded unit tests (rendezvous
  # hammer with 8 parties, GVT round after every batch on up to 8
  # clusters, the model checker's exhaustive explorations of the cluster
  # step function) take ~6 s; a spin-then-yield waiter took the thread
  # tests alone from 0.2 s to 23 s. Timed, so a waiter that spins fails
  # here.
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

  # Per-LP gate: the hotspot table pins per-LP events, rollbacks and
  # events undone of the paper's largest circuit, which detcheck's
  # aggregates cannot see. Refresh it like the detcheck golden:
  #   target/release/parlogsim hotspots s15850 -k 8 > tests/golden/hotspots_s15850_k8.txt
  echo
  echo "==> hotspots s15850 vs golden"
  ./target/release/parlogsim hotspots s15850 -k 8 \
    | diff -u tests/golden/hotspots_s15850_k8.txt - \
    || { echo "hotspots drifted from tests/golden/hotspots_s15850_k8.txt"; exit 1; }

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
