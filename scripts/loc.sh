#!/usr/bin/env bash
# ROADMAP's consolidation metric: non-test Rust under crates/ and src/.
# Every *.rs outside a tests/ directory, counted up to (not including) the
# first line that starts with `#[cfg(test)]` — the unit-test module at the
# foot of a file. The match is anchored: a doc comment that merely
# mentions `#[cfg(test)]` does not end the count.
#   scripts/loc.sh [REPO_ROOT]    # per-crate breakdown, then the total
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting {
      split(FILENAME, part, "/")
      lines[part[1] == "src" ? "src" : part[1] "/" part[2]]++
      total++
    }
    END {
      for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
      close("sort -k2")
      printf "%7d  non-test Rust under crates/ + src/\n", total
    }'
