#!/usr/bin/env bash
# ROADMAP's consolidation metric: non-test Rust under crates/ and src/.
# Every *.rs outside a tests/ directory, minus each `#[cfg(test)]` item:
# the attribute line and the item it guards, wherever it sits in the file
# (a unit-test module, a test-only impl or helper fn, `mod testkit;`).
# An item ends where its braces close, or at its `;` if it opens none.
# Braces inside string and char literals and `//` comments are ignored. The
# attribute must start its line: a doc comment that merely mentions
# `#[cfg(test)]` is counted like any other line.
#   scripts/loc.sh [REPO_ROOT]    # per-crate breakdown, then the total
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { skipping = 0 }
    !skipping && /^[ \t]*#\[cfg\(test\)\]/ {
      skipping = 1; depth = 0; opened = 0
      sub(/^[ \t]*#\[cfg\(test\)\]/, "")
    }
    skipping {
      code = $0
      gsub(/"([^"\\]|\\.)*"/, "", code)
      gsub(/'\''(\\.|[^'\''\\])'\''/, "", code)
      sub(/\/\/.*/, "", code)
      opens = gsub(/\{/, "", code)
      depth += opens - gsub(/\}/, "", code)
      if (opens) opened = 1
      if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/)) skipping = 0
      next
    }
    {
      split(FILENAME, part, "/")
      lines[part[1] == "src" ? "src" : part[1] "/" part[2]]++
      total++
    }
    END {
      for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
      close("sort -k2")
      printf "%7d  non-test Rust under crates/ + src/\n", total
    }'
