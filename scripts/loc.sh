#!/usr/bin/env bash
# ROADMAP's consolidation metric: non-test Rust under crates/ and src/.
# Every *.rs outside a tests/ directory, minus each `#[cfg(test)]` item:
# the attribute line and the item it guards, wherever it sits in the file
# (a unit-test module, a test-only impl, helper fn, struct field or
# struct-literal field). An item ends where its braces close, at its `;`
# if it opens none, or, for a field, at its own trailing `,` outside any
# parentheses or brackets (a `fn`, `impl` or type item never ends at a
# comma, so a multi-line signature or `where` clause is skipped whole).
# A `#[cfg(test)] mod x;` also drops the module's files: `x.rs` and the
# whole `x/` directory next to the declaring file (under `foo/` when it
# is `foo.rs` rather than `lib.rs`, `main.rs` or `mod.rs`).
# Braces, parentheses and commas inside string and char literals and `//`
# comments are ignored. The attribute must start its line: a doc comment
# that merely mentions `#[cfg(test)]` is counted like any other line.
#   scripts/loc.sh [REPO_ROOT]    # per-crate breakdown, then the total
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

mapfile -d '' files < <(find crates src -name '*.rs' -not -path '*/tests/*' -print0 | sort -z)

# Pass 1: the path stem (`dir/x`) of every test-only module declared `mod x;`.
test_mods=$(awk '
  FNR == 1 { pending = 0 }
  /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; sub(/^[ \t]*#\[cfg\(test\)\]/, "") }
  pending && /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*;/ {
    name = $0
    sub(/^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+/, "", name)
    sub(/[ \t]*;.*/, "", name)
    dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
    file = FILENAME; sub(/.*\//, "", file)
    if (file != "lib.rs" && file != "main.rs" && file != "mod.rs") {
      sub(/\.rs$/, "", file); dir = dir "/" file
    }
    print dir "/" name
    pending = 0; next
  }
  pending && /^[ \t]*(#\[.*\])?[ \t]*$/ { next }
  { pending = 0 }
' "${files[@]}")

# Pass 2: count every line outside a test-only module file or test item.
awk -v test_mods="$test_mods" '
  BEGIN { n_mods = split(test_mods, mods, "\n") }
  FNR == 1 {
    skipping = 0; test_file = 0
    for (i = 1; i <= n_mods; i++)
      if (FILENAME == mods[i] ".rs" || index(FILENAME, mods[i] "/") == 1) test_file = 1
  }
  test_file { next }
  !skipping && /^[ \t]*#\[cfg\(test\)\]/ {
    skipping = 1; depth = 0; parens = 0; opened = 0; item = 0
    sub(/^[ \t]*#\[cfg\(test\)\]/, "")
  }
  skipping {
    code = $0
    gsub(/"([^"\\]|\\.)*"/, "", code)
    gsub(/'\''(\\.|[^'\''\\])'\''/, "", code)
    sub(/\/\/.*/, "", code)
    if (code ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?((async|const|unsafe|extern)[ \t]+)*(fn|impl|struct|enum|trait|type|union)[ \t<]/) item = 1
    opens = gsub(/\{/, "", code)
    depth += opens - gsub(/\}/, "", code)
    parens += gsub(/[(\[]/, "", code) - gsub(/[)\]]/, "", code)
    if (opens) opened = 1
    if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/) ||
        (!opened && !item && parens <= 0 && code ~ /,[ \t]*$/)) skipping = 0
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
  }' "${files[@]}"
