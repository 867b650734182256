#!/usr/bin/env sh
# Static-analysis gate: clang-tidy + the project invariant linter + a
# clang-format drift check.  Run locally as `sh scripts/lint.sh` (or
# `sh scripts/ci.sh lint`); CI runs it as the `lint` job.
#
#   1. cmake configure (exports build/compile_commands.json);
#   2. scripts/check_invariants.py — the project-specific rules (see
#      `--list-rules` for the nine-rule table); always runs, pure python.
#      Findings are also written as SARIF 2.1.0 to build/lint.sarif for
#      the CI annotation upload;
#   3. clang-tidy with the checked-in .clang-tidy over every translation
#      unit in src/ bench/ examples/ tests/, warnings-as-errors;
#   4. scripts/format.sh --check — clang-format dry run.
#
# `sh scripts/lint.sh --diff BASE` passes the ref through to the
# invariant linter: only files changed vs BASE are scanned and only
# findings on changed lines are reported — the fast pre-push check
# (`--diff origin/main`).  clang-tidy and the format check still cover
# the full tree.
#
# clang-tidy / clang-format are found via find_tool (plain name first,
# then versioned apt names).  A missing binary SKIPs that step with a
# loud notice instead of failing, so the gate degrades gracefully on
# boxes without LLVM; CI installs both, so nothing is skipped there.
set -eu
cd "$(dirname "$0")/.."

diff_base=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --diff)
      [ "$#" -ge 2 ] || { echo "lint.sh: --diff needs a git ref" >&2; exit 2; }
      diff_base="$2"
      shift 2
      ;;
    *)
      echo "lint.sh: unknown argument '$1' (usage: lint.sh [--diff BASE])" >&2
      exit 2
      ;;
  esac
done

fail=0

find_tool() {
  for candidate in "$1" "$1-19" "$1-18" "$1-17" "$1-16" "$1-15" "$1-14"; do
    if command -v "$candidate" >/dev/null 2>&1; then
      echo "$candidate"
      return 0
    fi
  done
  return 1
}

echo "=== lint: configure (compile_commands.json) ==="
cmake -B build -S . >/dev/null
test -f build/compile_commands.json || {
  echo "lint.sh: build/compile_commands.json missing" >&2
  exit 1
}

echo "=== lint: invariant linter ==="
if [ -n "$diff_base" ]; then
  python3 scripts/check_invariants.py --sarif build/lint.sarif \
    --diff "$diff_base" src bench examples tests || fail=1
else
  python3 scripts/check_invariants.py --sarif build/lint.sarif \
    src bench examples tests || fail=1
fi

echo "=== lint: clang-tidy ==="
if TIDY=$(find_tool clang-tidy); then
  # Translation units only; headers are covered via HeaderFilterRegex.
  # tests/lint_fixtures/ holds deliberate violations for test_lint.py and
  # tests/compile_fail/ files that must not compile; neither is part of
  # the build, so both are excluded here.
  files=$(git ls-files 'src/*.cpp' 'bench/*.cpp' 'examples/*.cpp' \
                       'tests/*.cpp' | grep -v 'lint_fixtures\|compile_fail')
  # xargs -P parallelizes across cores; clang-tidy exits nonzero on any
  # warning because .clang-tidy sets WarningsAsErrors: '*'.
  if ! printf '%s\n' $files | xargs -P "$(nproc 2>/dev/null || echo 2)" \
      -n 4 "$TIDY" -p build --quiet; then
    echo "lint.sh: clang-tidy found issues" >&2
    fail=1
  fi
else
  echo "lint.sh: SKIP clang-tidy (binary not found; apt install clang-tidy" \
       "to run the full gate)" >&2
fi

echo "=== lint: format check ==="
sh scripts/format.sh --check || fail=1

if [ "$fail" -ne 0 ]; then
  echo "lint.sh: FAILED" >&2
  exit 1
fi
echo "lint.sh: all green"
