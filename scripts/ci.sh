#!/usr/bin/env sh
# CI entry point: configure, build, test, then smoke the observability layer.
#
#   1. cmake + build (warnings are errors via the rfid_warnings target)
#   2. ctest (the tier-1 suite)
#   3. one case-driven bench with RFID_ROUNDS=2 and RFID_JSON set; the
#      emitted run report must validate against the rfid-run-report/1 schema
#   4. microbench_slot, which exits nonzero when the slot hot path performs
#      any steady-state heap allocation (with or without the metrics
#      registry attached), and whose BENCH_slot.json must also validate
#
# `sh scripts/ci.sh tsan` instead builds the concurrency surface under
# ThreadSanitizer (-DRFID_SANITIZE=thread) and runs the thread-pool,
# Monte-Carlo, bounded-queue, inventory-service, and load-generator tests.
#
# `sh scripts/ci.sh asan` builds the whole tree under Address+UBSanitizer
# (-DRFID_SANITIZE=address,undefined, fatal-on-report) and runs the full
# tier-1 suite.
#
# `sh scripts/ci.sh enforce` builds with -DRFID_ENFORCE_HOT=ON — the
# replaceable operator new/delete hooks plus armed ALLOC_GUARD_HOT()
# scopes — runs the full tier-1 suite (any heap allocation inside an
# ALLOC_GUARD_HOT() scope, outside an ALLOC_GUARD_ALLOW one, fails the
# owning test binary at exit), then
# reruns microbench_slot so its zero-steady-state-alloc claim is
# reproduced by the guard counters themselves.
#
# `sh scripts/ci.sh bench` runs the census benchmark's correctness smoke:
# `benchmark/run.py --quick` (golden digests, the rerun digest, paper λ
# tolerances, completion and runStandalone replays; timings are printed,
# not judged), then the benchmark project's own ctest, whose decorator
# self-test rebuilds each census from public calls.
#
# `sh scripts/ci.sh identity BASE [bench...]` checks that a change leaves
# bench output byte-identical: it extracts git revision BASE with
# `git archive` into a temporary directory (removed on exit; nothing is
# written under .git/) and builds it there, builds the working tree in
# build/, runs each named bench binary at RFID_ROUNDS=5 in both builds,
# and diffs their stdout. Without bench names it runs the framed-path,
# tree-family and birthday (ablation_neighbor_discovery) benches the
# bit-identity contract covers (DESIGN.md §5d-§5f), plus four that reach
# the BitVec and population paths they skip: the impairment passes
# (ablation_channel_noise), the CRC-preamble scheme
# (ablation_preamble_checksum), vectors longer than 128 bits
# (ablation_privacy) and short IDs with dense dedup (ablation_id_length);
# and three that print what the slot commit's identification pass writes:
# identification times and delay statistics (fig06_delay) and phantom
# ACKs (ablation_misdetection, fig05_accuracy): 20 benches. Exits nonzero
# when any output differs.
#
# `sh scripts/ci.sh lint [--diff BASE]` runs the static-analysis gate
# (clang-tidy with the checked-in .clang-tidy,
# scripts/check_invariants.py with SARIF output, and the clang-format
# drift check) — see scripts/lint.sh; extra arguments pass through.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-default}"

if [ "$mode" = "lint" ]; then
  shift
  sh scripts/lint.sh "$@"
  exit 0
fi

if [ "$mode" = "identity" ]; then
  shift
  if [ $# -lt 1 ]; then
    echo "usage: sh scripts/ci.sh identity BASE [bench...]" >&2
    exit 2
  fi
  base="$1"
  shift
  if [ $# -eq 0 ]; then
    set -- table07_fsa_census lemma1_fsa_throughput ablation_estimators \
      table09_utilization ablation_qadaptive ablation_cardinality \
      ablation_mobile_tags ablation_tree_family lemma2_bt_slots \
      table08_bt_census table03_ei_bt ablation_capture \
      ablation_neighbor_discovery ablation_channel_noise \
      ablation_preamble_checksum ablation_privacy ablation_id_length \
      fig06_delay ablation_misdetection fig05_accuracy
  fi
  jobs="$(nproc 2>/dev/null || echo 4)"
  identdir=$(mktemp -d)
  trap 'rm -rf "$identdir"' EXIT
  mkdir "$identdir/base"
  git archive "$base" | tar -x -C "$identdir/base"
  cmake -S "$identdir/base" -B "$identdir/base/build" > /dev/null
  cmake --build "$identdir/base/build" -j "$jobs" --target "$@"
  cmake -B build -S . > /dev/null
  cmake --build build -j "$jobs" --target "$@"
  head_build="$(pwd)/build"
  status=0
  for bench in "$@"; do
    # Run from the temporary directory with no report or trace file, so a
    # bench that writes one by default leaves nothing in the tree.
    (cd "$identdir" && RFID_ROUNDS=5 RFID_JSON= RFID_TRACE= \
      "$identdir/base/build/bench/$bench" > "$identdir/$bench.base")
    (cd "$identdir" && RFID_ROUNDS=5 RFID_JSON= RFID_TRACE= \
      "$head_build/bench/$bench" > "$identdir/$bench.head")
    if cmp -s "$identdir/$bench.base" "$identdir/$bench.head"; then
      echo "identical: $bench"
    else
      echo "DIFFERS:   $bench"
      diff "$identdir/$bench.base" "$identdir/$bench.head" | head -n 20 || true
      status=1
    fi
  done
  if [ "$status" -eq 0 ]; then
    echo "ci.sh: identity green (byte-identical to $base)"
  fi
  exit "$status"
fi

if [ "$mode" = "asan" ]; then
  cmake -B build-asan -S . -DRFID_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc 2>/dev/null || echo 4)"
  ctest --test-dir build-asan --output-on-failure \
    -j "$(nproc 2>/dev/null || echo 4)"
  echo "ci.sh: asan green"
  exit 0
fi

if [ "$mode" = "enforce" ]; then
  cmake -B build-enforce -S . -DRFID_ENFORCE_HOT=ON -DRFID_WERROR=ON
  cmake --build build-enforce -j "$(nproc 2>/dev/null || echo 4)"
  ctest --test-dir build-enforce --output-on-failure \
    -j "$(nproc 2>/dev/null || echo 4)"
  # Exits nonzero if any guarded hot scope allocated; the steady-state
  # counts in BENCH_slot.json come from AllocGuard::processAllocations().
  enforcedir=$(mktemp -d)
  trap 'rm -rf "$enforcedir"' EXIT
  RFID_JSON="$enforcedir/BENCH_slot.json" ./build-enforce/bench/microbench_slot
  python3 scripts/validate_report.py "$enforcedir/BENCH_slot.json"
  echo "ci.sh: enforce green"
  exit 0
fi

if [ "$mode" = "bench" ]; then
  benchdir=$(mktemp -d)
  trap 'rm -rf "$benchdir"' EXIT
  python3 benchmark/run.py --quick --out "$benchdir/results.json"
  cmake --build benchmark/build -j "$(nproc 2>/dev/null || echo 4)"
  ctest --test-dir benchmark/build --output-on-failure
  echo "ci.sh: bench green"
  exit 0
fi

if [ "$mode" = "tsan" ]; then
  cmake -B build-tsan -S . -DRFID_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_thread_pool test_montecarlo test_bounded_queue \
    test_service test_loadgen test_frame_batch
  ctest --test-dir build-tsan --output-on-failure \
    -j "$(nproc 2>/dev/null || echo 4)" \
    -R 'ThreadPool|ParallelFor|MonteCarlo|BoundedQueue|InventoryService|Loadgen|FrameBatch'
  echo "ci.sh: tsan green"
  exit 0
fi

cmake -B build -S . -DRFID_WERROR=ON
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir build --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

RFID_ROUNDS=2 RFID_JSON="$tmpdir/table07.json" ./build/bench/table07_fsa_census
python3 scripts/validate_report.py "$tmpdir/table07.json"

# Fails (exit 1) on any steady-state allocation; writes BENCH_slot.json.
RFID_JSON="$tmpdir/BENCH_slot.json" ./build/bench/microbench_slot
python3 scripts/validate_report.py "$tmpdir/BENCH_slot.json"

# The service load generator must emit a schema-valid report with the
# "service" section populated (kept tiny: 20 requests per load point).
RFID_LOADGEN_REQUESTS=20 RFID_JSON="$tmpdir/loadgen.json" \
  ./build/bench/loadgen_service
python3 scripts/validate_report.py "$tmpdir/loadgen.json"

echo "ci.sh: all green"
