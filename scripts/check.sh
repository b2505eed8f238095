#!/usr/bin/env bash
# Full correctness + smoke gate:
#   1. ASan+UBSan build of the whole tree, tier-1 suite under the
#      sanitizers (catches lifetime bugs in the in-place RUA schedule
#      editing that plain tests cannot see),
#   2. TSan build, concurrency-sensitive suites only: the parallel
#      experiment harness (exp_test), its thread-count-invariance
#      guarantee (determinism_test), the shared-const-scheduler
#      contract (concurrent_build_test), the lock-free structures
#      (lockfree_test — their relaxed/acquire orderings must satisfy
#      TSan, including the wide-payload value-slot path, and the
#      wait-free NBW buffer, snapshot and four-slot registers in
#      lockfree_test, snapshot_test and four_slot_test), the lock
#      zoo's mutual-exclusion/FIFO/accounting properties under real
#      contention (lock_zoo_test), the executor's basic cases
#      (executor_test) and its execution-right handoff under
#      preemption/abort stress (executor_handoff_test), executor
#      abort storms (executor_storm_test, with parallel workers),
#      the submit-vs-shutdown race (executor_shutdown_race_test),
#      the M-worker mode witnesses (executor_multicpu_test), the
#      unified shared-object layer hammered from parallel threads
#      (shared_object_test), the read/write object flavours on the
#      executor adapter (exec_objects_test), the sharded stripes
#      plus live contention controller — conservation and attribution
#      across concurrent promote/demote (sharded_object_test,
#      contention_controller_test), and the service-mode pieces: the
#      batched SpscRing push_n/pop_n paths (lockfree_test), the
#      concurrent latency histogram and the streaming Service
#      ingest/admission front end (latency_histogram_test,
#      service_test),
#   3. -O2 build, tier-1 suite, a heatmap_contention smoke that must
#      report a non-empty objects × tasks contention matrix for every
#      kind × impl combo,
#      a shard_adaptive smoke (adaptive-sharding invariants live), a
#      soak_service smoke, the full placement_sweep certification
#      grid, and two 3 s perfbench sim-sweep runs (seeds 1 and 7)
#      whose exit codes carry the benchmark's correctness gates and
#      whose first-pass digests are pinned.
#
# Stages 1 and 2 also run the cross-substrate validation bench
# (ext_executor_validation --tiny): real executor runs of every impl in
# the zoo under each sanitizer, with the sim-vs-executor agreement
# assertions live (the simulator priced by the calibrated per-(kind,
# impl) cost model).  The TSan stage runs it twice — once at
# cpu_count=1 and once at cpu_count=4 — so races between genuinely
# overlapping workers cannot regress silently.  Each run's summary line
# is pinned with its pair count (5 impls × 2 loads per cpu_count), so
# a truncated grid fails.  Calibration-cache entries are keyed on the
# build flavour, so the sanitized stages never price stage 3's
# optimized simulator.
#
# Usage: scripts/check.sh [jobs]      (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> [1/3] sanitizer build + tests (build-asan/)"
cmake -B build-asan -S . -DLFRT_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"
XVAL_OUT=$(./build-asan/bench/ext_executor_validation --tiny \
      --out build-asan/BENCH_xval_smoke.json \
      --report-out build-asan/BENCH_xval_report.json)
echo "$XVAL_OUT" | tail -n 3
echo "$XVAL_OUT" | grep -q \
      'objects=queue, 30 pairs, underload AUR/CMR tolerance 0.25: agreement confirmed'

echo "==> [2/3] thread-sanitizer build + concurrency tests (build-tsan/)"
cmake -B build-tsan -S . -DLFRT_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" \
      --target exp_test determinism_test concurrent_build_test \
               lockfree_test four_slot_test snapshot_test \
               lock_zoo_test executor_test executor_handoff_test \
               executor_storm_test \
               executor_shutdown_race_test executor_multicpu_test \
               shared_object_test exec_objects_test \
               sharded_object_test contention_controller_test \
               latency_histogram_test service_test \
               analysis_mp_test cost_model_test report_json_test \
               placement_test ext_executor_validation
# The suite regex lives in one file, which CI's TSan job reads too.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R "$(cat scripts/tsan_suites.txt)"
XVAL_OUT=$(./build-tsan/bench/ext_executor_validation --tiny --cpus=1 \
      --out build-tsan/BENCH_xval_smoke.json \
      --report-out build-tsan/BENCH_xval_report.json)
echo "$XVAL_OUT" | tail -n 3
echo "$XVAL_OUT" | grep -q \
      'objects=queue, 10 pairs, underload AUR/CMR tolerance 0.25: agreement confirmed'
XVAL_OUT=$(./build-tsan/bench/ext_executor_validation --tiny --cpus=4 \
      --out build-tsan/BENCH_xval_smoke_cpu4.json \
      --report-out build-tsan/BENCH_xval_report_cpu4.json)
echo "$XVAL_OUT" | tail -n 3
echo "$XVAL_OUT" | grep -q \
      'objects=queue, 10 pairs, underload AUR/CMR tolerance 0.25: agreement confirmed'

echo "==> [3/3] optimized build + tests + bench smoke (build-o2/)"
cmake -B build-o2 -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-o2 -j "$JOBS"
ctest --test-dir build-o2 --output-on-failure -j "$JOBS"
# Heatmap smoke: the bench self-validates (non-empty matrix, rows ==
# objects × tasks, attribution sums, JSON round-trip) and exits
# non-zero on violation; the grep pins the "all combos checked" line so
# a silently truncated sweep also fails.
HEAT_OUT=$(./build-o2/bench/heatmap_contention --tiny \
      --out build-o2/BENCH_heatmap_smoke.json)
echo "$HEAT_OUT" | tail -n 2
echo "$HEAT_OUT" | grep -q '20 combos, 4x8 cells each — all checks ok'
# Adaptive-sharding smoke: attribution invariants and the controller
# acting are asserted even in --tiny; the pinned line catches a
# silently skipped check block.
SHARD_OUT=$(./build-o2/bench/shard_adaptive --tiny \
      --out build-o2/BENCH_shard_smoke.json)
echo "$SHARD_OUT" | tail -n 2
echo "$SHARD_OUT" | grep -q 'shard_adaptive: all checks ok'
# Service-mode smoke: 20k-job open-loop soak through both universes
# with the ingest conservation ledger, latency percentiles, and the
# 10x batched-ingest-over-seed assertion all live even in --tiny.
SOAK_OUT=$(./build-o2/bench/soak_service --tiny \
      --out build-o2/BENCH_soak_smoke.json)
echo "$SOAK_OUT" | tail -n 2
echo "$SOAK_OUT" | grep -q 'soak_service: all checks ok'
# Multiprocessor certification, full grid (cpus 1/2/4 x five impls x
# three placements, both substrates): every heatmap cell must sit under
# its analysis::mp bound and the partitioned bounds no looser than the
# global ones, with a strictly tighter cell per (cpus, impl); exits
# non-zero on any violation, the pinned count catches truncated grids.
PLACE_OUT=$(./build-o2/bench/placement_sweep \
      --out build-o2/BENCH_placement_smoke.json)
echo "$PLACE_OUT" | tail -n 3
echo "$PLACE_OUT" | grep -q \
      'placement_sweep: all checks ok (70 certificates, 0 violations)'
# Perfbench gates: perfbench/ builds src/ from this checkout (Release,
# into .bench_build/ or $CARGO_TARGET_DIR) and a short sim-sweep exits
# non-zero unless the frozen-reference RUA replay, the Theorem 2 retry
# bound and the every-cell-ran-jobs gates hold; seed 7 replays a second
# arrival tape.  The replay runs on the same simulator and cannot see a
# simulator-side change in the outcomes, so the greps pin each seed's
# first-pass digest.  svc-overload stays out: it runs 4 busy threads.
python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 3 --trace 0 \
      | tee build-o2/sweep_seed1.log
grep -q 'first-pass digest 96b37ae84bf99500' build-o2/sweep_seed1.log
python3 perfbench/run.py --workload sim-sweep --seed 7 --seconds 3 --trace 0 \
      | tee build-o2/sweep_seed7.log
grep -q 'first-pass digest 8d24adae6fe38b16' build-o2/sweep_seed7.log
echo "OK: ASan+TSan clean, tier-1 green twice, bench smokes passed"
