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
#      contention (lock_zoo_test), executor
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
#      concurrent latency histogram, the sharded timer wheel, and the
#      streaming Service ingest/admission front end
#      (latency_histogram_test, timer_wheel_test, service_test),
#   3. -O2 build, tier-1 suite, a heatmap_contention smoke that must report a non-empty
#      objects × tasks contention matrix for every kind × impl combo,
#      a shard_adaptive smoke (adaptive-sharding invariants live), and
#      a 3 s perfbench sim-sweep whose exit code carries the
#      benchmark's correctness gates.
#
# Stages 1 and 2 also run the cross-substrate validation bench
# (ext_executor_validation --tiny): real executor runs under each
# sanitizer, with the sim-vs-executor agreement assertions live.  The
# TSan stage runs it twice — once at cpu_count=1 and once at
# cpu_count=4 — so races between genuinely overlapping workers cannot
# regress silently.
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
./build-asan/bench/ext_executor_validation --tiny \
      --out build-asan/BENCH_xval_smoke.json

echo "==> [2/3] thread-sanitizer build + concurrency tests (build-tsan/)"
cmake -B build-tsan -S . -DLFRT_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" \
      --target exp_test determinism_test concurrent_build_test \
               lockfree_test four_slot_test snapshot_test \
               lock_zoo_test executor_storm_test \
               executor_shutdown_race_test executor_multicpu_test \
               shared_object_test exec_objects_test \
               sharded_object_test contention_controller_test \
               latency_histogram_test timer_wheel_test service_test \
               analysis_mp_test cost_model_test report_json_test \
               placement_test ext_executor_validation
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R '^(ExpThreadPool|ExpParallelMap|ExpSweep|ExpThreads|Determinism|ConcurrentBuild|MsQueue|TreiberStack|SpscRing|NodePool|TaggedRef|Sweep/AbaHammerTest|NbwBuffer|Snapshot|FourSlot|WaitFreeSwmr|ExecutorStorm|ExecutorShutdownRace|ExecutorMultiCpu|SharedObject|Zoo/SharedObjectAllCombos|ObjectRegistryTest|LockZoo/(Ticket|Anderson|Mcs)|LockedWrappers|ReaderWriterKinds/ExecObjects|ExecObjectsLockBased|ExecObjectsMixed|ShardedQueue|ShardedStack|EliminationArray|SharedObjectSharded|LiveController|LatencyHistogram|TimerWheel|Service|AnalysisMpBounds|AnalysisMpStrict|AnalysisMpSaturate|AnalysisMpCertify|AccessCostArithmetic|CostModelTable|CostModelFlatIdentity|CalibrationCache|ReportJson|ObjectSpecJson|Placement(Select|Sim|Controller|Analysis|Executor|Json)?)\.'
./build-tsan/bench/ext_executor_validation --tiny --cpus=1 \
      --out build-tsan/BENCH_xval_smoke.json
./build-tsan/bench/ext_executor_validation --tiny --cpus=4 \
      --out build-tsan/BENCH_xval_smoke_cpu4.json

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
# Multiprocessor certification smoke: every (cpus, impl, substrate)
# heatmap cell must sit under its analysis::mp bound — the bench exits
# non-zero on any violation; the pinned line catches truncated sweeps.
MPB_OUT=$(./build-o2/bench/mp_bounds --tiny \
      --out build-o2/BENCH_mp_bounds_smoke.json)
echo "$MPB_OUT" | tail -n 2
echo "$MPB_OUT" | grep -q 'mp_bounds: all checks ok'
# Placement smoke: every placement's certificate must be violation-free
# and the partitioned bounds at least as tight as the global ones with
# a strictly tighter cell per (cpus, impl); exits non-zero on any
# violation, the pinned line catches truncated sweeps.
PLACE_OUT=$(./build-o2/bench/placement_sweep --tiny \
      --out build-o2/BENCH_placement_smoke.json)
echo "$PLACE_OUT" | tail -n 2
echo "$PLACE_OUT" | grep -q 'placement_sweep: all checks ok'
# Perfbench gates: perfbench/ builds src/ from this checkout (Release,
# into .bench_build/ or $CARGO_TARGET_DIR) and a short sim-sweep exits
# non-zero unless the frozen-reference RUA replay, the Theorem 2 retry
# bound and the every-cell-ran-jobs gates hold.  svc-overload stays
# out: it runs 4 busy threads.
python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 3 --trace 0
echo "OK: ASan+TSan clean, tier-1 green twice, bench smokes passed"
