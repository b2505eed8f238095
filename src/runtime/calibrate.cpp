#include "runtime/calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/shared_object.hpp"
#include "support/cpus.hpp"

namespace lfrt::runtime {
namespace {

/// Mean per-access wall time (ns) of `threads` workers each performing
/// `ops` accesses of `op` against one fresh SharedObject of `spec`.
/// Workers rendezvous on a start flag so the measured window is all-
/// threads-hot; with T workers in lockstep the wall time per completed
/// round IS the contended per-access latency a thread experiences.
double measure_access_ns(ObjectSpec spec, AccessOp op, int threads,
                         std::int64_t ops) {
  SharedObject obj(spec, /*queue_capacity=*/1024);
  const std::function<void()> checkpoint = [] {};
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  auto worker = [&](TaskId tid) {
    ready.fetch_add(1, std::memory_order_relaxed);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::int64_t i = 0; i < ops; ++i)
      obj.access(op, tid, static_cast<JobId>(i), checkpoint, nullptr);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, TaskId{t});
  while (ready.load(std::memory_order_relaxed) < threads - 1)
    std::this_thread::yield();
  const auto begin = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  worker(TaskId{0});
  for (std::thread& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
  return total_ns / static_cast<double>(ops);
}

Time round_ns(double ns) {
  const Time t = static_cast<Time>(std::llround(ns));
  return t < 0 ? 0 : t;
}

/// Measure one AccessCost cell per (kind, impl) combo on this host (see
/// the header comment for the method); `ops` accesses per pass.
CostModel measure_cost_model(std::int64_t ops) {
  CostModel model;
  // Contended pass capped at the CPUs this process may run on: the zoo's
  // locks spin, and oversubscribed spinning measures the OS scheduler,
  // not the lock.
  const int contended = std::min(4, support::usable_cpus());
  for (ObjectKind kind : all_object_kinds()) {
    for (ObjectImpl impl : all_object_impls()) {
      const ObjectSpec spec{kind, impl};
      AccessCost& cell = model.at(kind, impl);
      const double base = measure_access_ns(spec, AccessOp::kWrite, 1, ops);
      cell.base = std::max<Time>(1, round_ns(base));
      if (contended > 1) {
        const double hot =
            measure_access_ns(spec, AccessOp::kWrite, contended, ops);
        // Clamped linear fit through the two points; negative slopes are
        // measurement noise, not a lock that speeds up under load.
        cell.per_contender = round_ns(std::max(0.0, (hot - base) /
                                                        (contended - 1)));
      }
      if (kind == ObjectKind::kSnapshot) {
        // A scan's extra cost over an update, spread over the segments
        // it collects.
        const double scan = measure_access_ns(spec, AccessOp::kRead, 1, ops);
        cell.per_segment = round_ns(
            std::max(0.0, (scan - base) /
                              static_cast<double>(kSnapshotSegments)));
      }
      // retry_penalty stays 0: the simulator re-runs the whole attempt
      // on a retry, which already charges the re-execution cost.
    }
  }
  return model;
}

}  // namespace

AccessCalibration calibrate(std::int64_t samples) {
  return {measure_cost_model(samples), samples};
}

}  // namespace lfrt::runtime
