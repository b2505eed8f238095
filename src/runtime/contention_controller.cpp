#include "runtime/contention_controller.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "rt/executor.hpp"
#include "runtime/shared_object.hpp"
#include "support/check.hpp"

namespace lfrt::runtime {

struct ContentionController::Impl {
  ControllerConfig cfg;
  SharedObjectSet* objects;
  rt::Executor* executor;
  ContentionControllerCore core;

  std::mutex mu;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  std::thread thread;

  std::vector<ShardDecision> decisions;  // under mu
  std::vector<PlacementMove> moves;      // under mu
  std::int64_t epochs_stepped = 0;       // under mu
  std::chrono::steady_clock::time_point started;

  sched::Placement placement;  // live copy, epoch thread only after start

  Impl(ControllerConfig c, SharedObjectSet* objs, rt::Executor* ex)
      : cfg(c), objects(objs), executor(ex), core(c, collect_specs(objs)) {}

  static std::vector<ObjectSpec> collect_specs(SharedObjectSet* objs) {
    std::vector<ObjectSpec> specs;
    specs.reserve(static_cast<std::size_t>(objs->object_count()));
    for (std::int32_t o = 0; o < objs->object_count(); ++o)
      specs.push_back(objs->spec_of(o));
    return specs;
  }

  void loop() {
    // Baseline sample, so the first timed epoch sees a real diff.
    core.step(objects->matrix());
    std::unique_lock<std::mutex> lock(mu);
    while (!stop_requested) {
      cv.wait_for(lock, std::chrono::nanoseconds(cfg.epoch),
                  [&] { return stop_requested; });
      if (stop_requested) break;
      lock.unlock();
      ContentionControllerCore::Epoch ep = core.step(objects->matrix());
      for (ShardDecision& d : ep.decisions)
        objects->set_shards(d.object, d.to_shards);
      for (const PlacementMove& mv : ep.placement_moves) {
        // Instance routing first (the next access lands on the new
        // cluster's instance), then the dispatch mask.
        objects->set_task_instance(mv.task, mv.to_cluster);
        if (mv.task >= 0 &&
            static_cast<std::size_t>(mv.task) < placement.task_affinity.size())
          placement.task_affinity[static_cast<std::size_t>(mv.task)] =
              mv.to_cluster;
      }
      if (executor != nullptr) {
        executor->set_task_conflict_groups(ep.conflict_groups);
        if (!ep.placement_moves.empty()) executor->set_placement(placement);
      }
      const Time stamp = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - started)
                             .count();
      lock.lock();
      ++epochs_stepped;
      for (ShardDecision& d : ep.decisions) {
        d.time = stamp;
        decisions.push_back(d);
      }
      for (PlacementMove& mv : ep.placement_moves) {
        mv.time = stamp;
        moves.push_back(mv);
      }
    }
  }
};

ContentionController::ContentionController(ControllerConfig cfg,
                                           SharedObjectSet* objects,
                                           rt::Executor* executor)
    : impl_(std::make_unique<Impl>(cfg, objects, executor)) {}

ContentionController::~ContentionController() { stop(); }

void ContentionController::start() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->running) return;
  impl_->running = true;
  impl_->stop_requested = false;
  impl_->started = std::chrono::steady_clock::now();
  impl_->thread = std::thread([this] { impl_->loop(); });
}

void ContentionController::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->running) return;
    impl_->stop_requested = true;
    impl_->cv.notify_all();
  }
  impl_->thread.join();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->running = false;
}

void ContentionController::enable_placement(sched::Placement placement,
                                            std::int32_t cluster_count,
                                            const TaskSet& ts) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  LFRT_CHECK_MSG(!impl_->running,
                 "enable_placement must precede ContentionController::start");
  std::vector<std::int32_t> clusters(placement.task_affinity);
  impl_->placement = std::move(placement);
  ObjectTopology topo(ts);
  impl_->core.enable_placement(impl_->placement, std::move(clusters),
                               cluster_count,
                               std::move(topo.accessors_of),
                               std::move(topo.writer_of));
}

std::vector<ShardDecision> ContentionController::decisions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->decisions;
}

std::vector<PlacementMove> ContentionController::placement_moves() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->moves;
}

std::int64_t ContentionController::epochs() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->epochs_stepped;
}

}  // namespace lfrt::runtime
