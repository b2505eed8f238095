#include "runtime/exec_adapter.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "runtime/contention_controller.hpp"
#include "runtime/shared_object.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "uam/uam.hpp"

namespace lfrt::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Busy-wait this thread for `ns` of wall clock (synthetic compute).
void spin_for(Time ns) {
  const auto until = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < until) {
  }
}

/// Lower one task's parameters into an RtJob: spin exec_time in
/// checkpointed quanta, performing each access through the unified
/// SharedObject layer.  The layer places a checkpoint mid-access (so
/// mid-access aborts stay reachable) and rolls back its own unbalanced
/// inserts before rethrowing — no abort handler needed for object
/// consistency (Section 3.5's compensation, inlined in the layer).
rt::RtJob make_job(const TaskParams& tp,
                   const std::shared_ptr<SharedObjectSet>& objs,
                   Time quantum) {
  rt::RtJob job;
  job.task = tp.id;
  job.tuf = tp.tuf;
  job.expected_exec = tp.exec_time;
  job.body = [objs, quantum, task = tp.id, exec = tp.exec_time,
              accesses = tp.accesses](rt::JobContext& ctx) {
    Time done = 0;
    auto advance_to = [&](Time target) {
      while (done < target) {
        const Time q = std::min<Time>(quantum, target - done);
        spin_for(q);
        done += q;
        ctx.checkpoint();
      }
    };
    for (const AccessSpec& a : accesses) {
      advance_to(std::min(a.offset, exec));
      objs->access(a.object,
                   a.write ? AccessOp::kWrite : AccessOp::kRead, task,
                   ctx.id(), [&ctx] { ctx.checkpoint(); });
    }
    advance_to(exec);
  };
  return job;
}

}  // namespace

std::vector<std::vector<Time>> make_arrival_traces(const TaskSet& ts,
                                                   Time horizon,
                                                   std::uint64_t seed,
                                                   bool periodic) {
  std::vector<std::vector<Time>> traces(ts.tasks.size());
  for (const auto& t : ts.tasks) {
    Rng rng(seed ^ (0xA5A5A5A5ULL * static_cast<std::uint64_t>(t.id + 1)));
    traces[static_cast<std::size_t>(t.id)] =
        periodic ? arrivals::periodic_phased(t.arrival, horizon, rng)
                 : arrivals::random_conformant(t.arrival, horizon, rng);
  }
  return traces;
}

std::vector<ObjectSpec> resolve_object_specs(const TaskSet& ts,
                                             const ExecConfig& cfg) {
  if (cfg.objects.empty())
    return uniform_objects(ts.object_count, ObjectKind::kQueue,
                           ObjectImpl::kLockFree);
  LFRT_CHECK_MSG(static_cast<std::int32_t>(cfg.objects.size()) ==
                     ts.object_count,
                 "ExecConfig::objects must list one spec per object");
  return cfg.objects;
}

rt::ExecutorReport run_on_executor(const TaskSet& ts,
                                   const sched::Scheduler& scheduler,
                                   const ExecConfig& cfg) {
  ts.validate();
  TaskId max_task = -1;
  for (const auto& t : ts.tasks) max_task = std::max(max_task, t.id);
  const std::vector<ObjectSpec> specs = resolve_object_specs(ts, cfg);

  // Placement lowering: the set resolves the placement's object
  // scoping itself (object_scope), the same rule the simulator applies.
  sched::Placement placement = cfg.dispatch.placement;
  placement.validate(cfg.cpu_count, static_cast<std::size_t>(max_task + 1));
  placement.task_affinity.resize(static_cast<std::size_t>(max_task + 1), -1);
  auto objs = std::make_shared<SharedObjectSet>(
      specs, static_cast<std::int32_t>(max_task + 1), cfg.queue_capacity,
      placement, cfg.cpu_count);

  // Flatten the per-task traces into one tape, keeping only jobs whose
  // critical time falls within the horizon (the simulator's counting
  // rule) so both substrates score the same population.
  struct Arrival {
    Time at;
    TaskId task;
  };
  const auto traces =
      make_arrival_traces(ts, cfg.horizon, cfg.arrival_seed,
                          cfg.periodic_arrivals);
  std::vector<Arrival> tape;
  for (const auto& t : ts.tasks)
    for (Time at : traces[static_cast<std::size_t>(t.id)])
      if (at + t.critical_time() <= cfg.horizon) tape.push_back({at, t.id});
  std::stable_sort(tape.begin(), tape.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at != b.at ? a.at < b.at : a.task < b.task;
                   });

  rt::ExecutorConfig excfg;
  excfg.cpu_count = cfg.cpu_count;
  excfg.dispatch = cfg.dispatch;
  rt::Executor ex(scheduler, excfg);

  // Live contention controller, when an object opted into adaptive
  // sharding or the config opted into placement actions: it reads the
  // registry's heatmap every epoch, promotes/demotes stripes on the
  // real structures (or migrates tasks/instances), and installs
  // dispatch steering.  Stopped before shutdown so the final matrix is
  // quiescent.
  const bool want_place = cfg.controller.place && !placement.global();
  std::unique_ptr<ContentionController> controller;
  if (std::any_of(specs.begin(), specs.end(), is_adaptive) || want_place) {
    controller =
        std::make_unique<ContentionController>(cfg.controller, objs.get(), &ex);
    if (want_place)
      controller->enable_placement(placement,
                                   placement.cluster_count(cfg.cpu_count), ts);
    controller->start();
  }

  const auto epoch = Clock::now();
  for (const Arrival& a : tape) {
    std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(a.at));
    ex.submit(make_job(ts.by_id(a.task), objs, cfg.quantum));
  }
  ex.drain();
  if (controller) controller->stop();
  rt::ExecutorReport rep = ex.shutdown();
  rep.contention = objs->matrix();
  return rep;
}

rt::ExecutorReport run_on_executor(const workload::WorkloadSpec& spec,
                                   const sched::Scheduler& scheduler,
                                   const ExecConfig& cfg) {
  return run_on_executor(workload::make_task_set(spec), scheduler, cfg);
}

}  // namespace lfrt::runtime
