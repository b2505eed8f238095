// Workload adapter: run the *same* generated task set on the real-
// threads executor that the simulator runs.
//
// The paper's evaluation is simulation; its implementation study is a
// POSIX middleware testbed.  This adapter closes the loop between the
// two substrates in-repo: it lowers a TaskSet (typically from
// workload::make_task_set) into rt::RtJobs with synthetic checkpointed
// compute bodies and *real* shared objects behind the unified
// runtime::SharedObject layer — per-object ObjectSpec{kind, impl}
// selects MS queue / Treiber stack / NBW buffer / atomic snapshot or
// their mutex counterparts — replays the identical arrival traces the
// bench harness would feed the simulator, and returns the executor's
// RunReport (including the object × task contention matrix from the
// layer's registry) — so AUR/CMR/retry figures can be cross-validated
// between analysis, simulation, and actual threads
// (bench/ext_executor_validation.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "rt/executor.hpp"
#include "runtime/contention_controller.hpp"
#include "sched/placement.hpp"
#include "runtime/object_spec.hpp"
#include "task/task.hpp"
#include "workload/workload.hpp"

namespace lfrt::sched {
class Scheduler;
}

namespace lfrt::runtime {

/// Configuration of one executor run.
struct ExecConfig {
  /// Wall-clock length of the arrival tape.  Only jobs whose critical
  /// time falls within the horizon are submitted — the same counting
  /// rule sim::Simulator applies — so the two substrates score the same
  /// job population.
  Time horizon = msec(200);

  /// Per-object shared-object specs, indexed by ObjectId.  Empty means
  /// a uniform universe of lock-free queues over ts.object_count (the
  /// paper's implementation-study shape); otherwise the size must equal
  /// ts.object_count.  Build mixed universes by hand or homogeneous
  /// ones with uniform_objects().
  std::vector<ObjectSpec> objects;

  /// CPU slots the executor dispatches to (rt::ExecutorConfig): 1 is
  /// the paper's uniprocessor model; > 1 runs up to that many job
  /// bodies in true parallel.  Match the simulator's SimConfig
  /// cpu_count when cross-validating.
  int cpu_count = 1;

  /// Dispatch-layer options (placement policy + strict groups),
  /// forwarded verbatim into rt::ExecutorConfig::dispatch — the mirror
  /// of SimConfig::dispatch, so one placement statement drives both
  /// substrates.  Object scoping follows runtime::object_scope, the
  /// rule the simulator applies too: under a non-global placement with
  /// scope_objects (the default), queue/stack objects are instantiated
  /// once per cluster and each task accesses its own cluster's
  /// instance; buffer/snapshot stay shared.
  sched::DispatchOptions dispatch;

  /// Arrival seeding (make_arrival_traces): per-task RNG seeded with
  /// `arrival_seed ^ (0xA5A5A5A5 * (id + 1))`, trace from
  /// arrivals::periodic_phased (or random_conformant when !periodic).
  std::uint64_t arrival_seed = 1;
  bool periodic_arrivals = true;

  /// Compute bodies spin in quanta of this length with a checkpoint
  /// (preemption/abort point) between quanta.
  Time quantum = usec(50);

  /// Capacity of each lock-free queue/stack (accesses are insert/remove
  /// balanced, so steady-state occupancy stays near the in-flight job
  /// count).
  std::size_t queue_capacity = 1024;

  /// Contention-controller tuning, engaged when any object in `objects`
  /// is adaptive (runtime::is_adaptive): run_on_executor then runs a live
  /// runtime::ContentionController thread for the duration of the tape,
  /// promoting/demoting shard counts on the real sharded structures and
  /// steering the executor's dispatch by the epoch conflict vector.
  ControllerConfig controller;
};

/// Per-task arrival traces over [0, horizon], indexed by TaskId.  With
/// `periodic`, byte-compatible with what bench::make_cell_sim feeds the
/// simulator for the same seed, so a cross-validation run compares like
/// with like.  The random tapes are not: make_cell_sim's random path
/// goes through Simulator::seed_arrivals, which mixes the seed with a
/// different per-task constant.
std::vector<std::vector<Time>> make_arrival_traces(const TaskSet& ts,
                                                   Time horizon,
                                                   std::uint64_t seed,
                                                   bool periodic);

/// Replay `ts` on a fresh rt::Executor under `scheduler`: submit each
/// admitted arrival at its trace time (wall clock), with a body that
/// spins the task's exec_time in checkpointed quanta and performs each
/// AccessSpec as one SharedObject::access against the real object —
/// write accesses on queue/stack shapes insert, expose a mid-access
/// checkpoint, then remove (aborts roll the insert back); buffer and
/// snapshot shapes write/read/scan per their protocols.  Blocks until
/// the tape has played and every job reached a terminal state; the
/// returned report carries the object × task contention matrix.
rt::ExecutorReport run_on_executor(const TaskSet& ts,
                                   const sched::Scheduler& scheduler,
                                   const ExecConfig& cfg);

/// Convenience: generate the task set from `spec` first.
rt::ExecutorReport run_on_executor(const workload::WorkloadSpec& spec,
                                   const sched::Scheduler& scheduler,
                                   const ExecConfig& cfg);

}  // namespace lfrt::runtime
