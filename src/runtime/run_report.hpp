// RunReport — the job-lifecycle accounting both execution substrates
// share.
//
// The paper validates its analysis on a simulated uniprocessor AND a
// real POSIX middleware testbed; this repo mirrors that with
// sim::Simulator and rt::Executor.  Both now report through this
// structure (sim::SimReport and rt::ExecutorReport derive from it and
// add only substrate-specific extras), so AUR/CMR, per-job terminal
// records, and per-task sojourn/retry breakdowns are defined exactly
// once and every figure has a real-threads witness with the same
// shape.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/contention.hpp"
#include "task/task.hpp"

namespace lfrt::runtime {

/// Aggregate + per-job outcome of one run on either substrate.
struct RunReport {
  // Jobs that reached a terminal state and are counted toward the
  // metrics.  Simulator: jobs whose critical time falls within the
  // horizon.  Executor: every submitted job (drain waits for all).
  std::int64_t counted_jobs = 0;
  std::int64_t completed = 0;  ///< completed at or before critical time
  std::int64_t aborted = 0;    ///< critical time expired first

  double accrued_utility = 0.0;
  double max_possible_utility = 0.0;  ///< sum of max_utility() over
                                      ///< counted jobs (an aborted job
                                      ///< accrues zero)

  /// Accrued utility ratio (paper, Section 5): accrued / max possible.
  double aur() const {
    return max_possible_utility > 0 ? accrued_utility / max_possible_utility
                                    : 0.0;
  }
  /// Critical-time-meet ratio (Section 6.2).
  double cmr() const {
    return counted_jobs > 0
               ? static_cast<double>(completed) /
                     static_cast<double>(counted_jobs)
               : 0.0;
  }

  // --- scheduling activity ---
  std::int64_t dispatches = 0;  ///< times a job (re)gained a CPU
  std::int64_t sched_invocations = 0;
  std::int64_t sched_ops = 0;  ///< counted elementary scheduler operations

  // --- sharing-mechanism events (validated against the paper's bounds) ---
  std::int64_t total_retries = 0;    ///< lock-free access restarts (f_i)
  std::int64_t total_blockings = 0;  ///< lock-based blocking episodes
  std::int64_t total_preemptions = 0;
  std::int64_t total_backoff_spins = 0;  ///< sum of Job::backoff_spins

  // --- service-mode admission + ingest accounting (PR 7) ---
  // Jobs arriving through ingest lanes pass an admission filter before
  // they become submissions.  A rejected job never runs: it accrues
  // zero utility but its max_utility() still counts toward the maximum
  // (shedding load is an abort-at-admission, not a free pass), and it
  // counts in counted_jobs: counted_jobs == submitted + rejected on the
  // executor.  A degraded job runs under a renegotiated (cheaper) TUF
  // and is a normal submission otherwise.  All zero outside service
  // mode.
  std::int64_t rejected = 0;
  std::int64_t degraded = 0;

  /// Sojourn (arrival -> completion) percentiles over completed jobs,
  /// ns, resolved to log2-bucket upper bounds (LatencyHistogram).
  /// Zero when the substrate doesn't record them (the simulator) or
  /// nothing completed.
  std::int64_t sojourn_p50_ns = 0;
  std::int64_t sojourn_p99_ns = 0;
  std::int64_t sojourn_p999_ns = 0;

  /// Ingest-lane wait (offer -> admission decision) percentiles, ns.
  /// Zero when no lanes were used.
  std::int64_t ingest_p50_ns = 0;
  std::int64_t ingest_p99_ns = 0;
  std::int64_t ingest_p999_ns = 0;

  // --- per-CPU-slot breakdowns (placement quality is invisible
  //     without them) ---

  /// Busy time per CPU slot: executor — wall-clock ns a worker held the
  /// slot; simulator — simulated time a job occupied the CPU.  Empty
  /// when the substrate predates the field (legacy JSON) — both
  /// substrates fill it, sized cpu_count.
  std::vector<Time> cpu_busy;

  /// Times a job was newly dispatched onto each CPU slot (a sticky job
  /// staying put does not recount).  Sums to `dispatches` on both
  /// substrates.
  std::vector<std::int64_t> cpu_jobs;

  /// Per-job terminal records (arrival, sojourn, retries, ...).
  std::vector<Job> jobs;

  /// Object × task heatmap of where retries/blockings landed.  Empty
  /// when the run's substrate didn't attribute per-object events (e.g.
  /// free-standing Executor use without the runtime adapter).
  ContentionMatrix contention;

  // --- per-task breakdowns (defined once for both substrates) ---

  /// Aggregate view of one task's jobs within this run.
  struct TaskBreakdown {
    std::int64_t jobs = 0;
    std::int64_t completed = 0;
    std::int64_t aborted = 0;
    std::int64_t retries = 0;
    std::int64_t max_retries = 0;  ///< worst single job (Theorem 2's f_i)
    std::int64_t blockings = 0;
    double mean_sojourn = 0.0;  ///< ns, over completed jobs
  };

  TaskBreakdown breakdown_of(TaskId id) const {
    TaskBreakdown b;
    double sojourn_sum = 0.0;
    for (const Job& j : jobs) {
      if (j.task != id) continue;
      ++b.jobs;
      b.retries += j.retries;
      b.blockings += j.blockings;
      if (j.retries > b.max_retries) b.max_retries = j.retries;
      if (j.state == JobState::kCompleted) {
        ++b.completed;
        sojourn_sum += static_cast<double>(j.sojourn());
      } else if (j.state == JobState::kAborted) {
        ++b.aborted;
      }
    }
    if (b.completed > 0)
      b.mean_sojourn = sojourn_sum / static_cast<double>(b.completed);
    return b;
  }

  /// Maximum retries by any single job of the given task — compared
  /// against analysis::retry_bound in tests and benches.
  std::int64_t max_retries_of_task(TaskId id) const {
    std::int64_t best = 0;
    for (const Job& j : jobs)
      if (j.task == id && j.retries > best) best = j.retries;
    return best;
  }

  /// Mean sojourn time of completed jobs of the given task (ns).
  double mean_sojourn_of_task(TaskId id) const {
    double sum = 0.0;
    std::int64_t n = 0;
    for (const Job& j : jobs) {
      if (j.task == id && j.state == JobState::kCompleted) {
        sum += static_cast<double>(j.sojourn());
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
};

}  // namespace lfrt::runtime
