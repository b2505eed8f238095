#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "sched/scheduling_pass.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "uam/uam.hpp"

namespace lfrt::sim {

std::string to_string(ShareMode mode) {
  switch (mode) {
    case ShareMode::kLockBased:
      return "lock-based";
    case ShareMode::kLockFree:
      return "lock-free";
    case ShareMode::kIdeal:
      return "ideal";
  }
  __builtin_unreachable();
}

namespace {

enum class MsKind : std::uint8_t {
  kAccessStart,
  kAccessEnd,
  kSpanAcquire,  // nested: lock request at a span's acquire offset
  kSpanRelease,  // nested: unlock request at a span's release offset
  kCompletion,
  kHandlerEnd,
};

enum class EvKind : std::uint8_t { kMilestone, kExpiry, kArrival, kController };

struct Event {
  Time t = 0;
  int prio = 0;  // milestone/controller 0 < expiry 1 < arrival 2 at equal time
  std::int64_t seq = 0;
  EvKind kind = EvKind::kArrival;
  JobId job = kNoJob;     // milestone/expiry target
  TaskId task = -1;       // arrival target
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.prio != b.prio) return a.prio > b.prio;
    return a.seq > b.seq;
  }
};

struct Milestone {
  Event ev{kTimeNever, 0, 0, EvKind::kMilestone};
  MsKind ms = MsKind::kCompletion;
};

}  // namespace

struct Simulator::Impl {
  TaskSet tasks;
  SimConfig cfg;
  std::unordered_map<TaskId, std::vector<Time>> arrival_traces;

  // One arrival stream per traced task, indexed by TaskId: the task's
  // times, the cursor to its next unqueued arrival, and the block of
  // seqs reserved for its arrivals.  Only each stream's next arrival
  // sits in the queue.  The blocks follow arrival_traces' iteration
  // order, so arrival k of a stream carries seq_base + k — the seq it
  // would have had with the whole tape queued up front — and ties
  // among equal-time arrivals break the same way.
  struct ArrivalStream {
    const std::vector<Time>* times = nullptr;
    std::size_t next = 0;
    std::int64_t seq_base = 0;
  };
  std::vector<ArrivalStream> streams_;

  // Per task, indexed by TaskId: suffix sums of pending_cost over the
  // task's accesses (flat) or spans (nested) — entry k is the estimated
  // cost of items k.. and the last entry is 0.  Object specs and the
  // cost model are fixed for a run, so remaining_estimate reads one
  // entry instead of summing the tail at every reschedule.
  std::vector<std::vector<Time>> pending_suffix_;

  // ---- runtime state ----
  Time now = 0;
  // Dense job slab: JobId IS the index.  Ids are handed out sequentially
  // from 0 and a job is never destroyed mid-run (retire only drops it
  // from the pass), so the slab stays id-ordered and lookups are O(1)
  // array indexing instead of hashing.  run() reserves the full arrival
  // count up front, so steady-state arrivals never reallocate — but no
  // Job& is ever held across an insertion anyway.
  std::vector<Job> jobs;
  // Per job: length of its current access attempt, set when the attempt
  // starts (access start, lock acquisition, retry).  It bakes in the
  // contender count observed at attempt start — stored so milestone
  // reposts see one stable length for the whole attempt.
  std::vector<Time> attempt_len_;
  // Per job: instance of the flat-mode held lock, recorded at
  // acquisition, so a placement migration mid-hold still releases the
  // instance actually held.
  std::vector<std::int32_t> held_inst_;
  std::vector<Time> run_start_on;   // per CPU: instant its job (re)starts
  // Per CPU: its job's next milestone (t = kTimeNever if none), not in q.
  std::vector<Milestone> milestone_on;
  Time superseded_sync = 0;  // latest superseded milestone <= horizon
  Time last_sync = 0;
  Time cpu_free_at = 0;  // when pending scheduler overhead drains
  // Per-(object, instance) holder set (multi-unit resources: capacity
  // comes from TaskSet::object_units, per instance; the DATE paper's
  // single-unit model is the one-unit special case).  Flattened
  // [o * kMaxObjectShards + inst]: under per-cluster object scoping a
  // queue/stack object has one instance per cluster and a task locks
  // its own cluster's instance (lock_inst); every other configuration
  // maps to instance 0 — the legacy per-object rule, bit for bit.
  std::vector<std::vector<JobId>> holders;
  // Per-(object, shard) last lock-free WRITE completion — the conflict
  // source.  Flattened [o * kMaxObjectShards + shard]; the shard of an
  // access is task % shard_count_[o], evaluated at CAS time, so a
  // promotion applied mid-attempt narrows the attempt's own conflict
  // window exactly like a real re-read of a different stripe head.
  // With shard_count_[o] == 1 every access maps to shard 0 and this IS
  // the pre-sharding per-object rule, bit for bit.
  std::vector<Time> last_shard_write;
  std::vector<std::int32_t> shard_count_;  // per-object live stripe count
  // Object scoping of the placement (runtime::object_scope; its
  // cluster count is fixed for the run, controller moves change only
  // task affinities).
  runtime::ObjectScope scope_;
  JobId next_job_id = 0;
  std::int64_t next_seq = 0;
  bool ran = false;
  Rng exec_rng{0};

  std::priority_queue<Event, std::vector<Event>, EventLater> q;
  SimReport report;

  // The scheduling pass, shared with rt::Executor so both substrates
  // dispatch identically.  It owns the per-CPU occupancy, the live
  // placement and the reused scheduler scratch, so the pass that runs
  // at every arrival, departure and (lock-based) lock/unlock request
  // performs no heap allocation in steady state.  Its view holds the
  // pending jobs (alive and not aborting) in id order and its front the
  // jobs running abort handlers; the handlers below edit both in place.
  sched::SchedulingPass pass;
  std::ostringstream trace_os;  // reused trace formatting buffer

  // Resolved per-object specs (one per ObjectId; the homogeneous
  // default when cfg.objects is empty).
  std::vector<runtime::ObjectSpec> obj_specs;
  // Per object: its (kind, impl) cell of cfg.cost_model, or of
  // CostModel::flat(s, r) when no table is given — the one price list
  // every access attempt reads.
  std::vector<runtime::AccessCost> obj_cost_;

  // The adaptive-sharding policy, stepped from deterministic
  // kController epoch events — the same core the executor's controller
  // thread runs.  Engaged only when an object opts in (and the mode has
  // retries to act on), so legacy configurations take none of these
  // paths.
  std::unique_ptr<runtime::ContentionControllerCore> controller;

  Impl(TaskSet ts, const sched::Scheduler& sch, SimConfig c)
      : tasks(std::move(ts)), cfg(c), pass(sch, c.cpu_count, c.dispatch) {
    tasks.validate();
    LFRT_CHECK_MSG(cfg.horizon < kTimeNever, "horizon must be finite");
    for (const auto& t : tasks.tasks) {
      if (t.nested())
        LFRT_CHECK_MSG(cfg.mode == ShareMode::kLockBased,
                       "nested critical sections require lock-based "
                       "sharing (paper, Section 2)");
    }
    if (cfg.objects.empty()) {
      obj_specs = runtime::uniform_objects(
          tasks.object_count, runtime::ObjectKind::kQueue,
          cfg.mode == ShareMode::kLockBased
              ? runtime::ObjectImpl::kMutex
              : runtime::ObjectImpl::kLockFree);
    } else {
      LFRT_CHECK_MSG(static_cast<std::int32_t>(cfg.objects.size()) ==
                         tasks.object_count,
                     "SimConfig::objects must list one spec per object");
      obj_specs = cfg.objects;
      // Nested spans model critical sections; their objects must be
      // lock-based under a mixed universe.
      for (const auto& t : tasks.tasks)
        for (const auto& sp : t.spans)
          LFRT_CHECK_MSG(
              runtime::is_lock_based(
                  obj_specs[static_cast<std::size_t>(sp.object)].impl),
              "nested spans require lock-based objects");
    }
    if (!cfg.cost_model && cfg.mode != ShareMode::kIdeal) {
      // The scalars price the accesses, so each one in use must be
      // positive (the table would silently round zero up to 1 ns).
      LFRT_CHECK_MSG(
          cfg.mode != ShareMode::kLockFree || cfg.lockfree_access_time > 0,
          "lock-free access time must be positive");
      for (const auto& s : obj_specs)
        LFRT_CHECK_MSG((runtime::is_lock_based(s.impl)
                            ? cfg.lock_access_time
                            : cfg.lockfree_access_time) > 0,
                       "access times must be positive");
    }
    const runtime::CostModel model =
        cfg.cost_model.value_or(runtime::CostModel::flat(
            cfg.lockfree_access_time, cfg.lock_access_time));
    obj_cost_.reserve(obj_specs.size());
    for (const auto& s : obj_specs)
      obj_cost_.push_back(model.at(s.kind, s.impl));
    TaskId max_task = -1;
    for (const auto& t : tasks.tasks) max_task = std::max(max_task, t.id);
    const sched::Placement& placement = pass.placement();
    scope_ = runtime::object_scope(obj_specs, placement, cfg.cpu_count);
    run_start_on.assign(static_cast<std::size_t>(cfg.cpu_count), 0);
    milestone_on.assign(static_cast<std::size_t>(cfg.cpu_count), {});
    holders.assign(static_cast<std::size_t>(tasks.object_count) *
                       static_cast<std::size_t>(runtime::kMaxObjectShards),
                   {});
    report.cpu_busy.assign(static_cast<std::size_t>(cfg.cpu_count), 0);
    report.cpu_jobs.assign(static_cast<std::size_t>(cfg.cpu_count), 0);
    exec_rng = Rng(cfg.exec_seed);
    last_shard_write.assign(static_cast<std::size_t>(tasks.object_count) *
                                static_cast<std::size_t>(
                                    runtime::kMaxObjectShards),
                            -1);
    shard_count_.reserve(static_cast<std::size_t>(tasks.object_count));
    for (const auto& s : obj_specs)
      shard_count_.push_back(runtime::initial_shards(s));
    if (scope_.any)
      for (const auto& t : tasks.tasks)
        LFRT_CHECK_MSG(t.spans.empty(),
                       "scoped placement excludes nested lock spans");
    const bool want_place = cfg.controller.place && !placement.global();
    const bool any_adapt = std::any_of(obj_specs.begin(), obj_specs.end(),
                                       runtime::is_adaptive);
    if ((any_adapt || want_place) && cfg.mode != ShareMode::kIdeal) {
      LFRT_CHECK_MSG(cfg.controller.epoch > 0,
                     "controller epoch must be positive");
      controller = std::make_unique<runtime::ContentionControllerCore>(
          cfg.controller, obj_specs);
      if (want_place) {
        // Topology the placement actions need: each task's cluster and
        // the object topology.
        std::vector<std::int32_t> clusters(
            static_cast<std::size_t>(max_task + 1), -1);
        for (TaskId t = 0; t <= max_task; ++t)
          clusters[static_cast<std::size_t>(t)] = placement.cluster_of_task(t);
        runtime::ObjectTopology topo(tasks);
        controller->enable_placement(placement, std::move(clusters),
                                     scope_.clusters,
                                     std::move(topo.accessors_of),
                                     std::move(topo.writer_of));
      }
    }
    pending_suffix_.resize(static_cast<std::size_t>(max_task + 1));
    for (const auto& t : tasks.tasks) {
      // Span accesses are critical sections — write-shaped for the cost
      // model (no snapshot scan term).
      const std::size_t n = t.nested() ? t.spans.size() : t.accesses.size();
      auto& suffix = pending_suffix_[static_cast<std::size_t>(t.id)];
      suffix.assign(n + 1, 0);
      for (std::size_t k = n; k-- > 0;) {
        suffix[k] = suffix[k + 1] +
                    (t.nested() ? pending_cost(t.spans[k].object,
                                               /*write=*/true)
                                : pending_cost(t.accesses[k].object,
                                               t.accesses[k].write));
      }
    }
    report.contention = runtime::ContentionMatrix(
        tasks.object_count, static_cast<std::int32_t>(max_task + 1));
  }

  const TaskParams& params_of(const Job& j) const {
    return tasks.by_id(j.task);
  }

  Job& job(JobId id) { return jobs[static_cast<std::size_t>(id)]; }
  const Job& job(JobId id) const {
    return jobs[static_cast<std::size_t>(id)];
  }
  bool valid(JobId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < jobs.size();
  }

  /// A compute offset declared against the nominal u_i, rescaled to the
  /// job's actual execution demand (context-dependent execution times).
  Time scaled(const Job& j, Time nominal_offset) const {
    const Time nominal = params_of(j).exec_time;
    if (j.exec_actual == nominal) return nominal_offset;
    return nominal_offset * j.exec_actual / nominal;
  }

  /// Whether object `o` blocks (lock-based — any zoo lock) rather than
  /// retries.
  bool lock_based_obj(ObjectId o) const {
    if (cfg.mode == ShareMode::kIdeal) return false;
    return runtime::is_lock_based(
        obj_specs[static_cast<std::size_t>(o)].impl);
  }

  runtime::ObjectKind kind_of(ObjectId o) const {
    return obj_specs[static_cast<std::size_t>(o)].kind;
  }

  /// Stripe of object `o` that task `t`'s accesses land on — the same
  /// affinity rule the executor's sharded containers apply.
  std::int32_t shard_of(ObjectId o, TaskId t) const {
    const std::int32_t k = shard_count_[static_cast<std::size_t>(o)];
    if (k <= 1) return 0;
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(t) %
                                     static_cast<std::uint32_t>(k));
  }

  /// Placement instance of object `o` that task `t`'s accesses land on:
  /// the task's cluster for queue/stack kinds under per-cluster object
  /// scoping, else 0 (the legacy single-instance model, bit for bit).
  /// Unplaced tasks use instance 0.
  std::int32_t lock_inst(ObjectId o, TaskId t) const {
    if (scope_.instances[static_cast<std::size_t>(o)] == 1) return 0;
    return scope_.task_instance(pass.placement(), t);
  }

  /// Flattened holder-set index of (object, instance).
  std::size_t hidx(ObjectId o, std::int32_t inst) const {
    return static_cast<std::size_t>(o) *
               static_cast<std::size_t>(runtime::kMaxObjectShards) +
           static_cast<std::size_t>(inst);
  }

  /// Other alive jobs currently in, or blocked on, an access of `o` —
  /// the contender count the cost model's per-contender term scales by.
  /// Under scoped placement only same-instance jobs contend (disjoint
  /// clusters touch disjoint structures).
  std::int64_t contenders_on(ObjectId o, JobId self) const {
    const std::int32_t inst = lock_inst(o, job(self).task);
    std::int64_t n = 0;
    // A job running its abort handler is out of the view; it never
    // contends (it is neither in an access nor blocked).
    for (const sched::SchedJob& sj : pass.view()) {
      if (sj.id == self) continue;
      const Job& other = job(sj.id);
      if (other.access_object == o &&
          (other.in_access || other.state == JobState::kBlocked) &&
          lock_inst(o, other.task) == inst)
        ++n;
    }
    return n;
  }

  /// Length of the access attempt job `self` starts on `o` right now:
  /// the object's cell evaluated against the live contender count (0
  /// under the ideal yardstick).  The contenders are only counted when
  /// the cell has a slope to multiply them by, so flat cells skip the
  /// scan.  `retried` marks a restarted attempt (adds the cell's retry
  /// penalty).
  Time attempt_cost(ObjectId o, bool write, JobId self, bool retried) const {
    if (cfg.mode == ShareMode::kIdeal) return 0;
    const runtime::AccessCost& cell = obj_cost_[static_cast<std::size_t>(o)];
    const std::int64_t contenders =
        cell.per_contender != 0 ? contenders_on(o, self) : 0;
    return runtime::access_cost(cell, kind_of(o), write, contenders,
                                retried ? 1 : 0);
  }

  /// Cost estimate of a not-yet-started access for the scheduler's
  /// remaining-work view: the uncontended cell cost (the scheduler is
  /// shown estimates, not clairvoyant contention).
  Time pending_cost(ObjectId o, bool write) const {
    if (cfg.mode == ShareMode::kIdeal) return 0;
    return runtime::access_cost(obj_cost_[static_cast<std::size_t>(o)],
                                kind_of(o), write, /*contenders=*/0);
  }

  /// The stored length of `j`'s in-flight attempt (valid while
  /// j.in_access).
  Time attempt_len(const Job& j) const {
    return attempt_len_[static_cast<std::size_t>(j.id)];
  }
  void set_attempt_len(const Job& j, Time len) {
    attempt_len_[static_cast<std::size_t>(j.id)] = len;
  }

  runtime::ContentionCell& ccell(ObjectId o, TaskId t) {
    return report.contention.at(o, t);
  }

  /// Append one trace line from streamable parts.  The parts are only
  /// formatted when tracing is on, so the (hot) call sites pay nothing
  /// for it in a plain run — no string building, no allocation.
  template <typename... Parts>
  void trace(Parts&&... parts) {
    if (!cfg.record_trace) return;
    trace_os.str(std::string());
    trace_os.clear();
    trace_os << "[" << now << "] ";
    (trace_os << ... << parts);
    report.trace.push_back(trace_os.str());
  }

  void record_slice(JobId id, TaskId task, int cpu, Time begin, Time end) {
    auto& out = report.slices;
    if (!out.empty() && out.back().job == id && out.back().cpu == cpu &&
        out.back().end == begin) {
      out.back().end = end;  // merge contiguous stretches
      return;
    }
    out.push_back({id, task, cpu, begin, end});
  }

  // ---- per-job execution geometry -----------------------------------

  /// Remaining execution estimate: remaining compute plus remaining
  /// access time at each pending access's per-object cost
  /// (c_i = u_i + sum of t_acc over pending accesses; for a homogeneous
  /// universe this is the paper's u_i + m_i * t_acc).
  Time remaining_estimate(const Job& j) const {
    const auto& p = params_of(j);
    const auto& suffix = pending_suffix_[static_cast<std::size_t>(j.task)];
    // The scheduler is shown the task's *estimate*; a job whose actual
    // demand overruns it simply looks (optimistically) nearly done.
    Time rem = std::max<Time>(1, p.exec_time - j.compute_done);
    if (p.nested()) {
      rem += suffix[j.next_span];
      if (j.in_access) rem += attempt_len(j) - j.access_progress;
      return rem;
    }
    const std::size_t a = j.next_access;
    rem += suffix[a];
    // next_access still indexes the in-flight access: count it at its
    // live attempt length instead of its pending estimate, less the
    // progress already made.
    if (j.in_access)
      rem += attempt_len(j) - (suffix[a] - suffix[a + 1]) - j.access_progress;
    return rem;
  }

  /// Next interesting point of the job if it runs uninterrupted from
  /// now: {delta until it, what it is}.
  std::pair<Time, MsKind> next_milestone(const Job& j) const {
    const auto& p = params_of(j);
    if (j.state == JobState::kAborting)
      return {p.abort_handler_time - j.handler_done, MsKind::kHandlerEnd};
    if (j.in_access)
      return {attempt_len(j) - j.access_progress, MsKind::kAccessEnd};
    if (p.nested()) {
      // Next interesting compute offset: the innermost open span's
      // release, the next span's acquire, or completion — release
      // before acquire before completion at equal offsets (LIFO
      // discipline; validation guarantees release <= u_i).
      Time best = j.exec_actual;
      MsKind kind = MsKind::kCompletion;
      if (j.next_span < p.spans.size() &&
          scaled(j, p.spans[j.next_span].acquire_offset) <= best) {
        best = scaled(j, p.spans[j.next_span].acquire_offset);
        kind = MsKind::kSpanAcquire;
      }
      if (!j.open_spans.empty() &&
          scaled(j, p.spans[j.open_spans.back()].release_offset) <= best) {
        best = scaled(j, p.spans[j.open_spans.back()].release_offset);
        kind = MsKind::kSpanRelease;
      }
      return {std::max<Time>(0, best - j.compute_done), kind};
    }
    if (j.next_access < p.accesses.size()) {
      const Time off = scaled(j, p.accesses[j.next_access].offset);
      if (j.compute_done >= off) return {0, MsKind::kAccessStart};
      return {off - j.compute_done, MsKind::kAccessStart};
    }
    return {j.exec_actual - j.compute_done, MsKind::kCompletion};
  }

  /// Apply CPU progress of every running job up to instant t.
  void sync_progress(Time t) {
    for (int c = 0; c < cfg.cpu_count; ++c) {
      const JobId id = pass.running_on(c);
      if (id == kNoJob) continue;
      Job& j = job(id);
      const Time from =
          std::max(run_start_on[static_cast<std::size_t>(c)], last_sync);
      if (t <= from) continue;
      const Time delta = t - from;
      report.cpu_busy[static_cast<std::size_t>(c)] += delta;
      if (cfg.record_slices) record_slice(id, j.task, c, from, t);
      if (j.state == JobState::kAborting) {
        j.handler_done += delta;
        LFRT_CHECK(j.handler_done <= params_of(j).abort_handler_time);
      } else if (j.in_access) {
        j.access_progress += delta;
        LFRT_CHECK(j.access_progress <= attempt_len(j));
      } else {
        j.compute_done += delta;
        LFRT_CHECK(j.compute_done <= j.exec_actual);
      }
    }
    last_sync = std::max(last_sync, t);
  }

  // ---- dispatching ----------------------------------------------------

  /// Re-post each CPU's milestone slot.  A superseded milestone at t <=
  /// horizon still counts and is synced to, as the heap once popped it.
  void repost_milestones() {
    for (int c = 0; c < cfg.cpu_count; ++c) {
      Milestone& m = milestone_on[static_cast<std::size_t>(c)];
      if (m.ev.t <= cfg.horizon) {
        ++report.events_processed;
        superseded_sync = std::max(superseded_sync, m.ev.t);
      }
      m.ev.t = kTimeNever;
      const JobId id = pass.running_on(c);
      if (id == kNoJob) continue;
      const Time base =
          std::max(now, run_start_on[static_cast<std::size_t>(c)]);
      const auto [delta, kind] = next_milestone(job(id));
      m.ev = Event{base + delta, 0, next_seq++, EvKind::kMilestone, id};
      m.ms = kind;
    }
  }

  /// Keep the CPUs as they are but recompute the current job milestones
  /// (used after in-place state changes that are not scheduling events,
  /// e.g. lock-free access boundaries).
  void continue_running() { repost_milestones(); }

  /// Full scheduler invocation + dispatch.  Called at every scheduling
  /// event: arrivals, departures (completion/abort), and — lock-based
  /// only — lock and unlock requests.
  void reschedule() {
    const sched::ScheduleResult& res = pass.build(
        now, [this](JobId id) { return remaining_estimate(job(id)); });
    ++report.sched_invocations;
    report.sched_ops += res.ops;
    const Time overhead = static_cast<Time>(
        std::llround(static_cast<double>(res.ops) * cfg.sched_ns_per_op));
    report.sched_overhead += overhead;

    // Deadlock resolution (nested sections): the scheduler's cycle
    // victims receive an abort-exception right away (Section 3.3).
    bool resolved_any = false;
    for (JobId victim : res.deadlock_victims) {
      if (!valid(victim)) continue;
      Job& v = job(victim);
      if (v.finished() || v.state == JobState::kAborting) continue;
      trace("deadlock victim job=", victim);
      ++report.deadlocks_resolved;
      raise_abort(v);
      resolved_any = true;
    }
    if (resolved_any) {
      // Immediate aborts released locks and woke waiters; rebuild the
      // schedule against the post-resolution state (both invocations
      // genuinely ran and are charged).  Recursion is bounded: a job is
      // a victim at most once, and `res` is not read after the call.
      reschedule();
      return;
    }

    cpu_free_at = std::max(cpu_free_at, now) + overhead;
    for (const auto& d : pass.dispatch()) {
      if (d.prev != kNoJob) {
        // A preemption: jobs that block or finish leave their CPU then.
        Job& pj = job(d.prev);
        if (pj.state == JobState::kRunning) pj.state = JobState::kReady;
        ++pj.preemptions;
        ++report.total_preemptions;
        continue;
      }
      Job& j = job(d.next);
      if (j.state != JobState::kAborting) j.state = JobState::kRunning;
      run_start_on[static_cast<std::size_t>(d.cpu)] = cpu_free_at;
      ++report.dispatches;
      ++report.cpu_jobs[static_cast<std::size_t>(d.cpu)];
    }
    repost_milestones();
  }

  // ---- event handlers -------------------------------------------------

  void handle_arrival(TaskId task_id) {
    const TaskParams& p = tasks.by_id(task_id);
    Job j;
    j.id = next_job_id++;
    j.task = task_id;
    j.arrival = now;
    j.critical_abs = now + p.critical_time();
    j.state = JobState::kReady;
    j.exec_actual = p.exec_time;
    if (p.exec_variation > 0.0) {
      const double f = 1.0 + exec_rng.uniform_real(-p.exec_variation,
                                                   p.exec_variation);
      j.exec_actual = std::max<Time>(
          1, static_cast<Time>(static_cast<double>(p.exec_time) * f));
    }
    trace("arrival task=", task_id, " job=", j.id);
    q.push(Event{j.critical_abs, 1, next_seq++, EvKind::kExpiry, j.id});
    LFRT_CHECK(j.id == static_cast<JobId>(jobs.size()));
    jobs.push_back(j);
    attempt_len_.push_back(0);
    held_inst_.push_back(0);
    pass.insert({.id = j.id, .arrival = j.arrival, .critical = j.critical_abs,
                 .remaining = remaining_estimate(j), .tuf = p.tuf.get(),
                 .task = j.task});
    reschedule();
  }

  /// Wake every job blocked on this object instance (a unit just
  /// freed); they remain parked at their access boundary and re-request
  /// when dispatched (if another waiter grabs the unit first, they
  /// re-block).  Instance-precise: a waiter whose task sits in another
  /// cluster waits on a different structure and stays blocked.
  void wake_waiters_on(ObjectId obj, std::int32_t inst) {
    for (const sched::SchedJob& sj : pass.view()) {
      if (sj.runnable()) continue;  // blocked <=> waits in the view
      Job& w = job(sj.id);
      if (w.access_object == obj && lock_inst(obj, w.task) == inst) wake(w);
    }
  }

  /// A blocked job turns ready; it re-requests its lock when dispatched.
  void wake(Job& w) {
    w.waits_on = kNoJob;
    w.state = JobState::kReady;
    pass.set_waits_on(w.id, kNoJob);
  }

  /// A lock request by `j` on instance `inst` of `obj` — a scheduling
  /// event either way.  With a unit free, `j` takes it and starts its
  /// critical section (returns true; the caller records the hold).
  /// Otherwise `j` blocks on the earliest holder, the dependency chain's
  /// target, and leaves its CPU (returns false).
  bool request_lock(Job& j, ObjectId obj, std::int32_t inst, bool write) {
    auto& hs = holders[hidx(obj, inst)];
    if (static_cast<std::int32_t>(hs.size()) < tasks.units_of(obj)) {
      hs.push_back(j.id);
      j.in_access = true;
      j.access_progress = 0;
      j.access_object = obj;
      set_attempt_len(j, attempt_cost(obj, write, j.id, /*retried=*/false));
      return true;
    }
    j.state = JobState::kBlocked;
    j.waits_on = hs.front();
    pass.set_waits_on(j.id, j.waits_on);
    j.access_object = obj;
    ++j.blockings;
    ++report.total_blockings;
    ++ccell(obj, j.task).blockings;
    const int c = pass.vacate(j.id);
    LFRT_CHECK(c >= 0);
    trace("blocked job=", j.id, " on=", hs.front(), " obj=", obj);
    return false;
  }

  void release_object(Job& j, ObjectId obj, std::int32_t inst) {
    auto& hs = holders[hidx(obj, inst)];
    const auto it = std::find(hs.begin(), hs.end(), j.id);
    LFRT_CHECK_MSG(it != hs.end(), "release by a non-holder");
    hs.erase(it);
    wake_waiters_on(obj, inst);
  }

  /// Flat-mode release of the single held lock (at the instance it was
  /// acquired on — a migration mid-hold must not strand the unit).
  void release_lock(Job& j) {
    if (j.held_object == kNoObject) return;
    const ObjectId obj = j.held_object;
    j.held_object = kNoObject;
    release_object(j, obj, held_inst_[static_cast<std::size_t>(j.id)]);
  }

  /// Rollback: release everything the job holds (abort path; the
  /// exception handler restores object consistency — Section 3.5).
  /// Span objects are never scoped (spans exclude scoped placement), so
  /// their instance is always 0.
  void release_all_locks(Job& j) {
    release_lock(j);
    while (!j.held_stack.empty()) {
      const ObjectId obj = j.held_stack.back();
      j.held_stack.pop_back();
      release_object(j, obj, 0);
    }
    j.open_spans.clear();
  }

  void retire(JobId id) {
    pass.erase(id);
    pass.vacate(id);
  }

  /// Raise an abort-exception on a job (critical-time expiry or
  /// deadlock resolution).  Does not invoke the scheduler; callers do.
  void raise_abort(Job& j) {
    trace("abort-exception job=", j.id);
    const TaskParams& p = params_of(j);
    // The abandoned access (if any) is rolled back by the handler.
    j.in_access = false;
    j.access_progress = 0;
    j.waits_on = kNoJob;
    if (p.abort_handler_time <= 0) {
      release_all_locks(j);
      j.state = JobState::kAborted;
      retire(j.id);
    } else {
      j.state = JobState::kAborting;
      j.handler_done = 0;
      // It re-enters the CPU via the abort-priority dispatch path:
      // handlers execute immediately at the highest eligibility
      // (Section 3.5) and are not the scheduler's to order.
      pass.to_front(j.id, j.task);
      pass.vacate(j.id);
    }
  }

  void handle_expiry(JobId id) {
    if (!valid(id)) return;
    Job& j = job(id);
    if (j.finished() || j.state == JobState::kAborting) return;
    raise_abort(j);
    reschedule();
  }

  void handle_milestone(JobId id, MsKind ms) {
    LFRT_CHECK(pass.cpu_of(id) >= 0);
    Job& j = job(id);
    const TaskParams& p = params_of(j);

    switch (ms) {
      case MsKind::kAccessStart: {
        LFRT_CHECK(j.next_access < p.accesses.size());
        const ObjectId obj = p.accesses[j.next_access].object;
        if (cfg.mode == ShareMode::kIdeal) {
          // Zero-cost access: consume every access due at this offset.
          while (j.next_access < p.accesses.size() &&
                 p.accesses[j.next_access].offset <= j.compute_done) {
            ++ccell(p.accesses[j.next_access].object, j.task).ops;
            ++j.next_access;
          }
          continue_running();
          return;
        }
        const bool is_write = p.accesses[j.next_access].write;
        if (!lock_based_obj(obj)) {
          j.in_access = true;
          j.access_progress = 0;
          j.access_object = obj;
          j.access_attempt_start = now;
          set_attempt_len(j, attempt_cost(obj, is_write, j.id,
                                          /*retried=*/false));
          continue_running();  // not a scheduling event
          return;
        }
        // Lock-based: a lock request.  Scoped placement routes it to
        // the task's cluster instance of the object.
        const std::int32_t inst = lock_inst(obj, j.task);
        if (request_lock(j, obj, inst, is_write)) {
          j.held_object = obj;
          held_inst_[static_cast<std::size_t>(j.id)] = inst;
          trace("lock acquired job=", j.id, " obj=", obj);
        }
        reschedule();
        return;
      }

      case MsKind::kAccessEnd: {
        LFRT_CHECK(j.in_access);
        LFRT_CHECK(j.access_progress == attempt_len(j));
        if (!lock_based_obj(j.access_object)) {
          // The CAS executes here, at the end of the attempt: it fails
          // iff another job completed a WRITE to the same object since
          // this attempt's read (its window start) — reads never
          // invalidate anyone.  On one CPU the interfering writer must
          // have preempted this job mid-access — the Section-4 retry
          // model; on many CPUs true concurrency triggers it too.
          // Buffer/snapshot *writes* are exempt: NBW's writer and the
          // snapshot's single-writer update are wait-free, so only
          // their readers pay the retry cost (the cost migration those
          // structures exist to demonstrate).
          // Sharding narrows the window further: only writes to the
          // *same stripe* (task % live shard count) invalidate the CAS,
          // which is exactly why promotion collapses a retry storm.
          // Under scoped placement the stripe IS the task's cluster
          // instance (the decompositions are mutually exclusive), so
          // cross-cluster writes literally cannot conflict.
          const auto oi = static_cast<std::size_t>(j.access_object);
          const runtime::ObjectKind kind = kind_of(j.access_object);
          const std::int32_t stripe =
              scope_.instances[oi] > 1
                  ? lock_inst(j.access_object, j.task)
                  : shard_of(j.access_object, j.task);
          const auto si =
              oi * static_cast<std::size_t>(runtime::kMaxObjectShards) +
              static_cast<std::size_t>(stripe);
          const bool is_write = p.accesses[j.next_access].write;
          const bool wait_free_write =
              is_write && (kind == runtime::ObjectKind::kBuffer ||
                           kind == runtime::ObjectKind::kSnapshot);
          if (!wait_free_write &&
              last_shard_write[si] > j.access_attempt_start) {
            ++j.retries;
            ++report.total_retries;
            ++ccell(j.access_object, j.task).retries;
            j.access_progress = 0;
            j.access_attempt_start = now;
            // The restarted attempt is re-costed against the contention
            // now in force, plus the cell's retry penalty.
            set_attempt_len(j, attempt_cost(j.access_object, is_write, j.id,
                                            /*retried=*/true));
            trace("retry job=", j.id, " obj=", j.access_object);
            continue_running();
            return;
          }
          if (is_write) last_shard_write[si] = now;
          ++ccell(j.access_object, j.task).ops;
          j.in_access = false;
          j.access_progress = 0;
          j.access_object = kNoObject;
          ++j.next_access;
          continue_running();
          return;
        }
        ++ccell(j.access_object, j.task).ops;
        j.in_access = false;
        j.access_progress = 0;
        j.access_object = kNoObject;
        if (p.nested()) {
          // The object work is done but the lock stays held until the
          // span's release offset — not a scheduling event.
          continue_running();
          return;
        }
        ++j.next_access;
        release_lock(j);  // unlock request — a scheduling event
        trace("lock released job=", j.id);
        reschedule();
        return;
      }

      case MsKind::kSpanAcquire: {
        LFRT_CHECK(j.next_span < p.spans.size());
        LFRT_CHECK(j.compute_done ==
                   scaled(j, p.spans[j.next_span].acquire_offset));
        const ObjectId obj = p.spans[j.next_span].object;
        // Spans exclude scoping, so the instance is always 0.
        if (request_lock(j, obj, 0, /*write=*/true)) {
          j.held_stack.push_back(obj);
          j.open_spans.push_back(j.next_span);
          ++j.next_span;
          trace("span acquired job=", j.id, " obj=", obj,
                " depth=", j.held_stack.size());
        }
        reschedule();
        return;
      }

      case MsKind::kSpanRelease: {
        LFRT_CHECK(!j.open_spans.empty());
        const std::size_t span = j.open_spans.back();
        LFRT_CHECK(j.compute_done == scaled(j, p.spans[span].release_offset));
        const ObjectId obj = p.spans[span].object;
        LFRT_CHECK(!j.held_stack.empty() && j.held_stack.back() == obj);
        j.open_spans.pop_back();
        j.held_stack.pop_back();
        release_object(j, obj, 0);
        trace("span released job=", j.id, " obj=", obj);
        reschedule();  // unlock request — a scheduling event
        return;
      }

      case MsKind::kCompletion: {
        LFRT_CHECK(j.compute_done == j.exec_actual);
        LFRT_CHECK(j.next_access == p.accesses.size());
        LFRT_CHECK(j.next_span == p.spans.size());
        LFRT_CHECK(j.held_object == kNoObject);
        LFRT_CHECK(j.held_stack.empty() && j.open_spans.empty());
        j.state = JobState::kCompleted;
        j.completion = now;
        trace("completion job=", j.id);
        retire(j.id);
        reschedule();  // a departure — a scheduling event
        return;
      }

      case MsKind::kHandlerEnd: {
        LFRT_CHECK(j.handler_done == p.abort_handler_time);
        release_all_locks(j);
        j.state = JobState::kAborted;
        trace("aborted job=", j.id);
        retire(j.id);
        reschedule();
        return;
      }
    }
  }

  /// One controller epoch: diff the live heatmap, apply shard
  /// promotions/demotions to the conflict model, install dispatch
  /// steering, and re-dispatch under it (the epoch hook runs inside the
  /// scheduling loop, so its decisions take effect immediately).
  void handle_controller() {
    auto ep = controller->step(report.contention);
    ++report.controller_epochs;
    for (runtime::ShardDecision& d : ep.decisions) {
      d.time = now;
      shard_count_[static_cast<std::size_t>(d.object)] = d.to_shards;
      report.shard_decisions.push_back(d);
      trace("shard ", d.from_shards < d.to_shards ? "promote" : "demote",
            " obj=", d.object, " ", d.from_shards, "->", d.to_shards);
    }
    pass.set_conflict_groups(std::move(ep.conflict_groups));
    sched::Placement placement = pass.placement();
    for (runtime::PlacementMove& mv : ep.placement_moves) {
      mv.time = now;
      if (mv.task >= 0 &&
          static_cast<std::size_t>(mv.task) < placement.task_affinity.size())
        placement.task_affinity[static_cast<std::size_t>(mv.task)] =
            mv.to_cluster;
      trace("place task=", mv.task, " cluster=", mv.to_cluster,
            " obj=", mv.object);
      report.placement_moves.push_back(mv);
      // The moved task now locks (and CASes against) its new cluster's
      // instances; jobs parked on the old instance's wait list would
      // otherwise never see a wake from the structure they re-request
      // on, so re-ready them here — they re-block if that one is busy
      // too.  Held locks are untouched: release goes to held_inst_.
      for (const sched::SchedJob& sj : pass.view()) {
        Job& w = job(sj.id);
        if (w.task == mv.task && !sj.runnable()) wake(w);
      }
    }
    if (!ep.placement_moves.empty()) pass.set_placement(std::move(placement));
    if (now + cfg.controller.epoch <= cfg.horizon)
      q.push(Event{now + cfg.controller.epoch, 0, next_seq++,
                   EvKind::kController});
    reschedule();
  }

  // ---- top level ------------------------------------------------------

  void seed_arrivals(std::uint64_t seed) {
    for (const auto& t : tasks.tasks) {
      if (arrival_traces.count(t.id)) continue;
      Rng rng(seed ^ (0x9E3779B97F4A7C15ULL *
                      static_cast<std::uint64_t>(t.id + 1)));
      arrival_traces[t.id] =
          arrivals::random_conformant(t.arrival, cfg.horizon, rng);
    }
  }

  /// Queue the next arrival of `task`'s stream, if any remain.
  void push_next_arrival(TaskId task) {
    ArrivalStream& st = streams_[static_cast<std::size_t>(task)];
    if (st.next == st.times->size()) return;
    q.push(Event{(*st.times)[st.next], 2,
                 st.seq_base + static_cast<std::int64_t>(st.next),
                 EvKind::kArrival, kNoJob, task});
    ++st.next;
  }

  SimReport run() {
    LFRT_CHECK_MSG(!ran, "Simulator::run is single-shot");
    ran = true;
    seed_arrivals(1);  // default traces for tasks without explicit ones

    std::size_t total_arrivals = 0;
    for (const auto& [task_id, times] : arrival_traces) {
      LFRT_CHECK_MSG(uam_conforms_max(tasks.by_id(task_id).arrival, times),
                     "arrival trace violates the task's UAM contract");
      const auto slot = static_cast<std::size_t>(task_id);
      if (slot >= streams_.size()) streams_.resize(slot + 1);
      streams_[slot] = {&times, 0, next_seq};
      next_seq += static_cast<std::int64_t>(times.size());
      total_arrivals += times.size();
      push_next_arrival(task_id);
    }
    // Every job the run can create corresponds to one traced arrival, so
    // this reservation makes the slab reallocation-free for the whole
    // run (and the parallel index vectors with it).
    jobs.reserve(total_arrivals);
    attempt_len_.reserve(total_arrivals);
    held_inst_.reserve(total_arrivals);

    if (controller)
      q.push(Event{cfg.controller.epoch, 0, next_seq++, EvKind::kController});

    const EventLater later;  // heap top or earliest slot, in heap order
    for (;;) {
      Milestone* m = &milestone_on.front();
      for (Milestone& slot : milestone_on)
        if (later(m->ev, slot.ev)) m = &slot;
      const bool from_slot = q.empty() || later(q.top(), m->ev);
      const Event e = from_slot ? m->ev : q.top();
      if (e.t > cfg.horizon) break;
      if (from_slot)
        m->ev.t = kTimeNever;
      else
        q.pop();
      ++report.events_processed;
      sync_progress(e.t);
      now = e.t;
      switch (e.kind) {
        case EvKind::kArrival:
          push_next_arrival(e.task);
          handle_arrival(e.task);
          break;
        case EvKind::kExpiry:
          handle_expiry(e.job);
          break;
        case EvKind::kMilestone:
          handle_milestone(e.job, m->ms);
          break;
        case EvKind::kController:
          handle_controller();
          break;
      }
    }
    sync_progress(superseded_sync);

    finalize();
    return std::move(report);
  }

  void finalize() {
    for (const Job& j : jobs) {
      const TaskParams& p = params_of(j);
      if (j.critical_abs <= cfg.horizon) {
        ++report.counted_jobs;
        report.max_possible_utility += p.tuf->max_utility();
        if (j.state == JobState::kCompleted) {
          ++report.completed;
          report.accrued_utility += p.tuf->utility(j.sojourn());
        } else {
          ++report.aborted;
        }
      }
    }
    // The slab is already id-ordered; hand it to the report wholesale
    // (the old map-based path copied every job and sorted).
    report.jobs = std::move(jobs);
    // Final per-object stripe counts, matching the executor's matrix().
    report.contention.shard_counts.assign(shard_count_.begin(),
                                          shard_count_.end());
  }
};

Simulator::Simulator(TaskSet tasks, const sched::Scheduler& scheduler,
                     SimConfig config)
    : impl_(std::make_unique<Impl>(std::move(tasks), scheduler, config)) {}

Simulator::~Simulator() = default;
Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;

void Simulator::set_arrivals(TaskId task, std::vector<Time> arrivals) {
  LFRT_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()));
  impl_->arrival_traces[task] = std::move(arrivals);
}

void Simulator::seed_arrivals(std::uint64_t seed) {
  impl_->seed_arrivals(seed);
}

SimReport Simulator::run() { return impl_->run(); }

}  // namespace lfrt::sim
