// Contention controller — the policy that turns live heatmaps into
// shard counts and scheduling hints.
//
// Epoch model: the controller samples the run's ContentionMatrix every
// `epoch` nanoseconds and diffs it against the previous sample, so all
// decisions are driven by *rates over the last epoch*, not run totals —
// an object that stormed at startup and went quiet demotes, no matter
// how large its cumulative retry count is.  Per epoch, per adaptive
// object:
//
//   promote  — epoch retry rate (Δretries / Δops) crossed promote_rate
//              on at least min_epoch_ops accesses → double the stripe
//              count (up to max_shards).
//   demote   — the object went *idle* (fewer than min_epoch_ops
//              accesses) for demote_patience consecutive epochs →
//              halve (down to the ObjectSpec's configured floor).
//              Patience is the hysteresis: one quiet epoch inside a
//              bursty phase must not collapse the stripes the next
//              burst needs.  A busy object whose rate fell to
//              demote_rate or below is *calm*, not idle — its low rate
//              is the sharding working, so demoting it would re-create
//              the storm and oscillate; calm epochs neither accumulate
//              demote progress nor reset it.
//
// The same diff yields a per-task *conflict vector*: each task's
// hottest object of the epoch (by Δretries, past steer_min_retries).
// Tasks sharing a hot object are the pairs whose co-scheduling
// re-creates the storm, so the dispatch selector spreads them across
// selections when slots allow (never leaving a CPU idle for it).
//
// This core is pure logic over ContentionMatrix snapshots — no threads,
// no clocks, no link dependencies — so the simulator steps it from
// epoch events for deterministic adaptive runs, and the executor wraps
// it in the ContentionController thread (contention_controller.cpp)
// which applies its decisions to a live SharedObjectSet.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/contention.hpp"
#include "runtime/object_spec.hpp"
#include "sched/placement.hpp"
#include "support/time.hpp"
#include "task/task.hpp"

namespace lfrt::rt {
class Executor;
}

namespace lfrt::runtime {

class SharedObjectSet;

/// Tuning knobs of the contention controller (defaults chosen by the
/// shard_adaptive bench; determinism only requires that both substrates
/// agree on them).
struct ControllerConfig {
  Time epoch = msec(2);            ///< sampling period
  double promote_rate = 0.05;      ///< epoch retries/op that triggers ×2
  double demote_rate = 0.005;      ///< epoch retries/op considered quiet
  std::int64_t min_epoch_ops = 64; ///< rate denominator floor (anti-noise)
  std::int32_t max_shards = kMaxObjectShards;
  std::int32_t demote_patience = 3;     ///< quiet epochs before halving
  std::int64_t steer_min_retries = 8;   ///< epoch Δretries to steer a task

  /// Enable placement epoch actions (task-to-cluster migrations) when
  /// the run has a non-global placement.  The substrate must call
  /// enable_placement on the core/wrapper with the placement topology.
  bool place = false;

  friend bool operator==(const ControllerConfig&,
                         const ControllerConfig&) = default;
};

/// One applied shard-count change, for reports and the bench timeline.
struct ShardDecision {
  Time time = 0;  ///< stamped by the caller (sim time / ns since start)
  std::int32_t object = 0;
  std::int32_t from_shards = 1;
  std::int32_t to_shards = 1;
  double rate = 0.0;  ///< the epoch retry rate that drove the change

  friend bool operator==(const ShardDecision&,
                         const ShardDecision&) = default;
};

/// One applied task-to-cluster migration (placement epoch action).
struct PlacementMove {
  /// Why the controller moved the task: home a single-writer object's
  /// accessors onto the writer's cluster, or spread a hot scoped-kind
  /// conflict group across clusters (separation = per-cluster instances
  /// = zero cross-cluster conflicts).
  enum class Why : std::uint8_t { kWriterHome, kSpreadHotGroup };

  Time time = 0;  ///< stamped by the caller (sim time / ns since start)
  TaskId task = -1;
  std::int32_t to_cluster = 0;
  std::int32_t object = 0;  ///< the hot object that drove the move
  Why why = Why::kWriterHome;

  friend bool operator==(const PlacementMove&,
                         const PlacementMove&) = default;
};

/// The object topology placement actions need (enable_placement), read
/// off a task set: each object's accessors in ascending task order, and
/// the single task that writes it (-1 when none or several do).  A
/// nested lock span counts as a write.
struct ObjectTopology {
  std::vector<std::vector<TaskId>> accessors_of;
  std::vector<TaskId> writer_of;

  explicit ObjectTopology(const TaskSet& ts)
      : accessors_of(static_cast<std::size_t>(ts.object_count)),
        writer_of(static_cast<std::size_t>(ts.object_count), -1) {
    std::vector<bool> contested(writer_of.size(), false);
    const auto note = [&](ObjectId o, TaskId t, bool write) {
      const auto oi = static_cast<std::size_t>(o);
      if (std::find(accessors_of[oi].begin(), accessors_of[oi].end(), t) ==
          accessors_of[oi].end())
        accessors_of[oi].push_back(t);
      if (write) {
        if (writer_of[oi] >= 0 && writer_of[oi] != t) contested[oi] = true;
        writer_of[oi] = t;
      }
    };
    for (const auto& t : ts.tasks) {
      for (const auto& a : t.accesses) note(a.object, t.id, a.write);
      for (const auto& sp : t.spans) note(sp.object, t.id, true);
    }
    for (std::size_t o = 0; o < writer_of.size(); ++o) {
      if (contested[o]) writer_of[o] = -1;
      std::sort(accessors_of[o].begin(), accessors_of[o].end());
    }
  }
};

/// Pure epoch-stepped policy core.  Feed it matrix snapshots; it
/// returns what to change.  The caller is responsible for actually
/// applying the decisions (the core assumes they are applied).
class ContentionControllerCore {
 public:
  /// What one epoch concluded.  `decisions[i].time` is 0 — the caller
  /// stamps it with its own clock.  `conflict_groups[t]` is the hottest
  /// object of task t this epoch, or -1 when the task saw no storm
  /// (empty vector when no task did — steering off).
  struct Epoch {
    std::vector<ShardDecision> decisions;
    std::vector<std::int32_t> conflict_groups;
    std::vector<PlacementMove> placement_moves;
  };

  ContentionControllerCore(ControllerConfig cfg, std::vector<ObjectSpec> specs)
      : cfg_(cfg), specs_(std::move(specs)) {
    shards_.reserve(specs_.size());
    floor_.reserve(specs_.size());
    for (const ObjectSpec& s : specs_) {
      const bool shardable = s.impl == ObjectImpl::kLockFree &&
                             (s.kind == ObjectKind::kQueue ||
                              s.kind == ObjectKind::kStack);
      shards_.push_back(shardable ? clamp_shards(s.shards) : 1);
      floor_.push_back(shardable ? clamp_shards(s.shards) : 1);
      adaptive_.push_back(shardable && s.adapt);
    }
    idle_epochs_.assign(specs_.size(), 0);
  }

  /// Diff `live` against the previous sample and decide.  The first
  /// call (and any call after a dimension change) only baselines.
  Epoch step(const ContentionMatrix& live) {
    Epoch out;
    if (prev_.objects != live.objects || prev_.tasks != live.tasks) {
      prev_ = live;
      return out;
    }

    const std::int32_t n_obj = live.objects;
    const std::int32_t n_task = live.tasks;

    for (std::int32_t o = 0; o < n_obj && o < object_count(); ++o) {
      if (!adaptive_[static_cast<std::size_t>(o)]) continue;
      std::int64_t d_ops = 0;
      std::int64_t d_retries = 0;
      for (std::int32_t t = 0; t < n_task; ++t) {
        d_ops += live.at(o, t).ops - prev_.at(o, t).ops;
        d_retries += live.at(o, t).retries - prev_.at(o, t).retries;
      }
      const bool measurable = d_ops >= cfg_.min_epoch_ops;
      const double rate = measurable && d_ops > 0
                              ? static_cast<double>(d_retries) /
                                    static_cast<double>(d_ops)
                              : 0.0;
      std::int32_t& cur = shards_[static_cast<std::size_t>(o)];
      std::int32_t& idle = idle_epochs_[static_cast<std::size_t>(o)];
      const std::int32_t cap =
          cfg_.max_shards < kMaxObjectShards ? cfg_.max_shards
                                             : kMaxObjectShards;

      if (measurable && rate >= cfg_.promote_rate && cur < cap) {
        const std::int32_t to = clamp_shards(
            cur * 2 < cap ? cur * 2 : cap);
        out.decisions.push_back({0, o, cur, to, rate});
        cur = to;
        idle = 0;
      } else if (!measurable) {
        // Idle epoch: demote only after demote_patience of them.
        if (++idle >= cfg_.demote_patience &&
            cur > floor_[static_cast<std::size_t>(o)]) {
          const std::int32_t to =
              cur / 2 > floor_[static_cast<std::size_t>(o)]
                  ? cur / 2
                  : floor_[static_cast<std::size_t>(o)];
          out.decisions.push_back({0, o, cur, to, rate});
          cur = to;
          idle = 0;
        }
      } else if (rate > cfg_.demote_rate) {
        idle = 0;  // genuinely contended, below the promote threshold
      }
      // measurable && rate <= demote_rate: calm — the stripes are doing
      // their job; hold both the shard count and the demote progress.
    }

    // Conflict vector: each task's hottest object of the epoch.
    bool any = false;
    std::vector<std::int32_t> groups(static_cast<std::size_t>(n_task), -1);
    for (std::int32_t t = 0; t < n_task; ++t) {
      std::int64_t best = cfg_.steer_min_retries;
      for (std::int32_t o = 0; o < n_obj; ++o) {
        const std::int64_t d =
            live.at(o, t).retries - prev_.at(o, t).retries;
        if (d >= best) {
          best = d;
          groups[static_cast<std::size_t>(t)] = o;
          any = true;
        }
      }
    }
    if (any) out.conflict_groups = std::move(groups);

    // Placement epoch actions: for each object hot this epoch (by
    // Δretries + Δblockings past steer_min_retries), either spread its
    // accessors round-robin across clusters (scoped kinds — separation
    // gives each cluster its own instance, so the conflicts vanish) or
    // home them onto the single writer's cluster (buffer/snapshot —
    // readers co-located with the writer stop paying true-concurrency
    // spin).  Deterministic: objects in id order, accessors in the
    // caller-given (sorted) order, first move of a task per epoch wins.
    if (placement_enabled_) {
      moved_this_epoch_.assign(place_cluster_.size(), false);
      for (std::int32_t o = 0; o < n_obj && o < object_count(); ++o) {
        const auto oi = static_cast<std::size_t>(o);
        if (oi >= accessors_of_.size()) break;
        std::int64_t d_hot = 0;
        for (std::int32_t t = 0; t < n_task; ++t)
          d_hot += (live.at(o, t).retries - prev_.at(o, t).retries) +
                   (live.at(o, t).blockings - prev_.at(o, t).blockings);
        if (d_hot < cfg_.steer_min_retries) continue;
        const ObjectKind kind = specs_[oi].kind;
        const bool scoped =
            kind == ObjectKind::kQueue || kind == ObjectKind::kStack;
        const TaskId writer = oi < writer_of_.size() ? writer_of_[oi] : -1;
        if (scoped) {
          std::size_t idx = 0;
          for (TaskId t : accessors_of_[oi]) {
            const std::int32_t target = static_cast<std::int32_t>(
                (static_cast<std::size_t>(o) + idx++) %
                static_cast<std::size_t>(cluster_count_));
            move_task(t, target, o, PlacementMove::Why::kSpreadHotGroup,
                      &out.placement_moves);
          }
        } else if (writer >= 0) {
          std::int32_t home = cluster_of(writer);
          if (home < 0)
            home = static_cast<std::int32_t>(
                static_cast<std::size_t>(o) %
                static_cast<std::size_t>(cluster_count_));
          move_task(writer, home, o, PlacementMove::Why::kWriterHome,
                    &out.placement_moves);
          for (TaskId t : accessors_of_[oi])
            move_task(t, home, o, PlacementMove::Why::kWriterHome,
                      &out.placement_moves);
        }
      }
    }

    prev_ = live;
    return out;
  }

  /// Turn on placement epoch actions.  `task_cluster` is the live
  /// task -> cluster map (the core tracks it across its own moves),
  /// `accessors_of[o]` lists the tasks whose jobs access object o (in a
  /// deterministic, preferably sorted order), `writer_of[o]` is the
  /// single task that writes o (-1 when zero or several do).
  void enable_placement(std::vector<std::int32_t> task_cluster,
                        std::int32_t cluster_count,
                        std::vector<std::vector<TaskId>> accessors_of,
                        std::vector<TaskId> writer_of) {
    place_cluster_ = std::move(task_cluster);
    cluster_count_ = cluster_count;
    accessors_of_ = std::move(accessors_of);
    writer_of_ = std::move(writer_of);
    placement_enabled_ = cluster_count_ > 1;
  }
  bool placement_enabled() const { return placement_enabled_; }

  /// The core's live view of each task's cluster (-1 unplaced).
  std::int32_t cluster_of(TaskId t) const {
    if (t < 0 || static_cast<std::size_t>(t) >= place_cluster_.size())
      return -1;
    return place_cluster_[static_cast<std::size_t>(t)];
  }

  std::int32_t object_count() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  std::int32_t shards(std::int32_t o) const {
    return shards_[static_cast<std::size_t>(o)];
  }
  bool adaptive(std::int32_t o) const {
    return adaptive_[static_cast<std::size_t>(o)];
  }
  /// True when at least one object opted into adaptation — callers skip
  /// the whole epoch machinery otherwise.
  bool any_adaptive() const {
    for (bool a : adaptive_)
      if (a) return true;
    return false;
  }

  const ControllerConfig& config() const { return cfg_; }

 private:
  /// Record + apply one migration unless the task already sits on the
  /// target cluster or was already moved this epoch.
  void move_task(TaskId t, std::int32_t target, std::int32_t object,
                 PlacementMove::Why why, std::vector<PlacementMove>* out) {
    if (t < 0 || static_cast<std::size_t>(t) >= place_cluster_.size()) return;
    const auto ti = static_cast<std::size_t>(t);
    if (moved_this_epoch_[ti]) return;
    if (place_cluster_[ti] == target) return;
    moved_this_epoch_[ti] = true;
    place_cluster_[ti] = target;
    out->push_back({0, t, target, object, why});
  }

  ControllerConfig cfg_;
  std::vector<ObjectSpec> specs_;
  std::vector<std::int32_t> shards_;       ///< current applied stripe count
  std::vector<std::int32_t> floor_;        ///< demotion floor (spec.shards)
  std::vector<bool> adaptive_;
  std::vector<std::int32_t> idle_epochs_;  ///< consecutive quiet epochs
  ContentionMatrix prev_;
  // Placement epoch-action state (enable_placement).
  bool placement_enabled_ = false;
  std::int32_t cluster_count_ = 1;
  std::vector<std::int32_t> place_cluster_;  ///< task -> cluster (-1 none)
  std::vector<std::vector<TaskId>> accessors_of_;
  std::vector<TaskId> writer_of_;
  std::vector<bool> moved_this_epoch_;
};

/// The executor-side wrapper: a thread that steps the core every epoch
/// against a live SharedObjectSet, applies shard promotions/demotions
/// to it, and feeds the conflict vector into the executor's dispatch
/// steering.  Start it after the objects exist, stop it before tearing
/// them down (run_on_executor does both when any ObjectSpec has adapt
/// set).  Decision times are wall ns since start().
class ContentionController {
 public:
  /// `objects` and `executor` must outlive the controller; `executor`
  /// may be null (shard adaptation only, no dispatch steering).
  ContentionController(ControllerConfig cfg, SharedObjectSet* objects,
                       rt::Executor* executor);
  ~ContentionController();  ///< stops the thread if still running

  ContentionController(const ContentionController&) = delete;
  ContentionController& operator=(const ContentionController&) = delete;

  void start();
  void stop();  ///< idempotent; joins the epoch thread

  /// Turn on placement epoch actions (call before start()): the core
  /// decides task migrations (writer-home / spread-hot-group) and the
  /// epoch thread applies them live — re-routing scoped-object
  /// instances via SharedObjectSet::set_task_instance and re-pinning
  /// dispatch via Executor::set_placement.  The object topology is read
  /// off `ts` (ObjectTopology).
  void enable_placement(sched::Placement placement,
                        std::int32_t cluster_count, const TaskSet& ts);

  /// Shard-count changes applied so far (snapshot; thread-safe).
  std::vector<ShardDecision> decisions() const;
  /// Placement migrations applied so far (snapshot; thread-safe).
  std::vector<PlacementMove> placement_moves() const;
  std::int64_t epochs() const;  ///< epochs stepped so far

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lfrt::runtime
