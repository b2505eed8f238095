// Theorem 3 validation: sweep the access-time ratio s/r and compare
// measured mean sojourn times under lock-free vs lock-based RUA against
// the predicted preference threshold (s/r < 2/3 sufficient when
// m_i <= n_i).
//
// The theorem bounds *worst-case* sojourns, so the empirical crossover
// (where lock-free stops being faster on average) must lie at an s/r no
// smaller than the analytic sufficient threshold.
//
// Part two re-locates the crossover *per lock mechanism*: each lock in
// the zoo gets its calibrated cost shape (base + per-contender slope —
// ticket steep, anderson flatter, mcs near-flat) rescaled into the
// sweep's regime, and the same sweep finds where lock-free stops
// winning against that particular mechanism.  The headline artifact is
// the crossover table: mechanisms with a steeper contention slope push
// their crossover right (lock-free stays preferable longer), exactly
// the refinement the flat-scalar Theorem 3 cannot express.
#include <cmath>

#include "analysis/bounds.hpp"
#include "common.hpp"
#include "runtime/calibrate.hpp"

int main(int argc, char** argv) {
  using namespace lfrt;
  bench::init(argc, argv);
  bench::print_header("Theorem 3", "sojourn crossover vs s/r threshold");

  workload::WorkloadSpec spec;
  spec.task_count = 6;
  spec.object_count = 3;
  spec.accesses_per_job = 2;
  spec.avg_exec = usec(300);
  spec.load = 0.9;
  spec.seed = 21;
  const TaskSet ts = workload::make_task_set(spec);

  double min_threshold = 1.0;
  for (const auto& t : ts.tasks)
    min_threshold =
        std::min(min_threshold, analysis::lockfree_ratio_threshold(ts, t.id));
  std::cout << "analytic sufficient threshold (min over tasks): "
            << Table::num(min_threshold, 3) << "\n\n";

  const Time r = usec(40);
  Table table({"s/r", "mean sojourn LF (us)", "mean sojourn LB (us)",
               "LF faster", "predicted sufficient"});

  double crossover = -1.0;
  for (const double ratio : {0.1, 0.25, 0.5, 0.66, 0.8, 1.0, 1.5, 2.0}) {
    const Time s = static_cast<Time>(static_cast<double>(r) * ratio);
    bench::RunParams rp;
    rp.r = r;
    rp.s = s;
    rp.repeats = 5;

    auto mean_sojourn = [&](sim::ShareMode mode) {
      rp.mode = mode;
      // Repeats fan out over the bench pool; the sojourn statistics are
      // reduced in repeat order, so the mean is thread-count-invariant.
      const auto reports = exp::parallel_map(
          bench::pool(), rp.repeats, [&](std::int64_t rep) {
            sim::SimConfig cfg;
            cfg.mode = mode;
            cfg.lock_access_time = r;
            cfg.lockfree_access_time = s;
            cfg.sched_ns_per_op = rp.ns_per_op;
            Time max_window = 0;
            for (const auto& t : ts.tasks)
              max_window = std::max(max_window, t.arrival.window);
            cfg.horizon = max_window * 150;
            sim::Simulator sim(ts, bench::scheduler_for(mode), cfg);
            sim.seed_arrivals(500 + static_cast<std::uint64_t>(rep));
            return sim.run();
          });
      RunningStats st;
      for (const auto& rep_out : reports)
        for (const Job& j : rep_out.jobs)
          if (j.state == JobState::kCompleted)
            st.add(to_usec(j.sojourn()));
      return st.mean();
    };

    const double lf = mean_sojourn(sim::ShareMode::kLockFree);
    const double lb = mean_sojourn(sim::ShareMode::kLockBased);
    const bool lf_faster = lf < lb;
    if (!lf_faster && crossover < 0) crossover = ratio;
    table.add_row({Table::num(ratio, 2), Table::num(lf, 1),
                   Table::num(lb, 1), lf_faster ? "yes" : "no",
                   ratio < min_threshold ? "yes" : "-"});
  }
  table.print();
  std::cout << "\nempirical crossover s/r: "
            << (crossover < 0 ? std::string("none (lock-free always faster)")
                              : Table::num(crossover, 2))
            << "  (must be >= analytic sufficient threshold "
            << Table::num(min_threshold, 3) << ")\n";

  // ---- part two: per-impl crossover with calibrated cost shapes ------
  const runtime::AccessCalibration cal = runtime::calibrate(300);
  std::cout << "\nper-impl crossover — ";
  bench::print_cost_model(cal);
  std::cout << "\n";

  // The calibrated cells sit at this host's nanosecond structure-op
  // scale — negligible next to 300 us jobs.  To relocate the crossover
  // we keep each mechanism's *shape* (slope relative to base) and
  // rescale the cell so its base lands at the sweep's magnitude.
  const auto rescale = [](runtime::AccessCost c, Time target_base) {
    const double f = static_cast<double>(target_base) /
                     static_cast<double>(std::max<Time>(1, c.base));
    const auto mul = [f](Time t) {
      return static_cast<Time>(
          std::llround(static_cast<double>(t) * f));
    };
    c.per_contender = mul(c.per_contender);
    c.per_segment = mul(c.per_segment);
    c.retry_penalty = mul(c.retry_penalty);
    c.base = target_base;
    return c;
  };

  const runtime::ObjectKind kind = runtime::ObjectKind::kQueue;
  const auto mean_sojourn_model =
      [&](sim::ShareMode mode, runtime::ObjectImpl impl,
          const runtime::CostModel& model) {
        const auto specs =
            runtime::uniform_objects(ts.object_count, kind, impl);
        const auto reports = exp::parallel_map(
            bench::pool(), 3, [&](std::int64_t rep) {
              sim::SimConfig cfg;
              cfg.mode = mode;
              cfg.cost_model = model;
              cfg.objects = specs;
              cfg.sched_ns_per_op = bench::kDefaultNsPerOp;
              Time max_window = 0;
              for (const auto& t : ts.tasks)
                max_window = std::max(max_window, t.arrival.window);
              cfg.horizon = max_window * 150;
              sim::Simulator sim(ts, bench::scheduler_for(mode), cfg);
              sim.seed_arrivals(700 + static_cast<std::uint64_t>(rep));
              return sim.run();
            });
        RunningStats st;
        for (const auto& rep_out : reports)
          for (const Job& j : rep_out.jobs)
            if (j.state == JobState::kCompleted)
              st.add(to_usec(j.sojourn()));
        return st.mean();
      };

  Table itable({"impl", "base (ns)", "slope (ns/ctd)", "s_eff/r_eff",
                "LF wins (cal)", "crossover s/r", "analytic thr"});
  for (const runtime::ObjectImpl impl : runtime::lock_impls()) {
    const runtime::AccessCost cell = cal.model.at(kind, impl);

    // At the raw calibrated costs: Theorem 3 per task against this
    // mechanism, plus the mean effective ratio it compares.
    int wins = 0;
    double ratio_sum = 0.0;
    for (const auto& t : ts.tasks) {
      if (analysis::lockfree_wins_cost(ts, t.id, kind, impl, cal.model))
        ++wins;
      const Time s_eff = analysis::effective_access_cost(
          ts, t.id, kind, runtime::ObjectImpl::kLockFree, cal.model);
      const Time r_eff =
          analysis::effective_access_cost(ts, t.id, kind, impl, cal.model);
      ratio_sum += static_cast<double>(s_eff) / static_cast<double>(r_eff);
    }
    const double cal_ratio =
        ratio_sum / static_cast<double>(ts.tasks.size());

    // Rescaled sweep: lock cell base pinned at r, lock-free cell base
    // swept as ratio * r, both keeping their calibrated shapes.
    runtime::CostModel lb_model = cal.model;
    lb_model.at(kind, impl) = rescale(cell, r);
    double cross = -1.0;
    for (const double ratio : {0.1, 0.25, 0.5, 0.66, 0.8, 1.0, 1.5, 2.0}) {
      runtime::CostModel lf_model = cal.model;
      lf_model.at(kind, runtime::ObjectImpl::kLockFree) = rescale(
          cal.model.at(kind, runtime::ObjectImpl::kLockFree),
          static_cast<Time>(static_cast<double>(r) * ratio));
      const double lf = mean_sojourn_model(sim::ShareMode::kLockFree,
                                           runtime::ObjectImpl::kLockFree,
                                           lf_model);
      const double lb =
          mean_sojourn_model(sim::ShareMode::kLockBased, impl, lb_model);
      if (lf >= lb) {
        cross = ratio;
        break;
      }
    }
    itable.add_row(
        {runtime::to_string(impl), std::to_string(cell.base),
         std::to_string(cell.per_contender), Table::num(cal_ratio, 3),
         std::to_string(wins) + "/" + std::to_string(ts.tasks.size()),
         cross < 0 ? std::string("none") : Table::num(cross, 2),
         Table::num(min_threshold, 3)});
  }
  itable.print();
  std::cout << "\nper-impl crossover table: lock-free stays preferable "
               "below each mechanism's crossover; steeper contention "
               "slopes push the crossover right.\n";
  return 0;
}
