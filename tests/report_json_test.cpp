// runtime::to_json / from_json — RunReport serialization.
//
// The contract under test: from_json(to_json(r)) reproduces every
// serialized field bit-exactly (doubles included — they are printed
// with max_digits10), the contention heatmap survives the trip, and
// malformed or structurally inconsistent input throws instead of
// producing a silently wrong report.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/report_json.hpp"
#include "sched/rua.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace lfrt::runtime {
namespace {

RunReport sample_report() {
  RunReport r;
  r.counted_jobs = 7;
  r.completed = 5;
  r.aborted = 2;
  r.accrued_utility = 100.0 / 3.0;  // non-terminating binary fraction
  r.max_possible_utility = 123.456789;
  r.dispatches = 11;
  r.sched_invocations = 13;
  r.sched_ops = 170;
  r.total_retries = 4;
  r.total_blockings = 2;
  r.total_preemptions = 3;
  r.total_backoff_spins = 21;

  Job j;
  j.id = 42;
  j.task = 3;
  j.arrival = msec(1);
  j.critical_abs = msec(5);
  j.state = JobState::kCompleted;
  j.exec_actual = usec(800);
  j.retries = 4;
  j.blockings = 2;
  j.preemptions = 3;
  j.backoff_spins = 9;
  j.completion = msec(2);
  r.jobs.push_back(j);
  j.id = 43;
  j.state = JobState::kAborted;
  j.completion = msec(6);
  r.jobs.push_back(j);

  r.contention = ContentionMatrix(2, 3);
  r.contention.at(0, 1) = {10, 4, 0};
  r.contention.at(1, 2) = {6, 0, 2};
  r.contention.shard_counts = {4, 1};  // the sharding dimension
  return r;
}

RunReport service_report() {
  RunReport r = sample_report();
  r.rejected = 9;
  r.degraded = 4;
  r.sojourn_p50_ns = 2'048;
  r.sojourn_p99_ns = 65'536;
  r.sojourn_p999_ns = 524'288;
  r.ingest_p50_ns = 256;
  r.ingest_p99_ns = 256;  // equal neighbours are legal (monotone, not strict)
  r.ingest_p999_ns = 8'192;
  return r;
}

TEST(ReportJson, HandBuiltRoundTrip) {
  const RunReport r = sample_report();
  const RunReport back = from_json(to_json(r));

  EXPECT_EQ(back.counted_jobs, r.counted_jobs);
  EXPECT_EQ(back.completed, r.completed);
  EXPECT_EQ(back.aborted, r.aborted);
  EXPECT_EQ(back.accrued_utility, r.accrued_utility);  // bit-exact
  EXPECT_EQ(back.max_possible_utility, r.max_possible_utility);
  EXPECT_EQ(back.dispatches, r.dispatches);
  EXPECT_EQ(back.sched_invocations, r.sched_invocations);
  EXPECT_EQ(back.sched_ops, r.sched_ops);
  EXPECT_EQ(back.total_retries, r.total_retries);
  EXPECT_EQ(back.total_blockings, r.total_blockings);
  EXPECT_EQ(back.total_preemptions, r.total_preemptions);
  EXPECT_EQ(back.total_backoff_spins, r.total_backoff_spins);
  EXPECT_EQ(back.aur(), r.aur());

  ASSERT_EQ(back.jobs.size(), r.jobs.size());
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const Job& a = r.jobs[i];
    const Job& b = back.jobs[i];
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.task, a.task);
    EXPECT_EQ(b.arrival, a.arrival);
    EXPECT_EQ(b.critical_abs, a.critical_abs);
    EXPECT_EQ(b.state, a.state);
    EXPECT_EQ(b.exec_actual, a.exec_actual);
    EXPECT_EQ(b.retries, a.retries);
    EXPECT_EQ(b.blockings, a.blockings);
    EXPECT_EQ(b.preemptions, a.preemptions);
    EXPECT_EQ(b.backoff_spins, a.backoff_spins);
    EXPECT_EQ(b.completion, a.completion);
  }
  // operator== covers shard_counts: the sharding dimension round-trips.
  EXPECT_EQ(back.contention, r.contention);
}

/// Edge-of-representation doubles must survive the trip bit-exactly,
/// not merely compare equal: EXPECT_EQ(-0.0, 0.0) passes, so the sign
/// bit and the exact mantissa are asserted through bit_cast.
TEST(ReportJson, NegativeZeroAndSubnormalsRoundTripBitExact) {
  RunReport r = sample_report();
  r.accrued_utility = -0.0;
  r.max_possible_utility = 1e-300;
  RunReport back = from_json(to_json(r));
  EXPECT_TRUE(std::signbit(back.accrued_utility));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.accrued_utility),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.max_possible_utility),
            std::bit_cast<std::uint64_t>(1e-300));

  // The smallest positive double (one denormal bit) and a negative
  // subnormal: %.17g must carry enough digits to reproduce them.
  r.accrued_utility = std::numeric_limits<double>::denorm_min();
  r.max_possible_utility = -4.9406564584124654e-316;
  back = from_json(to_json(r));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.accrued_utility),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.max_possible_utility),
            std::bit_cast<std::uint64_t>(-4.9406564584124654e-316));
}

/// Reports written before backoff accounting and sharding existed still
/// parse: the new fields default to zero / empty.
TEST(ReportJson, LegacyReportWithoutNewFieldsParses) {
  const RunReport back = from_json(
      "{\"counted_jobs\": 1, \"total_retries\": 2,"
      " \"jobs\": [{\"id\": 0, \"state\": 0, \"retries\": 2}],"
      " \"contention\": {\"objects\": 1, \"tasks\": 1,"
      " \"cells\": [[3,2,0]]}}");
  EXPECT_EQ(back.total_backoff_spins, 0);
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.jobs[0].backoff_spins, 0);
  EXPECT_TRUE(back.contention.shard_counts.empty());
  EXPECT_EQ(back.contention.at(0, 0).ops, 3);
}

/// Service-mode fields (PR 7): admission tallies and latency
/// percentiles round-trip; reports without them parse with zero
/// defaults; reports with all of them zero serialize without the keys
/// at all (pre-service reports stay byte-identical).
TEST(ReportJson, ServiceFieldsRoundTrip) {
  const RunReport r = service_report();
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"rejected\":9"), std::string::npos);
  const RunReport back = from_json(json);
  EXPECT_EQ(back.rejected, r.rejected);
  EXPECT_EQ(back.degraded, r.degraded);
  EXPECT_EQ(back.sojourn_p50_ns, r.sojourn_p50_ns);
  EXPECT_EQ(back.sojourn_p99_ns, r.sojourn_p99_ns);
  EXPECT_EQ(back.sojourn_p999_ns, r.sojourn_p999_ns);
  EXPECT_EQ(back.ingest_p50_ns, r.ingest_p50_ns);
  EXPECT_EQ(back.ingest_p99_ns, r.ingest_p99_ns);
  EXPECT_EQ(back.ingest_p999_ns, r.ingest_p999_ns);

  // Legacy report: fields absent -> zero, and not emitted when zero.
  const RunReport legacy = from_json("{\"counted_jobs\": 3}");
  EXPECT_EQ(legacy.rejected, 0);
  EXPECT_EQ(legacy.degraded, 0);
  EXPECT_EQ(legacy.sojourn_p999_ns, 0);
  EXPECT_EQ(legacy.ingest_p999_ns, 0);
  EXPECT_EQ(to_json(sample_report()).find("rejected"), std::string::npos);
}

TEST(ReportJson, ServiceFieldValidationThrows) {
  // Negative admission tallies.
  EXPECT_THROW(from_json("{\"rejected\": -1}"), std::runtime_error);
  EXPECT_THROW(from_json("{\"degraded\": -2}"), std::runtime_error);
  // Negative percentiles.
  EXPECT_THROW(from_json("{\"sojourn_p50_ns\": -5}"), std::runtime_error);
  EXPECT_THROW(from_json("{\"ingest_p999_ns\": -1}"), std::runtime_error);
  // Non-monotone percentile chains (p50 <= p99 <= p999).
  EXPECT_THROW(
      from_json("{\"sojourn_p50_ns\": 100, \"sojourn_p99_ns\": 50,"
                " \"sojourn_p999_ns\": 200}"),
      std::runtime_error);
  EXPECT_THROW(
      from_json("{\"ingest_p50_ns\": 1, \"ingest_p99_ns\": 300,"
                " \"ingest_p999_ns\": 200}"),
      std::runtime_error);
  // A monotone chain with an absent p50 (defaults 0) is fine.
  EXPECT_EQ(from_json("{\"sojourn_p99_ns\": 5, \"sojourn_p999_ns\": 9}")
                .sojourn_p999_ns,
            9);
}

TEST(ReportJson, EmptyReportRoundTrips) {
  const RunReport back = from_json(to_json(RunReport{}));
  EXPECT_EQ(back.counted_jobs, 0);
  EXPECT_TRUE(back.jobs.empty());
  EXPECT_TRUE(back.contention.empty());
}

/// A real simulator report (heatmap included) survives the trip — the
/// integration-level witness benches rely on.
TEST(ReportJson, SimulatorReportRoundTrips) {
  workload::WorkloadSpec spec;
  spec.task_count = 4;
  spec.object_count = 2;
  spec.accesses_per_job = 2;
  spec.load = 0.5;
  spec.seed = 5;
  const TaskSet ts = workload::make_task_set(spec);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  sim::SimConfig cfg;
  cfg.mode = sim::ShareMode::kLockFree;
  cfg.lockfree_access_time = usec(1);
  cfg.horizon = msec(50);
  sim::Simulator sim(ts, rua, cfg);
  const sim::SimReport rep = sim.run();
  ASSERT_GT(rep.counted_jobs, 0);
  ASSERT_FALSE(rep.contention.empty());

  const RunReport back = from_json(to_json(rep));
  EXPECT_EQ(back.counted_jobs, rep.counted_jobs);
  EXPECT_EQ(back.completed, rep.completed);
  EXPECT_EQ(back.accrued_utility, rep.accrued_utility);
  EXPECT_EQ(back.total_retries, rep.total_retries);
  EXPECT_EQ(back.jobs.size(), rep.jobs.size());
  EXPECT_EQ(back.contention, rep.contention);
}

TEST(ReportJson, MalformedInputThrows) {
  EXPECT_THROW(from_json(""), std::runtime_error);
  EXPECT_THROW(from_json("{"), std::runtime_error);
  EXPECT_THROW(from_json("[]"), std::runtime_error);          // not an object
  EXPECT_THROW(from_json("{\"jobs\": 3}"), std::runtime_error);
  EXPECT_THROW(from_json("{\"counted_jobs\": }"), std::runtime_error);
  EXPECT_THROW(from_json("{} trailing"), std::runtime_error);
}

TEST(ReportJson, InconsistentContentionThrows) {
  // 2x3 matrix must carry exactly 6 cells.
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": 2, \"tasks\": 3, "
                "\"cells\": [[1,2,3]]}}"),
      std::runtime_error);
  // Cells must be 3-number arrays.
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": 1, \"tasks\": 1, "
                "\"cells\": [[1,2]]}}"),
      std::runtime_error);
  // Negative dimensions are rejected.
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": -1, \"tasks\": 1, "
                "\"cells\": []}}"),
      std::runtime_error);
  // Out-of-range job state is rejected.
  EXPECT_THROW(from_json("{\"jobs\": [{\"id\": 1, \"state\": 99}]}"),
               std::runtime_error);
  // shard_counts must be an array of one number per object.
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": 1, \"tasks\": 1, "
                "\"cells\": [[1,2,3]], \"shard_counts\": 4}}"),
      std::runtime_error);
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": 1, \"tasks\": 1, "
                "\"cells\": [[1,2,3]], \"shard_counts\": [2, 2]}}"),
      std::runtime_error);
  EXPECT_THROW(
      from_json("{\"contention\": {\"objects\": 1, \"tasks\": 1, "
                "\"cells\": [[1,2,3]], \"shard_counts\": [\"x\"]}}"),
      std::runtime_error);
}

}  // namespace
}  // namespace lfrt::runtime
