// Regression: Executor memory is bounded by peak backlog, not job
// count.
//
// The pre-service executor kept every JobRec (and a per-job worker
// thread handle) in its jobs map until shutdown — a 100k-job run held
// 100k records live at once.  Records are now recycled through a free
// list at finalize, so the slab high-water mark tracks the largest
// number of jobs simultaneously in flight.  This pushes 100k jobs
// through in bounded-size waves and pins both gauges.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rt/executor.hpp"
#include "sched/rua.hpp"

namespace lfrt {
namespace {

TEST(ExecutorReclaim, LiveRecordsBoundedOverHundredThousandJobs) {
  constexpr std::int64_t kTotalJobs = 100'000;
  constexpr std::size_t kWave = 500;  // in-flight ceiling we enforce

  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  rt::ExecutorConfig cfg;
  cfg.cpu_count = 4;
  cfg.retain_job_records = false;  // service shape: aggregates only
  rt::Executor ex(rua, cfg);

  const auto tuf = std::shared_ptr<const Tuf>(make_step_tuf(1.0, sec(5)));
  std::vector<rt::RtJob> wave(kWave);
  std::int64_t submitted = 0;
  while (submitted < kTotalJobs) {
    for (auto& j : wave) {
      j = rt::RtJob{};
      j.tuf = tuf;
      j.expected_exec = usec(1);
      j.body = [](rt::JobContext&) {};  // complete at first opportunity
    }
    ASSERT_EQ(ex.submit_batch(wave.data(), wave.size()), kWave);
    submitted += static_cast<std::int64_t>(kWave);
    ex.drain();  // wave fully terminal before the next one
  }

  const rt::ExecutorReport rep = ex.shutdown();
  EXPECT_EQ(rep.submitted, kTotalJobs);
  EXPECT_EQ(rep.counted_jobs, rep.submitted + rep.rejected);
  EXPECT_EQ(rep.completed + rep.aborted, rep.submitted);

  // The memory-growth regression proper: in-flight records never
  // exceeded one wave.  Records are free-listed and the slab grows only
  // when every record is live, so the peak is also the slab size — it
  // did not accumulate 100k entries.
  EXPECT_LE(rep.peak_live_records, static_cast<std::int64_t>(kWave));
  EXPECT_LT(rep.peak_live_records, kTotalJobs / 20);  // 100k-retention gone
  EXPECT_TRUE(rep.jobs.empty());  // retain_job_records=false kept it flat

  // Pooled workers: thread count tracked the wave's parallelism, not
  // the job count (the old model started 100k threads here).
  EXPECT_LT(rep.worker_pool_peak, static_cast<std::int64_t>(kWave));
  EXPECT_GT(rep.completed, 0);
}

}  // namespace
}  // namespace lfrt
