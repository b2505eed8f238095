#include "exp/thread_pool.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "support/check.hpp"
#include "support/cpus.hpp"

namespace lfrt::exp {

namespace {

/// Parse a positive integer; 0 on anything else.
int parse_threads(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == nullptr || *end != '\0' || v < 1 || v > 4096) return 0;
  return static_cast<int>(v);
}

}  // namespace

int default_threads() {
  if (const int n = parse_threads(std::getenv("LFRT_THREADS")); n > 0)
    return n;
  return support::usable_cpus();
}

int threads_from_args(int argc, const char* const* argv) {
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--threads=", 10) == 0) {
      if (const int n = parse_threads(a + 10); n > 0) threads = n;
    } else if (std::strcmp(a, "--threads") == 0 && i + 1 < argc) {
      if (const int n = parse_threads(argv[i + 1]); n > 0) threads = n;
      ++i;
    }
  }
  return threads > 0 ? threads : default_threads();
}

ThreadPool::ThreadPool(int threads) {
  LFRT_CHECK_MSG(threads >= 1, "thread pool needs at least one thread");
  size_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain() {
  // Claim-next-index loop shared by workers and the caller.  The first
  // body exception parks the index counter at the end, cancelling the
  // indices nobody has claimed yet.
  const auto* body = body_;
  const std::int64_t n = batch_size_;
  for (;;) {
    const std::int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      (*body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      next_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t)>& body) {
  if (n <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LFRT_CHECK_MSG(!in_batch_, "ThreadPool::parallel_for is not reentrant");
    in_batch_ = true;
    body_ = &body;
    batch_size_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<int>(workers_.size());
    ++generation_;
    error_ = nullptr;
  }
  work_cv_.notify_all();

  drain();  // the caller is one of the pool's threads

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  in_batch_ = false;
  body_ = nullptr;
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  std::int64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace lfrt::exp
