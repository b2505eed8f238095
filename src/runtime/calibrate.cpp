#include "runtime/calibrate.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "runtime/json_min.hpp"
#include "runtime/shared_object.hpp"

namespace lfrt::runtime {
namespace {

// The build flavour a measurement was taken under.  Sanitizer
// instrumentation and the optimizer change every cell, so an entry a
// sanitized build wrote must not price an optimized one (and back).
constexpr const char* kBuildFlavour =
#if defined(__SANITIZE_ADDRESS__)
    "asan";
#elif defined(__SANITIZE_THREAD__)
    "tsan";
#elif defined(__OPTIMIZE__)
    "optimized";
#else
    "unoptimized";
#endif

// One cached measurement.  Entries are keyed by (host, cpus, samples,
// flavour): cell costs are a property of the machine, the sample budget
// and the build, not of the workload shape, so distinct benches of one
// build on one host share a hit.
struct CacheEntry {
  std::string host;
  std::int64_t cpus = 0;
  std::int64_t samples = 0;
  std::string flavour;
  CostModel model;

  bool same_key(const CacheEntry& o) const {
    return host == o.host && cpus == o.cpus && samples == o.samples &&
           flavour == o.flavour;
  }
};

// Cache degradation is warned about exactly once per process: a bench
// sweeping dozens of calibrate() calls should not repeat the same
// message, and a missing cache is a degraded mode, not an error.
std::atomic<bool> warned_no_cache_location{false};
std::atomic<bool> warned_unwritable_cache{false};

void warn_once(std::atomic<bool>& flag, const std::string& msg) {
  if (!flag.exchange(true, std::memory_order_relaxed))
    std::cerr << "lfrt: warning: " << msg << "\n";
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] != '\0' ? std::string(buf) : std::string("unknown");
}

std::int64_t cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::int64_t>(n);
}

std::vector<CacheEntry> load_cache(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<CacheEntry> entries;
  try {
    const jsonmin::JsonValue root = jsonmin::Parser(buf.str()).parse();
    const jsonmin::JsonObject* o = root.as_object();
    if (o == nullptr) return {};
    // Schema gate: the pre-zoo flat format had no "schema" key, and any
    // other version means a different entry shape — both read as an
    // empty cache, so the caller silently re-measures and overwrites.
    if (jsonmin::get_int(*o, "schema") != kCalibrationCacheSchema) return {};
    const jsonmin::JsonValue* ev = jsonmin::find(*o, "entries");
    const jsonmin::JsonArray* arr = ev != nullptr ? ev->as_array() : nullptr;
    if (arr == nullptr) return {};
    for (const jsonmin::JsonValue& v : *arr) {
      const jsonmin::JsonObject* eo = v.as_object();
      if (eo == nullptr) continue;
      CacheEntry e;
      const jsonmin::JsonValue* h = jsonmin::find(*eo, "host");
      const jsonmin::JsonValue* fl = jsonmin::find(*eo, "flavour");
      const std::string* hs = h != nullptr ? h->as_string() : nullptr;
      const std::string* fs = fl != nullptr ? fl->as_string() : nullptr;
      if (hs == nullptr || fs == nullptr) continue;
      e.host = *hs;
      e.flavour = *fs;
      e.cpus = jsonmin::get_int(*eo, "cpus");
      e.samples = jsonmin::get_int(*eo, "samples");
      // The per-(kind, impl) table: every cell must parse for the entry
      // to count; a partial table is dropped (a miss, re-measured)
      // rather than serving half-measured costs.
      std::size_t cells_seen = 0;
      if (const jsonmin::JsonValue* cv = jsonmin::find(*eo, "cells")) {
        if (const jsonmin::JsonArray* cells = cv->as_array()) {
          for (const jsonmin::JsonValue& c : *cells) {
            const jsonmin::JsonObject* co = c.as_object();
            if (co == nullptr) continue;
            const jsonmin::JsonValue* kv = jsonmin::find(*co, "kind");
            const jsonmin::JsonValue* iv = jsonmin::find(*co, "impl");
            const std::string* ks = kv != nullptr ? kv->as_string() : nullptr;
            const std::string* is = iv != nullptr ? iv->as_string() : nullptr;
            ObjectKind kind;
            ObjectImpl impl;
            if (ks == nullptr || is == nullptr ||
                !parse_object_kind(*ks, &kind) ||
                !parse_object_impl(*is, &impl))
              continue;
            AccessCost& cell = e.model.at(kind, impl);
            cell.base = jsonmin::get_int(*co, "base_ns");
            cell.per_contender = jsonmin::get_int(*co, "per_contender_ns");
            cell.per_segment = jsonmin::get_int(*co, "per_segment_ns");
            cell.retry_penalty = jsonmin::get_int(*co, "retry_ns");
            ++cells_seen;
          }
        }
      }
      if (cells_seen == kObjectKindCount * kObjectImplCount)
        entries.push_back(std::move(e));
    }
  } catch (const std::exception&) {
    // A corrupt cache is indistinguishable from no cache.
    return {};
  }
  return entries;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void store_cache(const std::string& path,
                 const std::vector<CacheEntry>& entries) {
  std::string out =
      "{\"schema\":" + std::to_string(kCalibrationCacheSchema) +
      ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CacheEntry& e = entries[i];
    if (i > 0) out += ',';
    out += "{\"host\":";
    append_json_string(out, e.host);
    out += ",\"cpus\":" + std::to_string(e.cpus);
    out += ",\"samples\":" + std::to_string(e.samples);
    out += ",\"flavour\":";
    append_json_string(out, e.flavour);
    out += ",\"cells\":[";
    bool first = true;
    for (ObjectKind kind : all_object_kinds()) {
      for (ObjectImpl impl : all_object_impls()) {
        const AccessCost& cell = e.model.at(kind, impl);
        if (!first) out += ',';
        first = false;
        out += "{\"kind\":\"" + to_string(kind) + "\"";
        out += ",\"impl\":\"" + to_string(impl) + "\"";
        out += ",\"base_ns\":" + std::to_string(cell.base);
        out += ",\"per_contender_ns\":" + std::to_string(cell.per_contender);
        out += ",\"per_segment_ns\":" + std::to_string(cell.per_segment);
        out += ",\"retry_ns\":" + std::to_string(cell.retry_penalty);
        out += '}';
      }
    }
    out += "]}";
  }
  out += "]}\n";
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream f(path, std::ios::trunc);
  if (f) f << out;
  f.flush();
  // Best-effort: an unwritable cache is not an error, but say so once
  // so a silently-uncached fleet is diagnosable.
  if (!f)
    warn_once(warned_unwritable_cache,
              "calibration cache '" + path +
                  "' is not writable; results will not persist");
}

/// Mean per-access wall time (ns) of `threads` workers each performing
/// `ops` accesses of `op` against one fresh SharedObject of `spec`.
/// Workers rendezvous on a start flag so the measured window is all-
/// threads-hot; with T workers in lockstep the wall time per completed
/// round IS the contended per-access latency a thread experiences.
double measure_access_ns(ObjectSpec spec, AccessOp op, int threads,
                         std::int64_t ops) {
  SharedObject obj(spec, /*queue_capacity=*/1024);
  const std::function<void()> checkpoint = [] {};
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  auto worker = [&](TaskId tid) {
    ready.fetch_add(1, std::memory_order_relaxed);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::int64_t i = 0; i < ops; ++i)
      obj.access(op, tid, static_cast<JobId>(i), checkpoint, nullptr);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, TaskId{t});
  while (ready.load(std::memory_order_relaxed) < threads - 1)
    std::this_thread::yield();
  const auto begin = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  worker(TaskId{0});
  for (std::thread& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
  return total_ns / static_cast<double>(ops);
}

Time round_ns(double ns) {
  const Time t = static_cast<Time>(std::llround(ns));
  return t < 0 ? 0 : t;
}

/// Measure one AccessCost cell per (kind, impl) combo on this host (see
/// the header comment for the method); `ops` accesses per pass.
CostModel measure_cost_model(std::int64_t ops) {
  CostModel model;
  // Contended pass capped at the core count: the zoo's locks spin, and
  // oversubscribed spinning measures the OS scheduler, not the lock.
  const int contended = static_cast<int>(
      std::min<std::int64_t>(4, cpu_count()));
  for (ObjectKind kind : all_object_kinds()) {
    for (ObjectImpl impl : all_object_impls()) {
      const ObjectSpec spec{kind, impl};
      AccessCost& cell = model.at(kind, impl);
      const double base = measure_access_ns(spec, AccessOp::kWrite, 1, ops);
      cell.base = std::max<Time>(1, round_ns(base));
      if (contended > 1) {
        const double hot =
            measure_access_ns(spec, AccessOp::kWrite, contended, ops);
        // Clamped linear fit through the two points; negative slopes are
        // measurement noise, not a lock that speeds up under load.
        cell.per_contender = round_ns(std::max(0.0, (hot - base) /
                                                        (contended - 1)));
      }
      if (kind == ObjectKind::kSnapshot) {
        // A scan's extra cost over an update, spread over the segments
        // it collects.
        const double scan = measure_access_ns(spec, AccessOp::kRead, 1, ops);
        cell.per_segment = round_ns(
            std::max(0.0, (scan - base) /
                              static_cast<double>(kSnapshotSegments)));
      }
      // retry_penalty stays 0: the simulator re-runs the whole attempt
      // on a retry, which already charges the re-execution cost.
    }
  }
  return model;
}

}  // namespace

std::string calibration_cache_path() {
  if (const char* env = std::getenv("LFRT_CALIBRATION_CACHE");
      env != nullptr && env[0] != '\0')
    return env;
  if (const char* home = std::getenv("HOME");
      home != nullptr && home[0] != '\0')
    return std::string(home) + "/.cache/lfrt_calibration.json";
  // No env override and no $HOME: there is no sane place for a
  // persistent cache.  Returning a cwd-relative name here used to
  // scatter .lfrt_calibration.json files into whatever directory the
  // process happened to run from; calibrate() now treats the empty
  // path as "run uncached" instead.
  return {};
}

AccessCalibration calibrate(std::int64_t samples,
                            const CalibrateOptions& opts) {
  const std::string path =
      opts.cache_path.empty() ? calibration_cache_path() : opts.cache_path;
  // No resolvable cache location (LFRT_CALIBRATION_CACHE and HOME both
  // unset): degrade to uncached measurement — never throw, never write
  // into the cwd.
  const bool use_cache = opts.use_cache && !path.empty();
  if (opts.use_cache && path.empty())
    warn_once(warned_no_cache_location,
              "no calibration-cache location (LFRT_CALIBRATION_CACHE and "
              "HOME unset); calibrating uncached");
  CacheEntry fresh{host_name(), cpu_count(), samples, kBuildFlavour, {}};

  if (use_cache && !opts.force) {
    for (const CacheEntry& e : load_cache(path))
      if (e.same_key(fresh)) return {e.model, samples, /*from_cache=*/true};
  }

  fresh.model = measure_cost_model(samples);
  if (use_cache) {
    std::vector<CacheEntry> entries = load_cache(path);
    std::erase_if(entries,
                  [&](const CacheEntry& e) { return e.same_key(fresh); });
    entries.push_back(fresh);
    store_cache(path, entries);
  }
  return {fresh.model, samples, /*from_cache=*/false};
}

}  // namespace lfrt::runtime
