#include "runtime/report_json.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/json_min.hpp"

namespace lfrt::runtime {
namespace {

using jsonmin::find;
using jsonmin::get_double;
using jsonmin::get_int;
using jsonmin::JsonArray;
using jsonmin::JsonObject;
using jsonmin::JsonValue;
using jsonmin::Parser;

// ---- writer ----------------------------------------------------------

void append_double(std::string& out, double v) {
  // max_digits10 so the decimal text reproduces the exact binary value.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

void append_job(std::string& out, const Job& j) {
  out += R"({"id":)";
  append_int(out, j.id);
  out += R"(,"task":)";
  append_int(out, j.task);
  out += R"(,"arrival":)";
  append_int(out, j.arrival);
  out += R"(,"critical_abs":)";
  append_int(out, j.critical_abs);
  out += R"(,"state":)";
  append_int(out, static_cast<std::int64_t>(j.state));
  out += R"(,"exec_actual":)";
  append_int(out, j.exec_actual);
  out += R"(,"retries":)";
  append_int(out, j.retries);
  out += R"(,"blockings":)";
  append_int(out, j.blockings);
  out += R"(,"preemptions":)";
  append_int(out, j.preemptions);
  out += R"(,"backoff_spins":)";
  append_int(out, j.backoff_spins);
  out += R"(,"completion":)";
  append_int(out, j.completion);
  out += '}';
}

}  // namespace

std::string to_json(const RunReport& rep) {
  std::string out;
  out.reserve(256 + rep.jobs.size() * 176 + rep.contention.cells.size() * 24);
  out += R"({"counted_jobs":)";
  append_int(out, rep.counted_jobs);
  out += R"(,"completed":)";
  append_int(out, rep.completed);
  out += R"(,"aborted":)";
  append_int(out, rep.aborted);
  out += R"(,"accrued_utility":)";
  append_double(out, rep.accrued_utility);
  out += R"(,"max_possible_utility":)";
  append_double(out, rep.max_possible_utility);
  out += R"(,"dispatches":)";
  append_int(out, rep.dispatches);
  out += R"(,"sched_invocations":)";
  append_int(out, rep.sched_invocations);
  out += R"(,"sched_ops":)";
  append_int(out, rep.sched_ops);
  out += R"(,"total_retries":)";
  append_int(out, rep.total_retries);
  out += R"(,"total_blockings":)";
  append_int(out, rep.total_blockings);
  out += R"(,"total_preemptions":)";
  append_int(out, rep.total_preemptions);
  out += R"(,"total_backoff_spins":)";
  append_int(out, rep.total_backoff_spins);
  // Service-mode admission + percentile fields (PR 7).  Emitted only
  // when any is non-zero so pre-service reports stay byte-identical;
  // parsed optionally with zero defaults.
  if (rep.rejected != 0 || rep.degraded != 0 || rep.sojourn_p50_ns != 0 ||
      rep.sojourn_p99_ns != 0 || rep.sojourn_p999_ns != 0 ||
      rep.ingest_p50_ns != 0 || rep.ingest_p99_ns != 0 ||
      rep.ingest_p999_ns != 0) {
    out += R"(,"rejected":)";
    append_int(out, rep.rejected);
    out += R"(,"degraded":)";
    append_int(out, rep.degraded);
    out += R"(,"sojourn_p50_ns":)";
    append_int(out, rep.sojourn_p50_ns);
    out += R"(,"sojourn_p99_ns":)";
    append_int(out, rep.sojourn_p99_ns);
    out += R"(,"sojourn_p999_ns":)";
    append_int(out, rep.sojourn_p999_ns);
    out += R"(,"ingest_p50_ns":)";
    append_int(out, rep.ingest_p50_ns);
    out += R"(,"ingest_p99_ns":)";
    append_int(out, rep.ingest_p99_ns);
    out += R"(,"ingest_p999_ns":)";
    append_int(out, rep.ingest_p999_ns);
  }
  // Per-CPU-slot breakdowns (PR 10).  Emitted only when filled so
  // legacy reports stay byte-identical; parsed optionally.
  if (!rep.cpu_busy.empty()) {
    out += R"(,"cpu_busy":[)";
    for (std::size_t i = 0; i < rep.cpu_busy.size(); ++i) {
      if (i > 0) out += ',';
      append_int(out, rep.cpu_busy[i]);
    }
    out += ']';
  }
  if (!rep.cpu_jobs.empty()) {
    out += R"(,"cpu_jobs":[)";
    for (std::size_t i = 0; i < rep.cpu_jobs.size(); ++i) {
      if (i > 0) out += ',';
      append_int(out, rep.cpu_jobs[i]);
    }
    out += ']';
  }
  out += R"(,"jobs":[)";
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    if (i > 0) out += ',';
    append_job(out, rep.jobs[i]);
  }
  out += R"(],"contention":{"objects":)";
  append_int(out, rep.contention.objects);
  out += R"(,"tasks":)";
  append_int(out, rep.contention.tasks);
  out += R"(,"cells":[)";
  for (std::size_t i = 0; i < rep.contention.cells.size(); ++i) {
    const ContentionCell& c = rep.contention.cells[i];
    if (i > 0) out += ',';
    out += '[';
    append_int(out, c.ops);
    out += ',';
    append_int(out, c.retries);
    out += ',';
    append_int(out, c.blockings);
    out += ']';
  }
  out += ']';
  // Shard dimension: one live stripe count per object, filled by both
  // substrates whenever any object carries a sharded structure.  Absent
  // from legacy reports, so emit only when present and parse optionally.
  if (!rep.contention.shard_counts.empty()) {
    out += R"(,"shard_counts":[)";
    for (std::size_t i = 0; i < rep.contention.shard_counts.size(); ++i) {
      if (i > 0) out += ',';
      append_int(out, rep.contention.shard_counts[i]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

RunReport from_json(std::string_view json) {
  const JsonValue root = Parser(json).parse();
  const JsonObject* o = root.as_object();
  if (o == nullptr)
    throw std::runtime_error("report_json: top level must be an object");

  RunReport rep;
  rep.counted_jobs = get_int(*o, "counted_jobs");
  rep.completed = get_int(*o, "completed");
  rep.aborted = get_int(*o, "aborted");
  rep.accrued_utility = get_double(*o, "accrued_utility");
  rep.max_possible_utility = get_double(*o, "max_possible_utility");
  rep.dispatches = get_int(*o, "dispatches");
  rep.sched_invocations = get_int(*o, "sched_invocations");
  rep.sched_ops = get_int(*o, "sched_ops");
  rep.total_retries = get_int(*o, "total_retries");
  rep.total_blockings = get_int(*o, "total_blockings");
  rep.total_preemptions = get_int(*o, "total_preemptions");
  rep.total_backoff_spins = get_int(*o, "total_backoff_spins");

  // Service-mode fields: absent in legacy reports (defaults stay 0).
  rep.rejected = get_int(*o, "rejected", 0);
  rep.degraded = get_int(*o, "degraded", 0);
  rep.sojourn_p50_ns = get_int(*o, "sojourn_p50_ns", 0);
  rep.sojourn_p99_ns = get_int(*o, "sojourn_p99_ns", 0);
  rep.sojourn_p999_ns = get_int(*o, "sojourn_p999_ns", 0);
  rep.ingest_p50_ns = get_int(*o, "ingest_p50_ns", 0);
  rep.ingest_p99_ns = get_int(*o, "ingest_p99_ns", 0);
  rep.ingest_p999_ns = get_int(*o, "ingest_p999_ns", 0);
  if (rep.rejected < 0 || rep.degraded < 0)
    throw std::runtime_error(
        "report_json: rejected/degraded must be non-negative");
  const auto check_pcts = [](std::int64_t p50, std::int64_t p99,
                             std::int64_t p999, const char* what) {
    if (p50 < 0 || p99 < 0 || p999 < 0)
      throw std::runtime_error(std::string("report_json: negative ") + what +
                               " percentile");
    if (p50 > p99 || p99 > p999)
      throw std::runtime_error(std::string("report_json: ") + what +
                               " percentiles must be monotone "
                               "(p50 <= p99 <= p999)");
  };
  check_pcts(rep.sojourn_p50_ns, rep.sojourn_p99_ns, rep.sojourn_p999_ns,
             "sojourn");
  check_pcts(rep.ingest_p50_ns, rep.ingest_p99_ns, rep.ingest_p999_ns,
             "ingest");

  // Per-CPU-slot breakdowns: absent in legacy reports (stay empty).
  const auto parse_int_array = [&](const char* key,
                                   auto& dst) {
    const JsonValue* v = find(*o, key);
    if (v == nullptr) return;
    const JsonArray* arr = v->as_array();
    if (arr == nullptr)
      throw std::runtime_error(std::string("report_json: ") + key +
                               " must be an array");
    dst.reserve(arr->size());
    for (const JsonValue& e : *arr) {
      if (!e.is_number())
        throw std::runtime_error(std::string("report_json: ") + key +
                                 " entries must be numbers");
      dst.push_back(e.as_int());
    }
  };
  parse_int_array("cpu_busy", rep.cpu_busy);
  parse_int_array("cpu_jobs", rep.cpu_jobs);

  if (const JsonValue* jobs = find(*o, "jobs")) {
    const JsonArray* arr = jobs->as_array();
    if (arr == nullptr)
      throw std::runtime_error("report_json: jobs must be an array");
    rep.jobs.reserve(arr->size());
    for (const JsonValue& jv : *arr) {
      const JsonObject* jo = jv.as_object();
      if (jo == nullptr)
        throw std::runtime_error("report_json: job entries must be objects");
      Job j;
      j.id = get_int(*jo, "id", kNoJob);
      j.task = static_cast<TaskId>(get_int(*jo, "task", -1));
      j.arrival = get_int(*jo, "arrival");
      j.critical_abs = get_int(*jo, "critical_abs");
      const std::int64_t state = get_int(*jo, "state");
      if (state < 0 || state > static_cast<std::int64_t>(JobState::kAborted))
        throw std::runtime_error("report_json: job state out of range");
      j.state = static_cast<JobState>(state);
      j.exec_actual = get_int(*jo, "exec_actual");
      j.retries = get_int(*jo, "retries");
      j.blockings = get_int(*jo, "blockings");
      j.preemptions = get_int(*jo, "preemptions");
      j.backoff_spins = get_int(*jo, "backoff_spins");
      j.completion = get_int(*jo, "completion", -1);
      rep.jobs.push_back(std::move(j));
    }
  }

  if (const JsonValue* cont = find(*o, "contention")) {
    const JsonObject* co = cont->as_object();
    if (co == nullptr)
      throw std::runtime_error("report_json: contention must be an object");
    const auto objects = static_cast<std::int32_t>(get_int(*co, "objects"));
    const auto tasks = static_cast<std::int32_t>(get_int(*co, "tasks"));
    if (objects < 0 || tasks < 0)
      throw std::runtime_error("report_json: negative contention dims");
    ContentionMatrix m(objects, tasks);
    const JsonValue* cells = find(*co, "cells");
    const JsonArray* arr = cells != nullptr ? cells->as_array() : nullptr;
    if (arr == nullptr)
      throw std::runtime_error("report_json: contention.cells must be an "
                               "array");
    if (arr->size() != m.cells.size())
      throw std::runtime_error(
          "report_json: cells length != objects * tasks");
    for (std::size_t i = 0; i < arr->size(); ++i) {
      const JsonArray* triple = (*arr)[i].as_array();
      if (triple == nullptr || triple->size() != 3 ||
          !(*triple)[0].is_number() || !(*triple)[1].is_number() ||
          !(*triple)[2].is_number())
        throw std::runtime_error(
            "report_json: each cell must be [ops, retries, blockings]");
      m.cells[i].ops = (*triple)[0].as_int();
      m.cells[i].retries = (*triple)[1].as_int();
      m.cells[i].blockings = (*triple)[2].as_int();
    }
    if (const JsonValue* sc = find(*co, "shard_counts")) {
      const JsonArray* sarr = sc->as_array();
      if (sarr == nullptr)
        throw std::runtime_error(
            "report_json: shard_counts must be an array");
      if (sarr->size() != static_cast<std::size_t>(objects))
        throw std::runtime_error(
            "report_json: shard_counts length != objects");
      m.shard_counts.reserve(sarr->size());
      for (const JsonValue& v : *sarr) {
        if (!v.is_number())
          throw std::runtime_error(
              "report_json: shard_counts entries must be numbers");
        m.shard_counts.push_back(static_cast<std::int32_t>(v.as_int()));
      }
    }
    rep.contention = std::move(m);
  }

  return rep;
}

}  // namespace lfrt::runtime
