// RunReport <-> JSON round-tripping.
//
// Bench targets emit reports (and their contention heatmaps) as JSON so
// scripts can diff simulator output against executor output without
// linking the repo; from_json closes the loop, letting tests prove the
// emitted artifact carries the whole report (the ROADMAP's "report
// round-tripping" item).  Self-contained: a small recursive-descent
// parser in the .cpp, no third-party JSON dependency.
//
// Schema (all fields of runtime::RunReport, spelled as in the struct):
//
//   {
//     "counted_jobs": i, "completed": i, "aborted": i,
//     "accrued_utility": f, "max_possible_utility": f,
//     "dispatches": i, "sched_invocations": i, "sched_ops": i,
//     "total_retries": i, "total_blockings": i, "total_preemptions": i,
//     "jobs": [ { "id": i, "task": i, "arrival": i, "critical_abs": i,
//                 "state": i,            // JobState as its integer value
//                 "exec_actual": i, "retries": i, "blockings": i,
//                 "preemptions": i, "completion": i } ],
//     "contention": { "objects": i, "tasks": i,
//                     "cells": [ [ops, retries, blockings], ... ] }
//   }
//
// The cells array is dense row-major [object][task] — the heatmap: row
// sums give per-object totals, column sums per-task totals.  Doubles
// are printed with max_digits10 so from_json(to_json(r)) reproduces
// them bit-exactly; per-job transient progress fields (compute_done,
// held locks, ...) are intentionally not serialized — reports carry
// terminal records only, and from_json leaves those fields default.
#pragma once

#include <string>
#include <string_view>

#include "runtime/run_report.hpp"

namespace lfrt::runtime {

/// Serialize the report (terminal per-job records + contention matrix
/// included) as a single JSON object.
std::string to_json(const RunReport& rep);

/// Parse a report serialized by to_json.  Unknown keys are ignored;
/// missing keys leave their fields default-initialized.  Throws
/// std::runtime_error on malformed JSON or mismatched structure (e.g. a
/// cells array whose length contradicts objects * tasks).
RunReport from_json(std::string_view json);

}  // namespace lfrt::runtime
