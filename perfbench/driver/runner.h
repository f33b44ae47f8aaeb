// Runs one workload: timed set-ups, then passes until the time budget is
// spent, checking that every pass reproduces the first pass's modeled
// metrics bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measuring budget, after set-up
  bool trace = false;   // alternate untraced and traced passes
  Scale scale = Scale::Full;
  std::string trace_out;  // trace-event JSON path ("" = not written)
};

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // wall_s, ref_s, wall_ref (wall_s in units of ref_s), minor_faults,
  // first_pass_minor_faults, setup_s, board_s, peak_rss_mb
  MetricMap e2e;
  MetricMap model;  // every modeled metric of one pass
  MetricMap layer;  // per-layer metrics (traced runs only)
  std::vector<double> pass_wall;   // timed passes, in run order
  std::vector<double> setup_wall;  // set-ups, in run order
  int passes = 0;
  int traced_passes = 0;
  std::size_t spans = 0;

  bool correct() const { return failed == 0 && attempted > 0; }
};

RunReport run_workload(const RunConfig& cfg);

/// The report as one JSON object on one line, every number with all its
/// digits.
std::string to_json(const RunReport& r);

/// True when both maps hold the same keys with bit-identical values.
bool bit_identical(const MetricMap& a, const MetricMap& b, std::string* diff);

}  // namespace perfbench
