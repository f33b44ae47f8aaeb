// Counters of the boards the driver owns (jacobi, server): hostrt queue
// totals and simulator stats. apps::run_* resets its own board before it
// returns, so fig4 and irregular have none to read.
#pragma once

#include "hostrt/module.h"
#include "workload.h"

namespace perfbench {

struct BoardCounters {
  hostrt::OffloadStats totals;
  double offloads = 0, launches = 0, blocks = 0, threads = 0;
  double compute_s = 0, memory_s = 0, atomic_cycles = 0, compute_bound = 0,
         log_len = 0;

  /// Adds devices [0, devices) of the current board; call before the board
  /// is reset.
  void read(int devices);
  /// Fills the hostrt.* and sim.* per-layer metrics. `host_s` is the host
  /// time of the calls that ran the kernels.
  void report(double host_s, MetricMap& layer) const;
};

}  // namespace perfbench
