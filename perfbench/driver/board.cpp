#include "board.h"

#include "cudadrv/cuda.h"
#include "hostrt/runtime.h"

namespace perfbench {

void BoardCounters::read(int devices) {
  for (int d = 0; d < devices; ++d) {
    if (hostrt::OffloadQueue* q = hostrt::Runtime::instance().queue(d)) {
      totals += q->totals();
      offloads += static_cast<double>(q->task_count());
    }
    const jetsim::Device& dev = cudadrv::cuSimDevice(d);
    launches += static_cast<double>(dev.stats().launches);
    blocks += static_cast<double>(dev.stats().blocks_run);
    threads += static_cast<double>(dev.stats().threads_run);
    for (const jetsim::LaunchAccount& a : dev.launch_log()) {
      compute_s += a.compute_s;
      memory_s += a.memory_s;
      atomic_cycles += a.atomic_serial_cycles;
      if (a.compute_s >= a.memory_s) compute_bound += 1;
    }
    log_len += static_cast<double>(dev.launch_log().size());
  }
}

void BoardCounters::report(double host_s, MetricMap& layer) const {
  const hostrt::OffloadStats& t = totals;
  layer["hostrt.offloads"] = offloads;
  layer["hostrt.load_board_s"] = t.load_s;
  layer["hostrt.prepare_board_s"] = t.prepare_s;
  layer["hostrt.exec_board_s"] = t.exec_s;
  layer["hostrt.h2d_board_s"] = t.h2d_s;
  layer["hostrt.d2h_board_s"] = t.d2h_s;
  layer["hostrt.queued_board_s"] = t.queued_s;
  double lookups =
      static_cast<double>(t.alloc_cache_hits + t.alloc_cache_misses);
  layer["hostrt.alloc_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(t.alloc_cache_hits) / lookups : 0;
  layer["hostrt.coalesced_transfers"] =
      static_cast<double>(t.coalesced_transfers);
  layer["hostrt.bytes_staged"] = static_cast<double>(t.bytes_staged);
  layer["hostrt.maps_downgraded"] = static_cast<double>(t.maps_downgraded);
  layer["hostrt.maps_elided"] = static_cast<double>(t.maps_elided);
  layer["sim.launches"] = launches;
  layer["sim.blocks_run"] = blocks;
  layer["sim.threads_run"] = threads;
  layer["sim.ns_per_thread"] = threads > 0 ? host_s / threads * 1e9 : 0;
  layer["sim.compute_board_s"] = compute_s;
  layer["sim.memory_board_s"] = memory_s;
  layer["sim.atomic_serial_cycles"] = atomic_cycles;
  layer["sim.compute_bound_frac"] = log_len > 0 ? compute_bound / log_len : 0;
  layer["sim.launch_log_len"] = log_len;
}

}  // namespace perfbench
