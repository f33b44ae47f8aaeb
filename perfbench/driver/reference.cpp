#include "reference.h"

#include <ucontext.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

ucontext_t g_main_ctx, g_peer_ctx;
volatile long g_sink = 0;

void peer_loop() {
  for (;;) {
    g_sink = g_sink + 1;
    swapcontext(&g_peer_ctx, &g_main_ctx);
  }
}

}  // namespace

double reference_seconds() {
  Clock::time_point t0 = Clock::now();
  // Context switches, like the simulator's fibers.
  std::vector<char> stack(64 * 1024);
  getcontext(&g_peer_ctx);
  g_peer_ctx.uc_stack.ss_sp = stack.data();
  g_peer_ctx.uc_stack.ss_size = stack.size();
  g_peer_ctx.uc_link = nullptr;
  makecontext(&g_peer_ctx, peer_loop, 0);
  for (int s = 0; s < 3500; ++s) swapcontext(&g_main_ctx, &g_peer_ctx);
  // String-keyed lookups, like the interpreter's name resolution.
  std::vector<std::string> keys;
  std::map<std::string, long> table;
  for (int i = 0; i < 256; ++i) {
    keys.push_back("var" + std::to_string(i * 7919));
    table[keys.back()] = i;
  }
  long sum = 0;
  for (int r = 0; r < 120000; ++r) sum += table.find(keys[r % 256])->second;
  // Zero-filled heap blocks, like fiber stacks and device buffers.
  for (int k = 0; k < 100; ++k) {
    auto block = std::make_unique<std::byte[]>(256 * 1024);
    sum += static_cast<long>(block[static_cast<std::size_t>(k) * 1024]);
  }
  g_sink = g_sink + sum;
  return seconds_between(t0, Clock::now());
}

double reference_median(int reps) {
  std::vector<double> runs;
  for (int r = 0; r < reps; ++r) runs.push_back(reference_seconds());
  return median(runs);
}

}  // namespace perfbench
