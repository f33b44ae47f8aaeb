// Determinism of the benchmark's modeled metrics, at tiny sizes:
//  - two in-process runs of each workload give bit-identical modeled
//    metrics (server included, with its concurrent client threads);
//  - a traced run gives the same modeled metrics as an untraced one;
//  - for fig4 and irregular, where the seed only reorders the cases, two
//    seeds give the same modeled metrics.
// Every run must also pass its own correctness checks. Exits nonzero on
// the first violation.
#include <cstdio>
#include <string>

#include "runner.h"

namespace {

int failures = 0;

perfbench::RunReport run(const std::string& workload, std::uint64_t seed,
                         bool trace) {
  perfbench::RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.seconds = 0;
  cfg.trace = trace;
  cfg.scale = perfbench::Scale::Tiny;
  perfbench::RunReport r = perfbench::run_workload(cfg);
  if (!r.correct()) {
    ++failures;
    std::printf("FAIL %s seed %llu trace %d: correctness checks failed\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                trace ? 1 : 0);
    for (const std::string& f : r.failures) std::printf("  %s\n", f.c_str());
  }
  return r;
}

void expect_same(const std::string& what, const perfbench::RunReport& a,
                 const perfbench::RunReport& b) {
  std::string diff;
  if (a.model.empty() || !perfbench::bit_identical(a.model, b.model, &diff)) {
    ++failures;
    std::printf("FAIL %s: %s\n", what.c_str(),
                a.model.empty() ? "no modeled metrics" : diff.c_str());
  } else {
    std::printf("ok   %s (%zu modeled metrics)\n", what.c_str(),
                a.model.size());
  }
}

}  // namespace

int main() {
  for (const std::string& w : perfbench::workload_names()) {
    perfbench::RunReport first = run(w, 7, false);
    perfbench::RunReport again = run(w, 7, false);
    perfbench::RunReport traced = run(w, 7, true);
    expect_same(w + ": repeated run", first, again);
    expect_same(w + ": traced vs untraced", first, traced);
    if (traced.layer.empty()) {
      ++failures;
      std::printf("FAIL %s: traced run reported no per-layer metrics\n",
                  w.c_str());
    }
    if (w == "fig4" || w == "irregular")
      expect_same(w + ": case order from another seed", first, run(w, 8, false));
  }
  std::printf("%s\n", failures ? "determinism: FAILED" : "determinism: ok");
  return failures ? 1 : 0;
}
