// perfbench: runs one benchmark workload and prints its report as one JSON
// line (perfbench/run.py builds this binary and formats the report).
//
//   perfbench --workload <fig4|jacobi|irregular|server> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//   perfbench --fig4-table    model-only CSV over the paper's full sweep,
//                             in the format `bench/fig4*_* --csv` prints
//
// Exits 1 when a correctness check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/polybench.h"
#include "runner.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "       perfbench --fig4-table\n",
               msg);
  return 2;
}

// One row per (app, size): modeled CUDA and OMPi seconds, uncalibrated.
int fig4_table() {
  std::printf("figure,app,size,cuda_s,ompi_s\n");
  char figure = 'a';
  for (const apps::AppDesc& a : apps::fig4_apps()) {
    for (int n : a.paper_sizes) {
      apps::RunOptions o;
      apps::RunResult cuda = a.fn(apps::Variant::Cuda, n, o);
      apps::RunResult ompi = a.fn(apps::Variant::Ompi, n, o);
      std::printf("4%c,%s,%d,%.6f,%.6f\n", figure, a.name, n, cuda.seconds,
                  ompi.seconds);
      std::fflush(stdout);
    }
    ++figure;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--fig4-table") return fig4_table();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
      if (!cfg.trace && std::strcmp(v, "0") != 0)
        return usage("--trace takes 0 or 1");
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
    if (end && *end != '\0') return usage(("bad number for " + a).c_str());
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& n : perfbench::workload_names())
    known = known || n == cfg.workload;
  if (!known) return usage(("unknown workload " + cfg.workload).c_str());

  perfbench::RunReport rep = perfbench::run_workload(cfg);
  std::printf("%s\n", perfbench::to_json(rep).c_str());
  return rep.correct() ? 0 : 1;
}
