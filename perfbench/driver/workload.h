// The benchmark's workloads. Each one owns its inputs (generated from the
// run's seed), performs a timed set-up, and runs identical passes: every
// pass yields the same modeled metrics, which the runner checks bit for
// bit, while the host wall time of a pass is what the benchmark measures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

using MetricMap = std::map<std::string, double>;

struct PassOut {
  MetricMap model;  // modeled board metrics: identical on every pass
  MetricMap layer;  // per-layer metrics, filled only by traced passes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything a user pays before the first timed operation: board reset,
  /// binary install (and for jacobi compilation), tenant registration and
  /// a warm-up offload. Run several times; the last set-up stays live for
  /// the passes.
  virtual void setup() = 0;
  /// One pass over the workload's operations. `tracer` is null in untraced
  /// passes; `parent` is the id of the enclosing pass span.
  virtual PassOut pass(Tracer* tracer, std::uint64_t parent) = 0;
  /// Per-layer metrics measured during set-up (e.g. compile time).
  virtual MetricMap setup_layer() const { return {}; }
};

/// Sizes: the benchmark's own, or tiny ones for the determinism test.
enum class Scale { Full, Tiny };

std::unique_ptr<Workload> make_fig4(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_irregular(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_jacobi(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_server(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale);
const std::vector<std::string>& workload_names();

// --- helpers shared by the workloads ----------------------------------------

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same inputs on every platform.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

double median(std::vector<double> v);
/// Nearest-rank quantile over the sorted samples, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

}  // namespace perfbench
