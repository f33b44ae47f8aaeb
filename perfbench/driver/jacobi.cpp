// The `jacobi` workload: the heat solver of examples/jacobi_heat.cpp,
// compiled with ompi::compile and run through kernelvm::Interp twice per
// pass — naive per-construct maps, then a resident `target data` region.
//
// The source differs from the example in three ways: the initial condition
// (edge temperature and an interior hot spot) comes from the seed through
// solve()'s arguments; the sweep kernel writes every cell of `next`
// (interior cells by the stencil, boundary cells copied), so no result
// depends on device memory a kernel never wrote; and the grid is smaller,
// so a pass takes about a second of host time.
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cudadrv/cuda.h"
#include "hostrt/runtime.h"
#include "kernelvm/interp.h"
#include "board.h"
#include "workload.h"

namespace perfbench {

namespace {

const char* kSolverTemplate = R"(
float grid[66 * 66];
float next[66 * 66];

void sweep(int n)
{
  #pragma omp target teams distribute parallel for collapse(2) \
          map(to: grid[0:(n+2)*(n+2)]) map(from: next[0:(n+2)*(n+2)]) \
          num_threads(128)
  for (int i = 0; i <= n + 1; i++)
    for (int j = 0; j <= n + 1; j++) {
      if (i == 0 || i == n + 1 || j == 0 || j == n + 1)
        next[i * (n + 2) + j] = grid[i * (n + 2) + j];
      else
        next[i * (n + 2) + j] = 0.25f * (grid[(i - 1) * (n + 2) + j] +
                                         grid[(i + 1) * (n + 2) + j] +
                                         grid[i * (n + 2) + j - 1] +
                                         grid[i * (n + 2) + j + 1]);
    }
}

void copy_back(int n)
{
  #pragma omp target teams distribute parallel for \
          map(to: next[0:(n+2)*(n+2)]) map(from: grid[0:(n+2)*(n+2)]) \
          num_threads(128)
  for (int c = 0; c < (n + 2) * (n + 2); c++)
    grid[c] = next[c];
}

double solve(int n, int sweeps, float edge, float spot, int si, int sj)
{
  for (int c = 0; c < (n + 2) * (n + 2); c++) grid[c] = 0.0f;
  for (int j = 0; j < n + 2; j++) grid[j] = edge;  /* hot top edge */
  grid[si * (n + 2) + sj] = spot;                  /* interior hot spot */

  double t0 = omp_get_wtime();
  DATA_OPEN
  for (int s = 0; s < sweeps; s++) {
    sweep(n);
    copy_back(n);
  }
  DATA_CLOSE
  return omp_get_wtime() - t0;
}

float probe(int n) { return grid[(n / 2) * (n + 2) + n / 2]; }
)";

std::string solver_source(bool resident) {
  std::string src = kSolverTemplate;
  std::string open, close;
  if (resident) {
    open =
        "#pragma omp target data map(tofrom: grid[0:(n+2)*(n+2)]) "
        "map(alloc: next[0:(n+2)*(n+2)])\n  {";
    close = "}";
  }
  src.replace(src.find("DATA_OPEN"), 9, open);
  src.replace(src.find("DATA_CLOSE"), 10, close);
  return src;
}

struct HeatInput {
  int n = 0, sweeps = 0;
  float edge = 0, spot = 0;
  int si = 0, sj = 0;
};

/// The same solver on the host, in the interpreter's arithmetic: float
/// storage, the four-point sum evaluated left to right in double.
float reference_center(const HeatInput& in) {
  const int w = in.n + 2;
  std::vector<float> grid(static_cast<std::size_t>(w * w), 0.0f), next(grid);
  auto at = [w](std::vector<float>& g, int i, int j) -> float& {
    return g[static_cast<std::size_t>(i * w + j)];
  };
  for (int j = 0; j < w; ++j) at(grid, 0, j) = in.edge;
  at(grid, in.si, in.sj) = in.spot;
  for (int s = 0; s < in.sweeps; ++s) {
    for (int i = 0; i < w; ++i)
      for (int j = 0; j < w; ++j) {
        if (i == 0 || i == w - 1 || j == 0 || j == w - 1) {
          at(next, i, j) = at(grid, i, j);
          continue;
        }
        double sum = static_cast<double>(at(grid, i - 1, j)) +
                     static_cast<double>(at(grid, i + 1, j));
        sum += static_cast<double>(at(grid, i, j - 1));
        sum += static_cast<double>(at(grid, i, j + 1));
        at(next, i, j) = static_cast<float>(0.25 * sum);
      }
    grid = next;
  }
  return at(grid, in.n / 2, in.n / 2);
}

struct Variant {
  std::string name;  // "naive" or "resident"
  // Heap-held: the interpreter keeps references into both.
  std::unique_ptr<ompi::Arena> arena;
  std::unique_ptr<ompi::CompileOutput> out;
  std::unique_ptr<kernelvm::Interp> vm;
};

class JacobiWorkload : public Workload {
 public:
  JacobiWorkload(std::uint64_t seed, Scale scale) {
    SeedRng rng(seed);
    in_.n = scale == Scale::Tiny ? 8 : 32;
    in_.sweeps = scale == Scale::Tiny ? 4 : 24;
    in_.edge = 50.0f + static_cast<float>(rng.below(100));
    in_.spot = 200.0f + static_cast<float>(rng.below(800));
    // The hot spot sits within two cells of the probed center, so the
    // probe reads a value the sweeps actually moved.
    in_.si = in_.n / 2 - 2 + static_cast<int>(rng.below(5));
    in_.sj = in_.n / 2 - 2 + static_cast<int>(rng.below(5));
    expected_center_ = reference_center(in_);
  }

  void setup() override {
    variants_.clear();
    hostrt::Runtime::reset();
    cudadrv::BinaryRegistry::instance().clear();
    double compile_s = 0, install_s = 0, kernels = 0, code_bytes = 0;
    for (bool resident : {false, true}) {
      Variant v;
      v.name = resident ? "resident" : "naive";
      v.arena = std::make_unique<ompi::Arena>();
      ompi::CompileOptions options;
      options.unit_name = "perfbench_jacobi_" + v.name;
      Clock::time_point t0 = Clock::now();
      v.out = std::make_unique<ompi::CompileOutput>(
          ompi::compile(solver_source(resident), options, *v.arena));
      Clock::time_point t1 = Clock::now();
      if (!v.out->ok)
        throw std::runtime_error("jacobi: compile failed:\n" +
                                 v.out->diagnostics);
      v.vm = std::make_unique<kernelvm::Interp>(*v.out);
      v.vm->install_binaries();
      Clock::time_point t2 = Clock::now();
      compile_s += seconds_between(t0, t1);
      install_s += seconds_between(t1, t2);
      kernels += static_cast<double>(v.out->kernels.size());
      for (const ompi::KernelFileText& k : v.out->kernel_files)
        code_bytes += static_cast<double>(k.code.size());
      // Warm-up offload: one sweep on a cold board.
      hostrt::Runtime::reset();
      v.vm->call_host("solve", args(1));
      variants_.push_back(std::move(v));
    }
    compile_s_.push_back(compile_s);
    install_s_.push_back(install_s);
    kernels_ = kernels;
    code_bytes_ = code_bytes;
  }

  MetricMap setup_layer() const override {
    return {{"compiler.compile_s", median(compile_s_)},
            {"compiler.kernels", kernels_},
            {"compiler.kernel_code_bytes", code_bytes_},
            {"kernelvm.install_s", median(install_s_)}};
  }

  PassOut pass(Tracer* tracer, std::uint64_t parent) override {
    PassOut out;
    double board_s = 0, call_s = 0;
    BoardCounters board;
    std::vector<float> centers;
    std::uint64_t op = 0;
    for (Variant& v : variants_) {
      hostrt::Runtime::reset();  // every solve starts from a cold board
      ++out.attempted;
      try {
        Span solve(tracer, "kernelvm.call_host(solve)", parent, op);
        if (tracer) solve.set_args("\"variant\":\"" + v.name + "\"");
        double secs = v.vm->call_host("solve", args(in_.sweeps)).as_float();
        call_s += solve.end();
        Span probe(tracer, "kernelvm.call_host(probe)", parent, op);
        float center = static_cast<float>(
            v.vm->call_host("probe", {kernelvm::Value::of_int(in_.n)})
                .as_float());
        call_s += probe.end();
        board_s += secs;
        out.model["jacobi." + v.name + "_board_s"] = secs;
        out.model["jacobi." + v.name + "_center"] = center;
        centers.push_back(center);
      } catch (const std::exception& e) {
        out.fail("jacobi " + v.name + ": " + e.what());
        centers.push_back(-1.0f);
      }
      ++op;
      board.read(1);  // the board this solve ran on, before the next reset
    }
    hostrt::Runtime::reset();
    for (std::size_t i = 0; i < centers.size(); ++i)
      if (std::memcmp(&centers[i], &expected_center_, sizeof(float)) != 0)
        out.fail("jacobi " + variants_[i].name + ": center " +
                 std::to_string(centers[i]) + " != host reference " +
                 std::to_string(expected_center_));
    out.model["board_s"] = board_s;
    out.model["jacobi.reference_center"] = expected_center_;
    if (!tracer) return out;
    out.layer["kernelvm.call_s"] = call_s;
    out.layer["kernelvm.sim_threads"] = board.threads;
    out.layer["kernelvm.ns_per_sim_thread"] =
        board.threads > 0 ? call_s / board.threads * 1e9 : 0;
    board.report(call_s, out.layer);
    return out;
  }

 private:
  std::vector<kernelvm::Value> args(int sweeps) const {
    return {kernelvm::Value::of_int(in_.n), kernelvm::Value::of_int(sweeps),
            kernelvm::Value::of_float(in_.edge),
            kernelvm::Value::of_float(in_.spot),
            kernelvm::Value::of_int(in_.si), kernelvm::Value::of_int(in_.sj)};
  }

  HeatInput in_;
  float expected_center_ = 0;
  std::vector<Variant> variants_;
  std::vector<double> compile_s_, install_s_;
  double kernels_ = 0, code_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_jacobi(std::uint64_t seed, Scale scale) {
  return std::make_unique<JacobiWorkload>(seed, scale);
}

}  // namespace perfbench
