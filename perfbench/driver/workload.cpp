#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig4", "jacobi",
                                                 "irregular", "server"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale) {
  if (name == "fig4") return make_fig4(seed, scale);
  if (name == "jacobi") return make_jacobi(seed, scale);
  if (name == "irregular") return make_irregular(seed, scale);
  if (name == "server") return make_server(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  SeedRng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(v.size() - 1)));
  return v[idx];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
