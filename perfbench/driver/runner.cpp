#include "runner.h"
#include "reference.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <exception>

namespace perfbench {

namespace {

struct rusage self_usage() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double peak_rss_mib() {
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;  // KiB
}

double minor_faults() { return static_cast<double>(self_usage().ru_minflt); }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) {
    if (out.size() > 1) out += ",";
    out += num(x);
  }
  return out + "]";
}

std::string map_json(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + num(v);
  }
  return out + "}";
}

constexpr int kReferenceReps = 7;
// Set-up runs at least kMinSetupReps times and until kSetupBudgetS seconds
// are spent; setup_s is the median.
constexpr int kMinSetupReps = 5;
constexpr double kSetupBudgetS = 1.0;
// Timed passes per kind (untraced / traced), even past the time budget.
constexpr int kMinPasses = 3;

}  // namespace

bool bit_identical(const MetricMap& a, const MetricMap& b, std::string* diff) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || std::memcmp(&v, &it->second, sizeof v) != 0) {
      if (diff)
        *diff = k + ": " + num(v) + " vs " +
                (it == b.end() ? std::string("missing") : num(it->second));
      return false;
    }
  }
  if (a.size() != b.size()) {
    if (diff) *diff = "metric sets differ";
    return false;
  }
  return true;
}

RunReport run_workload(const RunConfig& cfg) {
  RunReport rep;
  rep.workload = cfg.workload;
  rep.seed = cfg.seed;
  auto fail = [&rep](const std::string& what) {
    ++rep.failed;
    if (rep.failures.size() < 20) rep.failures.push_back(what);
  };

  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  try {
    w = make_workload(cfg.workload, cfg.seed, cfg.scale);
    Clock::time_point first = Clock::now();
    while (static_cast<int>(setups.size()) < kMinSetupReps ||
           seconds_between(first, Clock::now()) < kSetupBudgetS) {
      Clock::time_point t0 = Clock::now();
      w->setup();
      setups.push_back(seconds_between(t0, Clock::now()));
    }
  } catch (const std::exception& e) {
    ++rep.attempted;
    fail(std::string("setup: ") + e.what());
    return rep;
  }

  Tracer tracer;
  std::vector<double> untraced_wall, traced_wall, refs, wall_per_ref, faults;
  std::vector<MetricMap> layer_samples;
  double first_pass_faults = 0;
  bool have_model = false;
  Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    // Pass 0 warms up (heap growth to the pass's peak, first-touch of every
    // code path): its results are checked but its time is not counted.
    const bool warmup = i == 0;
    const bool traced = cfg.trace && !warmup && i % 2 == 0;
    const bool timed = !warmup && !traced;  // feeds wall_s and wall_ref
    Tracer* tr = traced ? &tracer : nullptr;
    PassOut p;
    double wall = 0;
    {
      Span span(tr, "pass", 0, static_cast<std::uint64_t>(i));
      // The reference runs on both sides of every timed pass, so host speed
      // drift during the pass shows in both.
      double ref = timed ? reference_median(kReferenceReps) : 0;
      const double faults0 = minor_faults();
      Clock::time_point t0 = Clock::now();
      try {
        p = w->pass(tr, span.id());
      } catch (const std::exception& e) {
        ++p.attempted;
        p.fail(std::string("pass: ") + e.what());
      }
      wall = seconds_between(t0, Clock::now());
      if (warmup) first_pass_faults = minor_faults() - faults0;
      if (timed) {
        faults.push_back(minor_faults() - faults0);
        ref = 0.5 * (ref + reference_median(kReferenceReps));
        refs.push_back(ref);
        wall_per_ref.push_back(wall / ref);
      }
    }
    if (!warmup) (traced ? traced_wall : untraced_wall).push_back(wall);
    rep.attempted += p.attempted;
    for (const std::string& f : p.failures) fail(f);
    if (!have_model) {
      rep.model = p.model;
      have_model = true;
    } else {
      std::string diff;
      if (!bit_identical(rep.model, p.model, &diff))
        fail("pass " + std::to_string(i) + " modeled metrics drifted: " + diff);
    }
    if (traced) layer_samples.push_back(std::move(p.layer));
    const bool enough =
        static_cast<int>(untraced_wall.size()) >= kMinPasses &&
        (!cfg.trace || static_cast<int>(traced_wall.size()) >= kMinPasses);
    if (enough && seconds_between(start, Clock::now()) >= cfg.seconds) break;
  }
  rep.pass_wall = untraced_wall;
  rep.setup_wall = setups;
  rep.passes = static_cast<int>(untraced_wall.size() + traced_wall.size());
  rep.traced_passes = static_cast<int>(traced_wall.size());

  rep.e2e["wall_s"] = median(untraced_wall);
  rep.e2e["ref_s"] = median(refs);
  rep.e2e["wall_ref"] = median(wall_per_ref);
  rep.e2e["minor_faults"] = median(faults);
  rep.e2e["first_pass_minor_faults"] = first_pass_faults;
  rep.e2e["setup_s"] = median(setups);
  rep.e2e["board_s"] = rep.model.count("board_s") ? rep.model["board_s"] : 0;
  rep.e2e["peak_rss_mb"] = peak_rss_mib();

  if (cfg.trace) {
    // Per-layer values: the median over traced passes of each metric.
    std::map<std::string, std::vector<double>> samples;
    for (const MetricMap& m : layer_samples)
      for (const auto& [k, v] : m) samples[k].push_back(v);
    for (const auto& [k, v] : samples) rep.layer[k] = median(v);
    for (const auto& [k, v] : w->setup_layer()) rep.layer[k] = v;
    rep.layer["trace.overhead_frac"] =
        median(traced_wall) / median(untraced_wall) - 1;
    rep.spans = tracer.size();
    if (!cfg.trace_out.empty() && !tracer.write_chrome_json(cfg.trace_out))
      fail("cannot write trace file " + cfg.trace_out);
  }
  return rep;
}

std::string to_json(const RunReport& r) {
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ",";
    failures += quoted(f);
  }
  failures += "]";
  return "{\"workload\":" + quoted(r.workload) +
         ",\"seed\":" + std::to_string(r.seed) +
         ",\"correct\":" + (r.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"failures\":" + failures +
         ",\"passes\":" + std::to_string(r.passes) +
         ",\"traced_passes\":" + std::to_string(r.traced_passes) +
         ",\"spans\":" + std::to_string(r.spans) +
         ",\"pass_wall\":" + list_json(r.pass_wall) +
         ",\"setup_wall\":" + list_json(r.setup_wall) +
         ",\"e2e\":" + map_json(r.e2e) + ",\"model\":" + map_json(r.model) +
         ",\"layer\":" + map_json(r.layer) + "}";
}

}  // namespace perfbench
