// Host wall-clock spans recorded by the benchmark driver around its calls
// into each layer's public API. Spans live in memory and are written once,
// at the end of a traced run, as Chrome trace-event JSON (opens offline in
// Perfetto or chrome://tracing).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t op = 0;      // the driver operation the span belongs to
  int tid = 0;               // 0: main thread, k: client thread k
  std::string args;          // extra JSON members ("" or "\"k\":v,...")
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  void record(SpanRecord r);
  std::size_t size() const;

  /// Writes every recorded span as a trace-event JSON file; false when the
  /// file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. With a null tracer it records nothing and end() returns 0,
/// so untraced runs pay no clock reads.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t parent,
       std::uint64_t op, int tid = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  void set_args(std::string args) { args_ = std::move(args); }
  /// Closes the span (idempotent) and returns its duration in seconds.
  double end();

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t op_;
  int tid_;
  std::string args_;
  Clock::time_point start_;
  double seconds_ = 0;
  bool open_ = true;
};

}  // namespace perfbench
