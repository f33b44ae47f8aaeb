#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::record(SpanRecord r) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(r));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"op\":%llu,\"start_ns\":%lld,\"end_ns\":%lld%s%s}}",
        i ? ",\n" : "", json_escape(s.name).c_str(), s.tid,
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.op),
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
        s.args.empty() ? "" : ",", s.args.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t parent,
           std::uint64_t op, int tid)
    : tracer_(tracer), parent_(parent), op_(op), tid_(tid) {
  if (!tracer_) {
    open_ = false;
    return;
  }
  name_ = std::move(name);
  id_ = tracer_->next_id();
  start_ = Clock::now();
}

double Span::end() {
  if (!open_) return seconds_;
  open_ = false;
  Clock::time_point stop = Clock::now();
  seconds_ = seconds_between(start_, stop);
  tracer_->record({std::move(name_), tracer_->ns_since_origin(start_),
                   tracer_->ns_since_origin(stop), id_, parent_, op_, tid_,
                   std::move(args_)});
  return seconds_;
}

}  // namespace perfbench
