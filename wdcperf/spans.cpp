#include "spans.hpp"

#include <fstream>
#include <iomanip>

namespace wdcperf {

SpanLog::SpanLog(bool enabled, std::string trace_id)
    : enabled_(enabled),
      trace_id_(std::move(trace_id)),
      origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint32_t SpanLog::begin(const std::string& name, std::uint32_t parent) {
  if (!enabled_) return 0;
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_s = t;
  s.end_s = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end_s = t;
}

std::uint32_t SpanLog::record(const std::string& name, std::uint32_t parent,
                              double start_s, double end_s) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(9) << "{\"trace_id\": \"" << trace_id_
      << "\", \"spans\": [";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n  " : "\n  ") << "{\"trace_id\": \"" << trace_id_
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace wdcperf
