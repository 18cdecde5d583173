#ifndef WDCPERF_SPANS_HPP
#define WDCPERF_SPANS_HPP

/// @file spans.hpp
/// In-memory span log for traced benchmark runs. Spans are recorded only by
/// the benchmark, around its calls into the simulator's layers; the program
/// under test is never instrumented. Every span of one workload run carries
/// the log's trace id, and the log is written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace wdcperf {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent
  std::string name;
  double start_s = 0.0;  ///< seconds since the log was created
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

class SpanLog {
 public:
  /// A disabled log records nothing: begin() returns 0 and end() ignores it.
  SpanLog(bool enabled, std::string trace_id);

  bool enabled() const { return enabled_; }

  /// Open a span; thread-safe. Returns its id (0 when disabled).
  std::uint32_t begin(const std::string& name, std::uint32_t parent = 0);
  /// Close span `id`; thread-safe.
  void end(std::uint32_t id);
  /// Record an already-measured interval in log-relative seconds.
  std::uint32_t record(const std::string& name, std::uint32_t parent,
                       double start_s, double end_s);
  /// Seconds since the log was created (the span clock).
  double now() const;

  /// Snapshot of the spans recorded so far.
  std::vector<Span> spans() const;
  /// JSON document of every span. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::string trace_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; id = index + 1
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint32_t parent = 0)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

}  // namespace wdcperf

#endif  // WDCPERF_SPANS_HPP
