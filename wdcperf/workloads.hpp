#ifndef WDCPERF_WORKLOADS_HPP
#define WDCPERF_WORKLOADS_HPP

/// @file workloads.hpp
/// The three benchmark workloads. Each drives the simulator only through its
/// public API, times the calls it makes from outside, checks the outputs, and
/// (in traced iterations) records spans around every call into a layer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace wdcperf {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget; at least one iteration runs
  bool trace = false;     ///< add traced iterations and derive layer metrics
  std::string scratch_dir = ".";  ///< sockets of the serve workload
};

/// One execution of the workload's timed phase.
struct Iteration {
  bool traced = false;
  double run_s = 0.0;  ///< host wall seconds of the timed phase
  double cpu_s = 0.0;  ///< process user+system CPU over the timed phase
  double ops = 0.0;    ///< units of work completed (see README)
  double op_p50_ms = 0.0;  ///< per-op host time quantiles of this iteration
  double op_p95_ms = 0.0;
  double op_p99_ms = 0.0;
  std::size_t op_samples = 0;
  std::string digest;  ///< metrics digest, hex; empty for serve_loop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
};

struct Report {
  std::vector<double> setup_s;  ///< one sample per set-up
  std::vector<Iteration> iterations;
  /// Per-layer metrics of the last traced iteration (trace mode only).
  std::map<std::string, double> layers;
};

/// Linear-interpolation quantile of `v` (0 for an empty sample).
double quantile(std::vector<double> v, double q);

/// Digest of a simulation workload's result at `seed`, computed through a
/// different path than the benchmark's own: a one-call run and a serial sweep.
/// These are the values pinned in digests.json.
/// Throws std::invalid_argument for serve_loop or an unknown name.
std::string reference_digest(const std::string& workload, std::uint64_t seed);

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Run `opts.workload`; throws std::invalid_argument for an unknown name.
Report run_workload(const RunOptions& opts, SpanLog& log);

}  // namespace wdcperf

#endif  // WDCPERF_WORKLOADS_HPP
