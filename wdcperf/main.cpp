/// @file main.cpp
/// wdcperf: runs one benchmark workload and prints one JSON object with the
/// host fingerprint, every iteration's timings and check results, the
/// end-to-end aggregates and (with --trace 1) the per-layer metrics.
///
///   wdcperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--scratch <dir>] [--spans <file>]
///   wdcperf --workload <name> --seed <n> --reference 1
///
/// The second form prints only {"digest": …} from reference_digest(), the
/// value pin.py records for that seed.
///
/// run.py builds this program, checks the digests it reports against the
/// pinned ones and formats the benchmark's result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace wdcperf;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string json_str(const std::string& s) {
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

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Peak RSS of the harness or of its largest reaped child (the serve daemon).
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

int usage() {
  std::cerr << "usage: wdcperf --workload <";
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    std::cerr << (i ? "|" : "") << workload_names()[i];
  std::cerr << "> --seed <n> (--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--spans <file>] | --reference 1)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string spans_path;
  bool have_workload = false;
  bool reference = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--scratch") {
      opts.scratch_dir = val;
    } else if (key == "--spans") {
      spans_path = val;
    } else if (key == "--reference") {
      reference = val == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 ||
      std::find(workload_names().begin(), workload_names().end(),
                opts.workload) == workload_names().end())
    return usage();

  if (reference) {
    try {
      std::cout << "{\"digest\": "
                << json_str(reference_digest(opts.workload, opts.seed))
                << "}" << std::endl;
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "wdcperf: " << e.what() << "\n";
      return 1;
    }
  }

  const std::string trace_id = opts.workload + "-" +
                               std::to_string(opts.seed) + "-" +
                               std::to_string(::getpid());
  SpanLog log(opts.trace, trace_id);
  Report r;
  try {
    r = run_workload(opts, log);
  } catch (const std::exception& e) {
    std::cerr << "wdcperf: " << e.what() << "\n";
    return 1;
  }
  if (opts.trace && !spans_path.empty() && !log.write(spans_path)) {
    std::cerr << "wdcperf: cannot write " << spans_path << "\n";
    return 1;
  }

  std::vector<double> run_s, cpu_s, ops_per_s, op_p50_ms, op_p95_ms,
      op_p99_ms, traced_run_s;
  std::size_t op_samples = 0;
  for (const Iteration& it : r.iterations) {
    if (it.traced) {
      traced_run_s.push_back(it.run_s);
      continue;
    }
    run_s.push_back(it.run_s);
    cpu_s.push_back(it.cpu_s);
    ops_per_s.push_back(it.run_s > 0.0 ? it.ops / it.run_s : 0.0);
    op_p50_ms.push_back(it.op_p50_ms);
    op_p95_ms.push_back(it.op_p95_ms);
    op_p99_ms.push_back(it.op_p99_ms);
    op_samples += it.op_samples;
  }

  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\": " << json_str(opts.workload)
      << ", \"seed\": " << opts.seed << ", \"trace\": " << (opts.trace ? 1 : 0)
      << ", \"trace_id\": " << json_str(trace_id);
  out << ", \"host\": {\"cpu_model\": " << json_str(cpu_model())
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": " << json_str(WDCPERF_COMPILER)
      << ", \"build_type\": " << json_str(WDCPERF_BUILD_TYPE)
      << ", \"WDC_TRACE\": " << WDCPERF_GATE_TRACE
      << ", \"WDC_FAULTS\": " << WDCPERF_GATE_FAULTS
      << ", \"WDC_PERF_COUNTERS\": " << WDCPERF_GATE_PERF_COUNTERS << "}";
  out << ", \"setup_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    out << (i ? ", " : "") << r.setup_s[i];
  out << "], \"iterations\": [";
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const Iteration& it = r.iterations[i];
    out << (i ? ", " : "") << "{\"traced\": " << (it.traced ? "true" : "false")
        << ", \"run_s\": " << it.run_s << ", \"cpu_s\": " << it.cpu_s
        << ", \"ops\": " << it.ops << ", \"op_p50_ms\": " << it.op_p50_ms
        << ", \"op_p95_ms\": " << it.op_p95_ms
        << ", \"op_p99_ms\": " << it.op_p99_ms << ", \"digest\": " << json_str(it.digest)
        << ", \"attempted\": " << it.attempted << ", \"failed\": " << it.failed
        << ", \"failures\": [";
    for (std::size_t k = 0; k < it.failures.size(); ++k)
      out << (k ? ", " : "") << json_str(it.failures[k]);
    out << "]}";
  }
  out << "], \"op_samples\": " << op_samples;
  out << ", \"end_to_end\": {\"setup_s\": " << median(r.setup_s)
      << ", \"run_s\": " << median(run_s) << ", \"cpu_s\": " << median(cpu_s)
      << ", \"peak_rss_mb\": " << peak_rss_mb()
      << ", \"ops_per_s\": " << median(ops_per_s)
      << ", \"op_p50_ms\": " << median(op_p50_ms)
      << ", \"op_p95_ms\": " << median(op_p95_ms)
      << ", \"op_p99_ms\": " << median(op_p99_ms) << "}";
  out << ", \"layers\": {";
  if (opts.trace) {
    r.layers["trace.overhead_s"] = median(traced_run_s) - median(run_s);
    r.layers["trace.spans"] = static_cast<double>(log.spans().size());
  }
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    out << (first ? "" : ", ") << json_str(name) << ": " << value;
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
