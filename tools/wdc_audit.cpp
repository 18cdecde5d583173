/// @file wdc_audit.cpp
/// Seeded-determinism and invariant checker.
///
/// For every requested protocol (default: all protocols and baselines) the
/// audit runs the same scenario several ways and demands bit-identical
/// metrics:
///
///   1. Two full runs under the same seed — the digests must match.
///   2. run_replications under 1 thread vs. several — the per-replication
///      digests must match element-wise (thread-count independence).
///   3. One incremental run sliced into intervals, forcing a full structural
///      audit of the event queue and the MAC between slices (in checked
///      builds an invariant trip aborts the process; see docs/ANALYSIS.md).
///   4. The sharded core (shard_cells=4) under paired same-seed runs and
///      several thread counts — all digests must match, proving
///      `shard_threads` is a pure execution knob.
///
/// It also re-checks the no-stale-read discipline: stale_serves must be zero
/// for every protocol that guarantees consistency (all but CBL).
///
/// Usage: wdc_audit [protocols=TS,UIR,…] [reps=3] [threads=4] [slices=8]
///                  [any scenario key=value …]
/// Exit status 0 iff every protocol passes every check.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "engine/digest.hpp"
#include "engine/replication.hpp"
#include "engine/simulation.hpp"
#include "proto/protocol.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wdc;

// The FNV-1a metric digest lives in engine/digest.hpp, shared with the sweep
// engine's determinism tests.
std::uint64_t digest_of(const Metrics& m) { return metrics_digest(m); }

std::vector<ProtocolKind> parse_protocols(const std::string& csv) {
  std::vector<ProtocolKind> out;
  for (const auto& tok : split(csv, ','))
    if (!trim(tok).empty())
      out.push_back(protocol_from_string(std::string(trim(tok))));
  return out;
}

struct AuditResult {
  bool pass = true;
  std::vector<std::string> failures;

  void fail(std::string what) {
    pass = false;
    failures.push_back(std::move(what));
  }
};

/// Check 1: two full runs under the same seed digest identically.
void check_paired_runs(const Scenario& sc, AuditResult& r) {
  const std::uint64_t da = digest_of(run_scenario(sc));
  const std::uint64_t db = digest_of(run_scenario(sc));
  if (da != db)
    r.fail(strfmt("paired same-seed runs diverged: %016llx vs %016llx",
                  static_cast<unsigned long long>(da),
                  static_cast<unsigned long long>(db)));
}

/// Check 2: replication results do not depend on the worker thread count.
void check_thread_independence(const Scenario& sc, unsigned reps,
                               unsigned threads, AuditResult& r) {
  const auto one = run_replications(sc, reps, 1);
  const auto many = run_replications(sc, reps, threads);
  if (one.size() != many.size()) {
    r.fail("replication count mismatch across thread counts");
    return;
  }
  for (std::size_t i = 0; i < one.size(); ++i) {
    const std::uint64_t da = digest_of(one[i]);
    const std::uint64_t db = digest_of(many[i]);
    if (da != db)
      r.fail(strfmt("replication %zu differs between 1 and %u threads", i,
                    threads));
  }
}

/// Check 3: an incremental run with forced structural audits between slices
/// must reach the same digest as the one-shot run. In a checked build any
/// internal inconsistency aborts inside audit(); in an unchecked build this
/// still validates that run()/run_until()+collect() agree.
void check_audited_slices(const Scenario& sc, unsigned slices,
                          std::uint64_t reference, AuditResult& r) {
  Simulation sim(sc);
  for (unsigned i = 1; i <= slices; ++i) {
    sim.run_until(sc.sim_time_s * static_cast<double>(i) /
                  static_cast<double>(slices));
    sim.simulator().audit();
    sim.mac().audit();
  }
  const std::uint64_t d = digest_of(sim.collect());
  if (d != reference)
    r.fail(strfmt("sliced run with audits diverged from one-shot run: "
                  "%016llx vs %016llx",
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(reference)));
}

/// Check 4: the sharded core is deterministic and thread-invariant. The
/// scenario is re-run split into `shard_cells` cells (a scenario change, so
/// its digest is its own reference — not the serial one) under paired
/// same-seed runs and several thread counts, all of which must digest
/// identically.
void check_shard_invariance(const Scenario& base, unsigned threads,
                            AuditResult& r) {
  Scenario sc = base;
  sc.shard_cells = std::min(4u, sc.num_clients);
  sc.shard_threads = 1;
  const std::uint64_t ref = digest_of(run_scenario(sc));
  if (digest_of(run_scenario(sc)) != ref) {
    r.fail("paired same-seed sharded runs diverged");
    return;
  }
  for (const std::uint32_t shard_threads : {2u, std::max(1u, threads)}) {
    sc.shard_threads = shard_threads;
    const std::uint64_t d = digest_of(run_scenario(sc));
    if (d != ref)
      r.fail(strfmt("sharded run diverged at shard_threads=%u: "
                    "%016llx vs %016llx",
                    shard_threads, static_cast<unsigned long long>(d),
                    static_cast<unsigned long long>(ref)));
  }
}

/// Check 5: no protocol that guarantees consistency ever serves stale data.
void check_consistency(const Scenario& sc, const Metrics& m, AuditResult& r) {
  if (sc.protocol != ProtocolKind::kCbl && m.stale_serves != 0)
    r.fail(strfmt("%llu stale serves under a consistency-guaranteeing "
                  "protocol",
                  static_cast<unsigned long long>(m.stale_serves)));
}

int run_audit(Config& cfg) {
  const auto reps = cfg.get_count("reps", 3u);
  const auto threads = cfg.get_count("threads", 4u);
  const auto slices = std::max(1u, cfg.get_count("slices", 8u));
  std::vector<ProtocolKind> protocols =
      parse_protocols(cfg.get_string("protocols", ""));
  if (protocols.empty())
    protocols.assign(std::begin(kAllProtocolsAndBaselines),
                     std::end(kAllProtocolsAndBaselines));

  const Scenario base = Scenario::from_config(cfg);
  cfg.require_all_used();
  std::cout << "wdc_audit: " << protocols.size() << " protocols, seed "
            << base.seed << ", " << base.sim_time_s << "s scenario, " << reps
            << " replications, " << threads << " threads, " << slices
            << " slices\n\n";

  bool all_pass = true;
  for (const auto p : protocols) {
    Scenario sc = base;
    sc.protocol = p;

    AuditResult r;
    const Metrics ref = run_scenario(sc);
    const std::uint64_t ref_digest = digest_of(ref);
    check_consistency(sc, ref, r);
    check_paired_runs(sc, r);
    check_thread_independence(sc, reps, threads, r);
    check_audited_slices(sc, slices, ref_digest, r);
    check_shard_invariance(sc, threads, r);

    std::cout << strfmt("%-5s digest %016llx  %s\n",
                        std::string(to_string(p)).c_str(),
                        static_cast<unsigned long long>(ref_digest),
                        r.pass ? "OK" : "FAIL");
    for (const auto& why : r.failures) std::cout << "      - " << why << "\n";
    all_pass = all_pass && r.pass;
  }

  std::cout << "\n" << (all_pass ? "AUDIT PASS" : "AUDIT FAIL") << "\n";
  return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Config cfg;
    cfg.load_args(argc, argv);
    return run_audit(cfg);
  } catch (const std::exception& e) {
    std::cerr << "wdc_audit: " << e.what() << "\n";
    return 2;
  }
}
