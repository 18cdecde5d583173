#include "workloads.hpp"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine/digest.hpp"
#include "engine/metrics.hpp"
#include "engine/scenario.hpp"
#include "engine/simulation.hpp"
#include "engine/sweep.hpp"
#include "net/load_driver.hpp"
#include "net/serve_app.hpp"
#include "proto/protocol.hpp"
#include "sweeps/sweeps.hpp"

namespace wdcperf {
namespace {

using namespace wdc;

// --- operating points (README.md gives the reasons for each) ---

// Two of the host's four vCPUs: with every vCPU busy, the grid's wall time
// follows the neighbours on the shared host more than the simulator.
constexpr unsigned kGridThreads = 2;
constexpr unsigned kGridReps = 2;
constexpr std::uint32_t kPopulation = 100000;
constexpr std::size_t kServeConnections = 4;
constexpr std::size_t kServeInFlight = 8;
// Short loads (about 0.4 s each) give a run of 30 s some 80 iterations, so
// the median skips the ones a host stall lands in.
constexpr std::uint64_t kServeRequestsPerConn = 6250;
/// Wall cap on the serve connect and on the serve load: past it the daemon is
/// killed and the unanswered ops count as failed, instead of the benchmark
/// hanging on a daemon that fell behind simulated time.
constexpr double kServeWallCapS = 45.0;
/// setup_s is the median of at least kMinSetups set-ups and of as many as
/// fit in kMinSetupS of set-up time: milliseconds-long set-ups need many
/// samples for a steady median. The first set-up in a process is cold (fresh
/// pages); the later ones reuse the allocator's.
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupS = 0.1;

bool more_setups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kMinSetups || total < kMinSetupS;
}

// --- host clocks ---

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

/// Pin the calling thread to one CPU (best effort; ignored where refused).
/// The serve daemon and its fleet hand every op back and forth; fixed CPUs
/// keep the scheduler from stacking or migrating them, which steadies
/// serve_loop's timings.
void pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- layer metrics ---

/// Every per-layer metric, zero where the workload does not exercise the
/// layer, so each traced run reports the same names.
std::map<std::string, double> zero_layers() {
  std::map<std::string, double> l;
  for (const char* n :
       {"engine.construct_s", "engine.construct_us_per_client",
        "engine.epoch_step_s.p50", "engine.epoch_step_s.max", "engine.epochs",
        "engine.collect_s", "engine.span_gap_s", "engine.pool_busy_frac",
        "engine.grid_tail_s", "sim.events_fired",
        "sim.events_scheduled", "sim.events_cancelled", "sim.dead_skipped",
        "sim.heap_peak", "sim.sched.channel", "sim.sched.tx_done",
        "sim.sched.protocol", "sim.sched.workload", "sim.sched.default",
        "sim.sched.stats", "sim.host_ns_per_event", "mac.tx.report",
        "mac.tx.mini", "mac.tx.control", "mac.tx.item", "mac.tx.data",
        "mac.receptions_offered", "mac.data_reception_frac",
        "mac.host_ns_per_reception", "phy.report_receptions",
        "phy.report_loss_rate", "proto.queries", "proto.answered",
        "proto.uplink_requests", "proto.digests_applied", "cache.hit_ratio",
        "serve.start_s", "serve.connect_s", "serve.server_busy_frac",
        "serve.frames_tx_per_op", "serve.useful_rx_frac",
        "serve.fleet_busy_frac", "serve.shed_frames", "serve.decode_errors",
        "serve.dropped_answers"})
    l[n] = 0.0;
  return l;
}

/// Simulated statistics and kernel counters of one (possibly folded) run.
void put_sim_layers(std::map<std::string, double>& l, const Metrics& m,
                    double cpu_s) {
  const KernelCounters& k = m.kernel;
  l["sim.events_fired"] = static_cast<double>(k.fired);
  l["sim.events_scheduled"] = static_cast<double>(k.scheduled);
  l["sim.events_cancelled"] = static_cast<double>(k.cancelled);
  l["sim.dead_skipped"] = static_cast<double>(k.dead_skipped);
  l["sim.heap_peak"] = static_cast<double>(k.heap_peak);
  const char* prio[] = {"channel", "tx_done", "protocol",
                        "workload", "default", "stats"};
  for (std::size_t i = 0; i < kNumEventPriorities; ++i)
    l[std::string("sim.sched.") + prio[i]] =
        static_cast<double>(k.scheduled_by_prio[i]);
  l["sim.host_ns_per_event"] = 1e9 * ratio(cpu_s, static_cast<double>(k.fired));
  l["phy.report_receptions"] = static_cast<double>(m.reports_heard);
  l["phy.report_loss_rate"] =
      ratio(static_cast<double>(m.reports_missed),
            static_cast<double>(m.reports_heard + m.reports_missed));
  l["proto.queries"] = static_cast<double>(m.queries);
  l["proto.answered"] = static_cast<double>(m.answered);
  l["proto.uplink_requests"] = static_cast<double>(m.uplink_requests);
  l["proto.digests_applied"] = static_cast<double>(m.digests_applied);
  l["cache.hit_ratio"] = ratio(static_cast<double>(m.hits),
                               static_cast<double>(m.hits + m.misses));
}

/// Per-kind MAC transmissions of one or more cells, with the fan-out they
/// imply: every transmission is offered to every client of its cell.
struct MacTally {
  double tx[kNumMsgKinds] = {};
  double offered = 0.0;
  double data_offered = 0.0;

  void add(BroadcastMac& mac, std::size_t clients) {
    for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
      const auto n =
          static_cast<double>(mac.stats(static_cast<MsgKind>(k)).transmitted);
      tx[k] += n;
      offered += n * static_cast<double>(clients);
      if (static_cast<MsgKind>(k) == MsgKind::kDownlinkData)
        data_offered += n * static_cast<double>(clients);
    }
  }

  void put(std::map<std::string, double>& l, double stepped_s) const {
    l["mac.tx.report"] = tx[static_cast<std::size_t>(MsgKind::kInvalidationReport)];
    l["mac.tx.mini"] = tx[static_cast<std::size_t>(MsgKind::kMiniReport)];
    l["mac.tx.control"] = tx[static_cast<std::size_t>(MsgKind::kControl)];
    l["mac.tx.item"] = tx[static_cast<std::size_t>(MsgKind::kItemData)];
    l["mac.tx.data"] = tx[static_cast<std::size_t>(MsgKind::kDownlinkData)];
    l["mac.receptions_offered"] = offered;
    l["mac.data_reception_frac"] = ratio(data_offered, offered);
    l["mac.host_ns_per_reception"] = 1e9 * ratio(stepped_s, offered);
  }
};

void put_epoch_layers(std::map<std::string, double>& l,
                      const std::vector<double>& full_epochs_s) {
  l["engine.epochs"] = static_cast<double>(full_epochs_s.size());
  l["engine.epoch_step_s.p50"] = quantile(full_epochs_s, 0.5);
  l["engine.epoch_step_s.max"] =
      full_epochs_s.empty()
          ? 0.0
          : *std::max_element(full_epochs_s.begin(), full_epochs_s.end());
}

void fail(Iteration& it, const std::string& why) { it.failures.push_back(why); }

/// Record the iteration's per-op host times (seconds).
void set_op_times(Iteration& it, const std::vector<double>& op_s) {
  it.op_p50_ms = 1e3 * quantile(op_s, 0.50);
  it.op_p95_ms = 1e3 * quantile(op_s, 0.95);
  it.op_p99_ms = 1e3 * quantile(op_s, 0.99);
  it.op_samples = op_s.size();
}

/// Iterate `one` until the measuring budget is spent. In trace mode the
/// iterations alternate untraced / traced, starting untraced, and at least
/// one of each runs; untraced iterations get a disabled span log.
void iterate(const RunOptions& opts, SpanLog& log, Report& r,
             const std::function<Iteration(SpanLog&)>& one) {
  SpanLog off(false, "");
  const double t0 = wall_now();
  for (std::size_t n = 0;; ++n) {
    const bool traced = opts.trace && n % 2 == 1;
    Iteration it = one(traced ? log : off);
    it.traced = traced;
    const bool failed = !it.failures.empty();
    r.iterations.push_back(std::move(it));
    if (failed) break;  // a failed run's timings are invalid anyway
    const bool have_both = !opts.trace || n >= 1;
    if (have_both && wall_now() - t0 >= opts.seconds) break;
  }
}

// --- grid_paper: the paper's own grid through run_sweep ---

const std::vector<ProtocolKind> kGridProtocols(
    std::begin(kAllProtocolsAndBaselines), std::end(kAllProtocolsAndBaselines));

SweepSpec grid_spec() {
  SweepSpec s;
  s.key = "grid_paper";
  s.id = "GRID";
  s.title = "all protocols x IR interval L";
  s.axis = {"L (s)",
            {5.0, 20.0, 60.0},
            [](Scenario& sc, double L) { sc.proto.ir_interval_s = L; }};
  s.variants = protocol_variants(kGridProtocols);
  s.series = {{"mean query latency (s)", "",
               [](const Metrics& m) { return m.mean_latency_s; }, 3}};
  return s;
}

/// Build (and drop) the Simulation of every grid task, serially: the set-up
/// work run_sweep does inside its tasks, measured on its own.
double construct_grid(const SweepSpec& spec, const SweepOptions& opts,
                      SpanLog& log) {
  ScopedSpan setup(log, "grid.setup");
  const double t0 = wall_now();
  for (const SweepVariant& v : spec.variants) {
    for (double x : spec.axis.values) {
      Scenario sc = opts.base;
      if (v.apply) v.apply(sc);
      spec.axis.apply(sc, x);
      for (unsigned rep = 0; rep < opts.reps; ++rep) {
        ScopedSpan s(log, "engine.construct", setup.id());
        Simulation sim(sc);
      }
    }
  }
  return wall_now() - t0;
}

Report run_grid_paper(const RunOptions& opts, SpanLog& log) {
  Report r;
  const SweepSpec spec = grid_spec();
  SweepOptions so;
  so.reps = kGridReps;
  so.threads = kGridThreads;
  so.base = sweeps::default_scenario();
  so.base.seed = opts.seed;

  SpanLog off(false, "");
  while (more_setups(r.setup_s))
    r.setup_s.push_back(construct_grid(spec, so, r.setup_s.empty() ? log : off));

  iterate(opts, log, r, [&](SpanLog& slog) {
    Iteration it;
    ScopedSpan root(slog, "grid_paper.iteration");
    std::vector<double> done_at;  // seconds after the sweep started
    std::vector<double> task_s;
    const double t0 = wall_now();
    const double c0 = process_cpu_s();
    SweepGrid grid;
    {
      ScopedSpan sweep(slog, "engine.run_sweep", root.id());
      // run_sweep serialises progress callbacks, so no lock is needed here.
      grid = run_sweep(spec, so, [&](const SweepProgress& p) {
        const double now = slog.now();
        done_at.push_back(wall_now() - t0);
        // Per-task times: the cell's mean replication wall time, once per
        // replication (SweepProgress reports cells, not tasks).
        const double reps = static_cast<double>(p.cell->reps.size());
        for (std::size_t k = 0; k < p.cell->reps.size(); ++k)
          task_s.push_back(p.cell->wall_s / reps);
        slog.record("sweep.cell_done", sweep.id(), now, now);
      });
    }
    it.run_s = wall_now() - t0;
    it.cpu_s = process_cpu_s() - c0;

    Fnv1aDigest digest;
    Metrics sum;
    std::size_t tasks = 0;
    for (const SweepCell& cell : grid.cells) {
      const ProtocolKind proto = kGridProtocols.at(cell.variant);
      for (const Metrics& m : cell.reps) {
        ++tasks;
        digest.mix(metrics_digest(m));
        bool ok = true;
        if (m.stale_serves != 0 && proto != ProtocolKind::kCbl) {
          fail(it, to_string(proto) + " L=" + std::to_string(cell.x) + ": " +
                       std::to_string(m.stale_serves) + " stale serves");
          ok = false;
        }
        if (m.answered == 0) {
          fail(it, to_string(proto) + " L=" + std::to_string(cell.x) +
                       ": no query answered");
          ok = false;
        }
        if (!ok) ++it.failed;
        sum.kernel.merge_from(m.kernel);
        sum.reports_heard += m.reports_heard;
        sum.reports_missed += m.reports_missed;
        sum.queries += m.queries;
        sum.answered += m.answered;
        sum.uplink_requests += m.uplink_requests;
        sum.digests_applied += m.digests_applied;
        sum.hits += m.hits;
        sum.misses += m.misses;
      }
    }
    it.attempted = spec.variants.size() * spec.axis.values.size() * so.reps;
    if (tasks != it.attempted) {
      fail(it, "grid ran " + std::to_string(tasks) + " of " +
                   std::to_string(it.attempted) + " tasks");
      it.failed = it.attempted;
    }
    it.digest = hex(digest.value());
    it.ops = static_cast<double>(tasks);
    set_op_times(it, task_s);

    if (slog.enabled()) {
      auto& l = r.layers;
      l = zero_layers();
      put_sim_layers(l, sum, it.cpu_s);
      // Construction happens inside the sweep's tasks; the set-up measured it.
      const double construct_s = quantile(r.setup_s, 0.5);
      l["engine.construct_s"] = construct_s;
      l["engine.construct_us_per_client"] =
          1e6 * construct_s /
          static_cast<double>(it.attempted * so.base.num_clients);
      l["engine.pool_busy_frac"] =
          ratio(it.cpu_s, it.run_s * static_cast<double>(grid.threads_used));
      // The tail starts at the completion that leaves fewer unfinished cells
      // than workers, so from there on some worker must be idle.
      const std::size_t n = done_at.size();
      const std::size_t w = grid.threads_used;
      l["engine.grid_tail_s"] = n > w ? done_at.back() - done_at[n - w] : 0.0;
    }
    return it;
  });
  return r;
}

// --- cell_pop: one large cell over three IR epochs ---

Scenario population_scenario(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = kPopulation;
  s.db.num_items = 500;
  s.sleep.sleep_ratio = 0.1;
  s.traffic.offered_bps = 10e3;
  s.proto.ir_interval_s = 5.0;
  s.warmup_s = 1.0;
  s.sim_time_s = 16.0;  // IRs at 5, 10 and 15 s, each fully delivered
  return s;
}

/// Epoch guard: a population run must close at least this many full IRs and
/// answer queries, or it timed only construction plus DATA fan-out.
constexpr std::uint64_t kMinFullIrs = 3;

Report run_cell_pop(const RunOptions& opts, SpanLog& log) {
  Report r;
  const Scenario sc = population_scenario(opts.seed);
  const double L = sc.proto.ir_interval_s;
  const auto steps =
      static_cast<std::size_t>(std::ceil(sc.sim_time_s / L));

  while (more_setups(r.setup_s)) {
    const double t0 = wall_now();
    { Simulation sim(sc); }
    r.setup_s.push_back(wall_now() - t0);
  }

  iterate(opts, log, r, [&](SpanLog& slog) {
    Iteration it;
    it.attempted = 1;
    ScopedSpan root(slog, "cell_pop.iteration");
    const double s0 = wall_now();
    std::unique_ptr<Simulation> sim;
    {
      ScopedSpan s(slog, "engine.construct", root.id());
      sim = std::make_unique<Simulation>(sc);
    }
    const double construct_s = wall_now() - s0;

    std::vector<double> full_epochs_s;
    const double t0 = wall_now();
    const double c0 = process_cpu_s();
    for (std::size_t e = 0; e < steps; ++e) {
      const double until = std::min(L * static_cast<double>(e + 1), sc.sim_time_s);
      const double e0 = wall_now();
      {
        ScopedSpan s(slog, "engine.run_until", root.id());
        sim->run_until(until);
      }
      if (L * static_cast<double>(e + 1) <= sc.sim_time_s)
        full_epochs_s.push_back(wall_now() - e0);
    }
    const double stepped_s = wall_now() - t0;
    Metrics m;
    {
      ScopedSpan s(slog, "engine.collect", root.id());
      m = sim->collect();
    }
    it.run_s = wall_now() - t0;
    it.cpu_s = process_cpu_s() - c0;
    const double iteration_s = wall_now() - s0;
    it.ops = static_cast<double>(full_epochs_s.size());
    set_op_times(it, full_epochs_s);
    it.digest = hex(metrics_digest(m));
    const std::uint64_t irs =
        sim->mac().stats(MsgKind::kInvalidationReport).transmitted;
    if (irs < kMinFullIrs)
      fail(it, std::to_string(irs) + " full IRs sent, need " +
                   std::to_string(kMinFullIrs));
    if (m.stale_serves != 0)
      fail(it, std::to_string(m.stale_serves) + " stale serves");
    if (m.answered == 0) fail(it, "no query answered");
    if (!it.failures.empty()) it.failed = 1;

    if (slog.enabled()) {
      auto& l = r.layers;
      l = zero_layers();
      put_sim_layers(l, m, it.cpu_s);
      put_epoch_layers(l, full_epochs_s);
      l["engine.construct_s"] = construct_s;
      l["engine.construct_us_per_client"] =
          1e6 * construct_s / static_cast<double>(sc.num_clients);
      l["engine.collect_s"] = it.run_s - stepped_s;
      // Construction + steps + collect against the spans that cover them.
      double covered = 0.0;
      for (const Span& s : slog.spans())
        if (s.parent == root.id()) covered += s.duration();
      l["engine.span_gap_s"] = iteration_s - covered;
      MacTally mac;
      mac.add(sim->mac(), sim->num_clients());
      mac.put(l, stepped_s);
    }
    return it;
  });
  return r;
}

// --- serve_loop: the socket daemon under a closed-loop fleet ---

net::LoadConfig fleet_config(const std::string& path, std::uint64_t seed,
                             std::size_t in_flight, std::uint64_t per_conn) {
  net::LoadConfig lc;
  lc.unix_path = path;
  lc.connections = kServeConnections;
  lc.max_in_flight = in_flight;
  lc.requests_per_conn = per_conn;
  lc.seed = seed;
  lc.stall_timeout_s = 10.0;
  return lc;
}

/// What the daemon process reports once it is listening, and once it stops.
struct DaemonHello {
  int ok = 0;
  double start_s = 0.0;  ///< ServeApp construction + start()
  char error[256] = {};
};
struct DaemonBye {
  double cpu_s = 0.0;   ///< process CPU over the run loop
  double wall_s = 0.0;  ///< wall time of the run loop
  net::ServeStats stats;
};

/// The daemon process's app, for its SIGTERM handler: request_stop() is the
/// daemon's signal-safe stop path.
net::ServeApp* g_daemon_app = nullptr;
extern "C" void stop_daemon(int) {
  if (g_daemon_app != nullptr) g_daemon_app->request_stop();
}

void write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Read exactly n bytes within timeout_s; false on EOF, error or timeout.
bool read_full(int fd, void* buf, std::size_t n, double timeout_s) {
  auto* p = static_cast<char*>(buf);
  const double deadline = wall_now() + timeout_s;
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const double left = deadline - wall_now();
    if (left <= 0.0) return false;
    const int r = ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1e3)));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Body of the daemon process: serve until SIGTERM, report, exit.
[[noreturn]] void daemon_main(int report_fd, const std::string& path,
                              std::uint64_t seed) {
  pin_to_cpu(2);
  int code = 0;
  try {
    net::ServeConfig cfg;
    cfg.unix_path = path;
    cfg.time_scale = 20000.0;
    cfg.scenario.seed = seed;
    cfg.scenario.protocol = ProtocolKind::kTs;
    cfg.scenario.num_clients = 256;  // pre-registered MAC ports
    DaemonHello hello;
    const double t0 = wall_now();
    net::ServeApp app(std::move(cfg));
    std::string error;
    hello.ok = app.start(&error) ? 1 : 0;
    hello.start_s = wall_now() - t0;
    std::snprintf(hello.error, sizeof hello.error, "%s", error.c_str());
    g_daemon_app = &app;
    std::signal(SIGTERM, stop_daemon);  // before the parent can send it
    write_full(report_fd, &hello, sizeof hello);
    if (hello.ok) {
      DaemonBye bye;
      const double c0 = process_cpu_s();
      const double w0 = wall_now();
      app.run();
      bye.cpu_s = process_cpu_s() - c0;
      bye.wall_s = wall_now() - w0;
      bye.stats = app.stats();
      write_full(report_fd, &bye, sizeof bye);
    }
    g_daemon_app = nullptr;
  } catch (...) {
    code = 1;
  }
  std::_Exit(code);
}

/// One wdc_serve daemon core in a process of its own. A separate process is
/// what lets a wall cap end a daemon whose loop is stuck catching up simulated
/// time, where no stop request is seen. Fork only while the harness is
/// single-threaded.
class Daemon {
 public:
  /// Start the daemon and wait until it listens; `start_s()` is its
  /// ServeApp construction + start().
  Daemon(std::string path, std::uint64_t seed) : path_(std::move(path)) {
    int fds[2];
    if (::pipe(fds) != 0) {
      error_ = std::string("pipe: ") + std::strerror(errno);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(fds[0]);
      daemon_main(fds[1], path_, seed);
    }
    ::close(fds[1]);
    report_fd_ = fds[0];
    if (pid_ < 0) {
      error_ = std::string("fork: ") + std::strerror(errno);
      return;
    }
    DaemonHello hello;
    if (!read_full(report_fd_, &hello, sizeof hello, kDaemonReplyS)) {
      error_ = "the daemon did not start";
      return;
    }
    start_s_ = hello.start_s;
    error_ = hello.error;
    listening_ = hello.ok != 0;
  }
  ~Daemon() { stop(false); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// End the daemon and reap it (idempotent). Gracefully: SIGTERM, then its
  /// report; forcibly, or when it does not report in time: SIGKILL, which
  /// also closes every connection a fleet still holds.
  void stop(bool force) {
    if (pid_ > 0) {
      if (!force && listening_) {
        ::kill(pid_, SIGTERM);
        reported_ = read_full(report_fd_, &bye_, sizeof bye_, kDaemonReplyS);
      }
      if (!reported_) ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (report_fd_ >= 0) ::close(report_fd_);
    report_fd_ = -1;
    std::remove(path_.c_str());
  }

  bool listening() const { return listening_; }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }
  double start_s() const { return start_s_; }
  // Valid after a graceful stop():
  bool reported() const { return reported_; }
  const DaemonBye& report() const { return bye_; }

 private:
  /// How long the daemon may take to say it listens, or to report on stop.
  static constexpr double kDaemonReplyS = 10.0;

  std::string path_;
  pid_t pid_ = -1;
  int report_fd_ = -1;
  std::string error_;
  bool listening_ = false;
  double start_s_ = 0.0;
  bool reported_ = false;
  DaemonBye bye_;
};

struct FleetRun {
  bool ok = false;
  bool capped = false;
  std::string error;
  double wall_s = 0.0;  ///< LoadDriver::run() on the fleet thread
  double cpu_s = 0.0;   ///< the fleet thread's CPU over the same
  net::LoadReport report;
};

/// Run a fleet against `daemon` on its own thread. Past `cap_s` of wall time
/// the daemon is killed, which closes the fleet's connections so it returns.
FleetRun run_fleet(const net::LoadConfig& cfg, Daemon& daemon, double cap_s) {
  FleetRun out;
  net::LoadDriver fleet(cfg);
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;  // guarded by mu
  std::thread fleet_thread([&] {
    pin_to_cpu(3);
    const double w = wall_now();
    const double c = thread_cpu_s();
    out.ok = fleet.run(&out.error);
    out.cpu_s = thread_cpu_s() - c;
    out.wall_s = wall_now() - w;
    const std::lock_guard<std::mutex> lock(mu);
    finished = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    out.capped = !cv.wait_for(lock, std::chrono::duration<double>(cap_s),
                              [&] { return finished; });
  }
  if (out.capped) daemon.stop(true);
  fleet_thread.join();
  out.report = fleet.report();
  return out;
}

/// Connect the load's width of connections and say HELLO, without ops: an
/// already-expired duration makes each connection say BYE once its HELLO is
/// acknowledged. Sets `connect_s`; returns empty on success, else why not.
std::string handshake(Daemon& daemon, std::uint64_t seed, double* connect_s) {
  if (!daemon.listening()) return "serve start: " + daemon.error();
  net::LoadConfig cfg = fleet_config(daemon.path(), seed, 1, 0);
  cfg.duration_s = 1e-9;
  const FleetRun hs = run_fleet(cfg, daemon, kServeWallCapS);
  *connect_s = hs.wall_s;
  if (hs.capped) return "HELLO not answered within the wall cap";
  if (!hs.ok) return "connect: " + hs.error;
  if (hs.report.hellos_acked != kServeConnections)
    return "not every connection said HELLO";
  return "";
}

Report run_serve_loop(const RunOptions& opts, SpanLog& log) {
  Report r;
  std::size_t n = 0;
  const auto next_path = [&] {
    return opts.scratch_dir + "/wdcperf-" + std::to_string(::getpid()) + "-" +
           std::to_string(n++) + ".sock";
  };
  while (more_setups(r.setup_s)) {
    Daemon daemon(next_path(), opts.seed);
    double connect_s = 0.0;
    if (!handshake(daemon, opts.seed, &connect_s).empty()) break;  // reported below
    r.setup_s.push_back(daemon.start_s() + connect_s);
  }

  iterate(opts, log, r, [&](SpanLog& slog) {
    Iteration it;
    it.attempted = kServeConnections * kServeRequestsPerConn;
    ScopedSpan root(slog, "serve_loop.iteration");
    std::unique_ptr<Daemon> daemon;
    {
      ScopedSpan s(slog, "serve.start", root.id());
      daemon = std::make_unique<Daemon>(next_path(), opts.seed);
    }
    double connect_s = 0.0;
    std::string error;
    {
      ScopedSpan s(slog, "serve.connect", root.id());
      error = handshake(*daemon, opts.seed, &connect_s);
    }
    if (!error.empty()) {
      fail(it, error);
      it.failed = it.attempted;
      return it;
    }

    const double c0 = process_cpu_s();
    FleetRun load;
    {
      ScopedSpan s(slog, "serve.load", root.id());
      load = run_fleet(fleet_config(daemon->path(), opts.seed, kServeInFlight,
                                    kServeRequestsPerConn),
                       *daemon, kServeWallCapS);
    }
    it.run_s = load.wall_s;
    it.cpu_s = process_cpu_s() - c0;
    daemon->stop(false);
    // The daemon's whole run loop: it spins through the load and is stopped
    // right after it, so this is its CPU over the timed phase to within ms.
    it.cpu_s += daemon->report().cpu_s;

    const net::LoadReport& rep = load.report;
    const net::ServeStats& st = daemon->report().stats;
    const std::uint64_t answered = rep.ops_answered();
    const std::uint64_t unanswered =
        it.attempted > answered ? it.attempted - answered : 0;
    const std::uint64_t bad_frames =
        st.shed_frames + st.decode_errors + rep.sheds_rx + rep.decode_errors;
    it.failed = std::min(it.attempted, unanswered + bad_frames);
    if (load.capped)
      fail(it, "wall cap of " + std::to_string(kServeWallCapS) + " s reached");
    else if (!load.ok)
      fail(it, "fleet: " + load.error);
    else if (!daemon->reported())
      fail(it, "the daemon did not stop cleanly");
    if (unanswered) fail(it, std::to_string(unanswered) + " ops unanswered");
    if (bad_frames)
      fail(it, std::to_string(bad_frames) + " shed or undecodable frames");
    it.ops = static_cast<double>(answered);
    set_op_times(it, rep.latencies);

    if (slog.enabled()) {
      auto& l = r.layers;
      l = zero_layers();
      l["serve.start_s"] = daemon->start_s();
      l["serve.connect_s"] = connect_s;
      l["serve.server_busy_frac"] =
          ratio(daemon->report().cpu_s, daemon->report().wall_s);
      l["serve.fleet_busy_frac"] = ratio(load.cpu_s, it.run_s);
      l["serve.frames_tx_per_op"] = ratio(
          static_cast<double>(st.reports_tx + st.items_tx + st.data_tx +
                              st.control_tx),
          static_cast<double>(st.answers));
      l["serve.useful_rx_frac"] = ratio(static_cast<double>(rep.answers),
                                        static_cast<double>(rep.items_rx));
      l["serve.shed_frames"] = static_cast<double>(st.shed_frames + rep.sheds_rx);
      l["serve.decode_errors"] =
          static_cast<double>(st.decode_errors + rep.decode_errors);
      l["serve.dropped_answers"] = static_cast<double>(st.dropped_answers);
    }
    return it;
  });
  return r;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string reference_digest(const std::string& workload, std::uint64_t seed) {
  if (workload == "grid_paper") {
    SweepOptions so;
    so.reps = kGridReps;
    so.threads = 1;
    so.base = sweeps::default_scenario();
    so.base.seed = seed;
    Fnv1aDigest digest;
    for (const SweepCell& cell : run_sweep(grid_spec(), so).cells)
      for (const Metrics& m : cell.reps) digest.mix(metrics_digest(m));
    return hex(digest.value());
  }
  if (workload == "cell_pop")
    return hex(metrics_digest(run_scenario(population_scenario(seed))));
  throw std::invalid_argument("no reference digest for workload: " + workload);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid_paper", "cell_pop",
                                                 "serve_loop"};
  return names;
}

Report run_workload(const RunOptions& opts, SpanLog& log) {
  if (opts.workload == "grid_paper") return run_grid_paper(opts, log);
  if (opts.workload == "cell_pop") return run_cell_pop(opts, log);
  if (opts.workload == "serve_loop") return run_serve_loop(opts, log);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace wdcperf
