#include "engine/simulation.hpp"

#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "engine/digest.hpp"
#include "engine/sharded.hpp"
#include "proto/hyb.hpp"
#include "util/string_util.hpp"

namespace wdc {

ConstructionEstimate construction_estimate(const Scenario& sc,
                                           std::uint32_t clients) {
  // glibc's per-block header and 16-byte rounding, paid by every small heap
  // block a client owns: the client object and its request-timer reserve.
  constexpr std::uint64_t kBlockOverhead = 16;
  std::uint64_t b = client_footprint(sc.protocol) + 2 * kBlockOverhead +
                    sizeof(std::unique_ptr<ClientProtocol>);
  b += sizeof(std::optional<SleepModel>);
  b += sizeof(std::optional<QueryGenerator>);
  b += Downlinks::bytes_per_link(sc.fading);
  b += BroadcastMac::bytes_per_client();
  const std::uint64_t events = (sc.sleep.sleep_ratio > 0.0 ? 1 : 0) +
                               (sc.query.rate > 0.0 ? 1 : 0);
  b += events * EventQueue::bytes_per_event();
  return ConstructionEstimate{clients, b};
}

void require_construction_fits(const Scenario& sc, std::uint32_t clients) {
  const ConstructionEstimate est = construction_estimate(sc, clients);
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_bytes = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_bytes <= 0) return;  // unknown host size
  const auto physical = static_cast<std::uint64_t>(pages) *
                        static_cast<std::uint64_t>(page_bytes);
  if (est.total_bytes() > physical)
    throw std::runtime_error(strfmt(
        "Simulation: %u clients at about %llu bytes per client need about "
        "%.3g bytes, more than the host's %.3g bytes of physical memory",
        clients, static_cast<unsigned long long>(est.bytes_per_client),
        static_cast<double>(est.total_bytes()), static_cast<double>(physical)));
}

namespace {

/// The span a cell builds, with the scenario validated and the span checked
/// for range and for host memory, before the Simulation allocates anything.
ClientSpan validated_span(const Scenario& sc, ClientSpan span) {
  sc.validate();
  if (span.begin > span.end || span.end > sc.num_clients || span.size() == 0)
    throw std::invalid_argument("Simulation: client span out of range");
  require_construction_fits(sc, span.size());
  return span;
}

}  // namespace

Simulation::Simulation(Scenario scenario)
    : Simulation(scenario, ClientSpan{0, scenario.num_clients}) {}

Simulation::Simulation(Scenario scenario, ClientSpan span)
    : scenario_(std::move(scenario)),
      span_(validated_span(scenario_, span)),
      table_(scenario_.make_mcs_table()),
      links_(scenario_.fading) {
  Rng master(scenario_.seed);
  Rng geo_rng = master.split();
  Rng chan_rng = master.split();
  Rng mac_rng = master.split();
  Rng db_rng = master.split();
  Rng wl_rng = master.split();

  mac_ = std::make_unique<BroadcastMac>(sim_, table_, scenario_.mac, mac_rng,
                                        links_);
  uplink_ = std::make_unique<UplinkChannel>(sim_, scenario_.uplink, master.split());
  // The fault layer splits off the master LAST, after every model stream, and
  // a disabled injector draws nothing — so seeds chain identically with faults
  // compiled in, disabled, or compiled out (the digest tests prove it).
  faults_ = std::make_unique<FaultInjector>(sim_, scenario_.faults,
                                            span_.size(), master.split());
  mac_->set_fault_injector(faults_.get());
  uplink_->set_fault_injector(faults_.get());
  db_ = std::make_unique<Database>(sim_, scenario_.db, db_rng);
  sink_ = std::make_unique<StatsSink>(scenario_.warmup_s);
  server_ = make_server(scenario_.protocol, sim_, *mac_, *db_, scenario_.proto);

  // Per-client downlinks and sleep models, then the protocol clients
  // (which register with the MAC in construction order ⇒ ClientId = index).
  // Every loop walks the GLOBAL client range and derives each client's RNG
  // streams at its global index g — out-of-span clients burn exactly the
  // splits/draws the legacy construction consumed for them, so a client's
  // randomness is invariant under the shard map and the full span reproduces
  // the single-cell seed chain bit-for-bit.
  const std::uint32_t M = scenario_.num_clients;
  links_.reserve(span_.size());
  sleeps_ = std::make_unique<std::optional<SleepModel>[]>(span_.size());
  clients_.reserve(span_.size());
  queries_ = std::make_unique<std::optional<QueryGenerator>[]>(span_.size());
  if (scenario_.query.model == QueryModel::kZipf)
    popularity_.emplace(scenario_.db.num_items, scenario_.query.zipf_theta);
  for (std::uint32_t g = 0; g < M; ++g) {
    Rng link_rng = chan_rng.split();
    const double mean_snr = client_mean_snr(geo_rng);
    Rng sleep_rng = wl_rng.split();
    if (g < span_.begin || g >= span_.end) continue;
    const std::uint32_t i = g - span_.begin;
    links_.add(mean_snr, link_rng);
    sleeps_[i].emplace(
        sim_, scenario_.sleep, sleep_rng,
        [this, i](bool awake) { clients_[i]->on_sleep_transition(awake); },
        static_cast<ClientId>(i));
  }
  for (std::uint32_t g = 0; g < M; ++g) {
    Rng client_rng = wl_rng.split();
    if (g < span_.begin || g >= span_.end) continue;
    const std::uint32_t i = g - span_.begin;
    clients_.push_back(make_client(
        scenario_.protocol, sim_, *mac_, *uplink_, *server_, *db_, scenario_.proto,
        *sink_, client_rng));
    if (clients_.back()->id() != i)
      throw std::logic_error("Simulation: client registration order violated");
    clients_.back()->set_fault_injector(faults_.get());
  }
  const Zipf* popularity = popularity_ ? &*popularity_ : nullptr;
  for (std::uint32_t g = 0; g < M; ++g) {
    Rng query_rng = wl_rng.split();
    if (g < span_.begin || g >= span_.end) continue;
    const std::uint32_t i = g - span_.begin;
    ClientProtocol* client = clients_[i].get();
    queries_[i].emplace(
        sim_, scenario_.query, scenario_.db.num_items, popularity, query_rng,
        [client] { return client->reachable(); },
        [client](ItemId item) { client->on_query(item); });
  }
  // Sleep and churn edges feed the client's own awake/connected state.
  faults_->set_churn_handler(
      [this](ClientId c, bool connected) { clients_[c]->on_churn(connected); });
  faults_->set_server_handler(
      [this](bool down) { server_->on_server_state(down); });

  // The cell's traffic generator spans its local population (frame times and
  // sizes come from the shared wl stream, so they are identical across
  // cells); each cell carries the full offered load, matching the replica
  // semantics of shard_cells > 1 documented in docs/ANALYSIS.md.
  traffic_ = std::make_unique<TrafficGenerator>(
      sim_, scenario_.traffic, span_.size(), wl_rng.split(),
      [this](const TrafficFrame& frame) { server_->on_downlink_frame(frame); });

  // Tracing is configured last (it never consumes randomness, so enabling it
  // cannot perturb the seed chain above).
  TraceMeta meta;
  meta.protocol = to_string(scenario_.protocol);
  meta.seed = scenario_.seed;
  meta.sim_time_s = scenario_.sim_time_s;
  meta.warmup_s = scenario_.warmup_s;
  meta.num_clients = scenario_.num_clients;
  sim_.trace().configure(scenario_.trace, meta);

  server_->start();
  faults_->start();
}

Simulation::~Simulation() = default;

double Simulation::client_mean_snr(Rng& rng) const {
  switch (scenario_.snr_assignment) {
    case SnrAssignment::kUniform:
      return scenario_.mean_snr_db +
             scenario_.snr_spread_db * (rng.uniform() - 0.5);
    case SnrAssignment::kPathLoss: {
      const double d = scenario_.cell.sample_distance(rng);
      return scenario_.tx_power_dbm - scenario_.pathloss.loss_db(d) -
             scenario_.noise_dbm;
    }
  }
  throw std::logic_error("client_mean_snr: unreachable");
}

Metrics Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run called twice");
  ran_ = true;
  sim_.run_until(scenario_.sim_time_s);
  sim_.trace().finalize();  // flush any trace file before metrics are read
  return collect();
}

RunStats Simulation::run_stats() const {
  RunStats rs;
  rs.cells = 1;
  rs.now_s = sim_.now();
  rs.events = sim_.events_executed();
  rs.clients = clients_.size();

  rs.sink = *sink_;
  rs.uplink_requests = uplink_->requests();

  rs.reports_sent = server_->reports_sent();
  rs.minis_sent = server_->minis_sent();
  rs.item_broadcasts = server_->item_broadcasts();
  rs.coalesced_requests = server_->coalesced_requests();
  rs.digest_bits = server_->digest_bits();
  rs.lair_deferred = server_->lair_deferred();
  rs.lair_deferral_s = server_->lair_deferral_s();
  rs.crash_suppressed = server_->crash_suppressed();
  if (const auto* hyb = dynamic_cast<const ServerHyb*>(server_.get()))
    rs.hyb_m = hyb->m_history();

  rs.ir = mac_->stats(MsgKind::kInvalidationReport);
  rs.mini = mac_->stats(MsgKind::kMiniReport);
  rs.item = mac_->stats(MsgKind::kItemData);
  rs.data = mac_->stats(MsgKind::kDownlinkData);
  rs.busy_frac_sum = mac_->busy_fraction(sim_.now());
  rs.bcast_mcs = mac_->broadcast_mcs_used();

  for (const auto& c : clients_) rs.radio_on_s += c->radio_on_time(sim_.now());

  rs.decomp = sim_.trace().decomposition();
  rs.trace_events = sim_.trace().events();
  rs.trace_dropped = sim_.trace().dropped();
  rs.faults = faults_->stats();
  rs.kernel = sim_.kernel_counters();
  rs.link_pass = links_.counters();
  return rs;
}

Metrics Simulation::collect() const { return finalize_run(scenario_, run_stats()); }

std::uint64_t Simulation::epoch_seal() const {
  Fnv1aDigest d;
  d.mix(sim_.now());
  d.mix(db_->total_updates());
  const std::uint32_t n = db_->num_items();
  for (std::uint32_t i = 0; i < n; ++i) {
    d.mix(db_->version(i));
    d.mix(db_->last_update(i));
  }
  return d.value();
}

Metrics run_scenario(const Scenario& scenario) {
  if (scenario.sharded()) return ShardedSimulation(scenario).run();
  Simulation sim(scenario);
  return sim.run();
}

}  // namespace wdc
