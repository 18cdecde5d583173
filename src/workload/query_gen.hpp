#ifndef WDC_WORKLOAD_QUERY_GEN_HPP
#define WDC_WORKLOAD_QUERY_GEN_HPP

/// @file query_gen.hpp
/// Per-client query workload: Poisson arrivals; item choice from either
///  * the classic hot/cold model (fraction `hot_frac` of queries uniform over the
///    first `hot_items` ids, rest uniform over the cold remainder) — the workload
///    of the Barbara–Imielinski/Cao evaluations, or
///  * a Zipf popularity law over the whole item space.
///
/// A generator is gated by an `active` predicate (the sleep model): queries that
/// would arrive while the client is disconnected are not generated (a powered-off
/// terminal issues no queries). The Poisson clock keeps running so reconnection
/// does not cause a synchronized burst.
///
/// The Zipf model samples from one immutable CDF table that the owner builds
/// once and shares across every client's generator: sampling is a pure
/// function of the table and the generator's own Rng, so sharing it changes
/// no draw.

#include <string>

#include "sim/simulator.hpp"
#include "util/inline_action.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "util/variates.hpp"

namespace wdc {

enum class QueryModel { kHotCold, kZipf };

QueryModel query_model_from_string(const std::string& name);
std::string to_string(QueryModel m);

struct QueryConfig {
  QueryModel model = QueryModel::kHotCold;
  double rate = 0.1;           ///< queries per second per client
  // hot/cold parameters
  std::uint32_t hot_items = 100;  ///< ids [0, hot_items) form the hot query set
  double hot_frac = 0.8;          ///< fraction of queries hitting the hot set
  // zipf parameter
  double zipf_theta = 0.9;     ///< popularity skew over the whole item space
};

class QueryGenerator {
 public:
  /// Small-buffer callbacks (the InlineFunction of SleepModel and the event
  /// kernel): the engine's captures are one client pointer, so a generator
  /// owns no heap block.
  using QueryFn = InlineFunction<void(ItemId), 16>;
  using ActiveFn = InlineFunction<bool(), 16>;

  /// Starts generating immediately. `popularity` is the shared Zipf table over
  /// `num_items` ids at `cfg.zipf_theta`; the Zipf model requires it, the
  /// hot/cold model ignores it (pass nullptr). It must outlive the generator.
  QueryGenerator(Simulator& sim, const QueryConfig& cfg, std::uint32_t num_items,
                 const Zipf* popularity, Rng rng, ActiveFn active,
                 QueryFn on_query);

  QueryGenerator(const QueryGenerator&) = delete;
  QueryGenerator& operator=(const QueryGenerator&) = delete;

  std::uint64_t generated() const { return generated_; }
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  void schedule_next();
  ItemId sample_item();

  Simulator& sim_;
  QueryConfig cfg_;
  std::uint32_t num_items_;
  Exponential inter_arrival_;
  const Zipf* popularity_;  ///< shared table; only read by the Zipf model
  Rng rng_;
  ActiveFn active_;
  QueryFn on_query_;
  std::uint64_t generated_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace wdc

#endif  // WDC_WORKLOAD_QUERY_GEN_HPP
