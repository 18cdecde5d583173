#include "workload/query_gen.hpp"

#include <stdexcept>
#include <utility>

namespace wdc {

QueryModel query_model_from_string(const std::string& name) {
  if (name == "hotcold") return QueryModel::kHotCold;
  if (name == "zipf") return QueryModel::kZipf;
  throw std::invalid_argument("unknown query model: " + name);
}

std::string to_string(QueryModel m) {
  switch (m) {
    case QueryModel::kHotCold: return "hotcold";
    case QueryModel::kZipf: return "zipf";
  }
  return "?";
}

QueryGenerator::QueryGenerator(Simulator& sim, const QueryConfig& cfg,
                               std::uint32_t num_items, const Zipf* popularity,
                               Rng rng, ActiveFn active, QueryFn on_query)
    : sim_(sim),
      cfg_(cfg),
      num_items_(num_items),
      inter_arrival_(cfg.rate > 0.0 ? cfg.rate : 1.0),
      popularity_(popularity),
      rng_(rng),
      active_(std::move(active)),
      on_query_(std::move(on_query)) {
  if (!active_ || !on_query_)
    throw std::invalid_argument("QueryGenerator: callbacks required");
  if (num_items_ == 0) throw std::invalid_argument("QueryGenerator: items > 0");
  if (cfg_.model == QueryModel::kZipf &&
      (popularity_ == nullptr || popularity_->n() != num_items_ ||
       popularity_->theta() != cfg_.zipf_theta))
    throw std::invalid_argument(
        "QueryGenerator: the Zipf model needs a table over num_items ids at "
        "zipf_theta");
  if (cfg_.hot_items > num_items_) cfg_.hot_items = num_items_;
  if (cfg_.rate > 0.0) schedule_next();
}

ItemId QueryGenerator::sample_item() {
  if (cfg_.model == QueryModel::kZipf)
    return static_cast<ItemId>(popularity_->sample(rng_));
  const std::uint32_t cold = num_items_ - cfg_.hot_items;
  if (cfg_.hot_items > 0 && (cold == 0 || rng_.bernoulli(cfg_.hot_frac)))
    return static_cast<ItemId>(rng_.uniform_int(cfg_.hot_items));
  return static_cast<ItemId>(cfg_.hot_items + rng_.uniform_int(cold));
}

void QueryGenerator::schedule_next() {
  sim_.schedule_in(inter_arrival_.sample(rng_),
                   [this] {
                     if (active_()) {
                       ++generated_;
                       on_query_(sample_item());
                     } else {
                       ++suppressed_;
                     }
                     schedule_next();
                   },
                   EventPriority::kWorkload);
}

}  // namespace wdc
