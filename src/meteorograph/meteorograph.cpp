#include "meteorograph/meteorograph.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/assert.hpp"
#include "common/zipf.hpp"
#include "meteorograph/op_scratch.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"

namespace meteo::core {

const char* outcome_label(const Degradation& d) noexcept {
  // Severity order: a blocked op is also partial; report the worst flag.
  if (d.fault_blocked) return "blocked";
  if (d.partial) return "partial";
  if (d.degraded) return "degraded";
  return "ok";
}

namespace {

std::vector<vsm::KeywordId> keywords_of(const vsm::SparseVector& v) {
  std::vector<vsm::KeywordId> out;
  out.reserve(v.nnz());
  for (const vsm::Entry& e : v.entries()) out.push_back(e.keyword);
  return out;
}

}  // namespace

Meteorograph::Meteorograph(SystemConfig config,
                           std::span<const vsm::SparseVector> sample,
                           std::uint64_t seed)
    : config_(config),
      rng_(seed),
      strategy_(make_naming_strategy(sample, config)),
      overlay_(config.overlay),
      attributes_(config.overlay.key_space) {
  METEO_EXPECTS(config_.node_count >= 1);

  // Hot-region statistics come from the sample's *published* keys: the
  // post-remap keys under the default angle strategy (§3.4.2, the exact
  // pre-strategy path), the strategy's own primary keys otherwise — node
  // placement must follow wherever the active strategy sends the items.
  if (config_.load_balance == LoadBalanceMode::kUnusedHashSpacePlusHotRegions) {
    std::vector<overlay::Key> balanced;
    balanced.reserve(sample.size());
    if (config_.naming.strategy == NamingStrategyKind::kAngle) {
      for (const overlay::Key raw : NamingScheme::raw_keys(sample, config_)) {
        balanced.push_back(strategy_->scheme().remap(raw));
      }
    } else {
      for (const vsm::SparseVector& v : sample) {
        balanced.push_back(strategy_->primary_key(v));
      }
    }
    hot_regions_ = HotRegionSet::detect(balanced, config_);
  }

  // Join the peer population; hot-region-aware names when configured.
  const bool hot_naming =
      config_.load_balance == LoadBalanceMode::kUnusedHashSpacePlusHotRegions;
  while (overlay_.alive_count() < config_.node_count) {
    const overlay::Key key = hot_naming
                                 ? hot_regions_.name_node(rng_)
                                 : rng_.below(config_.overlay.key_space);
    (void)overlay_.join(key);  // collisions simply retry
  }
  overlay_.repair();
  sync_node_data();

  // The bootstrap sample doubles as the first-hop data set (§3.5.1). The
  // first-hop index lives in the raw-angle directory space under every
  // strategy (NamingStrategy::directory_key).
  const auto raws = NamingScheme::raw_keys(sample, config_);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    first_hop_.add(raws[i], keywords_of(sample[i]));
  }
}

void Meteorograph::begin_operation() {
  if (overlay::FaultHook* hook = overlay_.fault_hook()) {
    for (const overlay::NodeId node : hook->take_due_crashes()) {
      // The last node never crashes: the simulator needs a live peer to
      // originate operations from.
      if (overlay_.is_alive(node) && overlay_.alive_count() > 1) {
        overlay_.fail(node);
        ++metrics_.counter(obs::names::kFaultCrashesApplied);
      }
    }
  }
  sync_node_data();
  // Membership gauge: refreshed at every operation boundary (O(1)).
  metrics_.gauge(obs::names::kAliveNodes)
      .set(static_cast<double>(overlay_.alive_count()));
}

void Meteorograph::begin_batch() {
  METEO_EXPECTS(!batch_in_flight_);
  METEO_ZONE("window.begin");
  begin_operation();  // crashes land once, at the batch boundary
  // Storage gauge: a running count, but set only at batch barriers, never
  // per op, so its value never depends on which ops committed first
  // (DESIGN.md §8).
  metrics_.gauge(obs::names::kStoredItems)
      .set(static_cast<double>(stored_items_));
  batch_in_flight_ = true;
}

// Per-OpKind handle caches. The registry guarantees handles stay valid
// across reset() and later registrations (DESIGN.md §8), so each (name,
// labels) pair is resolved once per Meteorograph and the hot record_*
// paths touch no strings, vectors, or map lookups afterwards.

obs::Counter& Meteorograph::op_count(obs::OpKind op, const char* outcome) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  for (OpSeries::OutcomeCounter& entry : series.count) {
    if (std::strcmp(entry.label, outcome) == 0) return entry.counter;
  }
  series.count.push_back(
      {outcome, metrics_.counter(obs::names::kOpCount,
                                 {{obs::names::kLabelOp, obs::to_string(op)},
                                  {obs::names::kLabelOutcome, outcome}})});
  return series.count.back().counter;
}

obs::Counter& Meteorograph::op_messages(obs::OpKind op) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (!series.messages.has_value()) {
    series.messages.emplace(metrics_.counter(
        obs::names::kOpMessages, {{obs::names::kLabelOp, obs::to_string(op)}}));
  }
  return *series.messages;
}

obs::Histogram& Meteorograph::op_route_hops(obs::OpKind op) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (!series.route_hops.has_value()) {
    series.route_hops.emplace(metrics_.histogram(
        obs::names::kOpRouteHops, obs::hop_buckets(),
        {{obs::names::kLabelOp, obs::to_string(op)}}));
  }
  return *series.route_hops;
}

obs::Histogram& Meteorograph::op_walk_hops(obs::OpKind op) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (!series.walk_hops.has_value()) {
    series.walk_hops.emplace(metrics_.histogram(
        obs::names::kOpWalkHops, obs::hop_buckets(),
        {{obs::names::kLabelOp, obs::to_string(op)}}));
  }
  return *series.walk_hops;
}

obs::Histogram& Meteorograph::op_naming_probes(obs::OpKind op) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (!series.naming_probes.has_value()) {
    series.naming_probes.emplace(metrics_.histogram(
        obs::names::kNamingProbes, obs::hop_buckets(),
        {{obs::names::kLabelOp, obs::to_string(op)}}));
  }
  return *series.naming_probes;
}

obs::Histogram& Meteorograph::op_naming_keys(obs::OpKind op) {
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (!series.naming_keys.has_value()) {
    series.naming_keys.emplace(metrics_.histogram(
        obs::names::kNamingKeys, obs::hop_buckets(),
        {{obs::names::kLabelOp, obs::to_string(op)}}));
  }
  return *series.naming_keys;
}

void Meteorograph::record_fault_stats(obs::OpKind op,
                                      const overlay::HopStats& stats) {
  // Series are created lazily — on the first *nonzero* stat — so
  // fault-free runs keep a fault-free metrics map (byte-identical to a
  // run without any hook attached).
  OpSeries& series = op_series_[static_cast<std::size_t>(op)];
  if (stats.retries != 0) {
    if (!series.fault_retries.has_value()) {
      series.fault_retries.emplace(metrics_.counter(
          obs::names::kFaultRetries,
          {{obs::names::kLabelOp, obs::to_string(op)}}));
    }
    *series.fault_retries += stats.retries;
  }
  if (stats.timeouts != 0) {
    if (!series.fault_timeouts.has_value()) {
      series.fault_timeouts.emplace(metrics_.counter(
          obs::names::kFaultTimeouts,
          {{obs::names::kLabelOp, obs::to_string(op)}}));
    }
    *series.fault_timeouts += stats.timeouts;
  }
  if (stats.reroutes != 0) {
    if (!series.fault_reroutes.has_value()) {
      series.fault_reroutes.emplace(metrics_.counter(
          obs::names::kFaultReroutes,
          {{obs::names::kLabelOp, obs::to_string(op)}}));
    }
    *series.fault_reroutes += stats.reroutes;
  }
  if (stats.timeout_cost != 0.0) {
    if (!series.fault_timeout_cost.has_value()) {
      series.fault_timeout_cost.emplace(metrics_.histogram(
          obs::names::kFaultTimeoutCost, obs::cost_buckets(),
          {{obs::names::kLabelOp, obs::to_string(op)}}));
    }
    series.fault_timeout_cost->observe(stats.timeout_cost);
  }
}

void Meteorograph::sync_node_data() {
  if (node_data_.size() < overlay_.size()) {
    node_data_.resize(overlay_.size());
  }
  // Capability classes are assigned at join time: class i (probability
  // proportional to capability_weights[i]) holds node_capacity * 2^i.
  if (node_capacity_.size() < node_data_.size()) {
    std::optional<AliasTable> classes;
    if (config_.node_capacity != 0 && !config_.capability_weights.empty()) {
      classes.emplace(config_.capability_weights);
    }
    while (node_capacity_.size() < node_data_.size()) {
      std::size_t capacity = config_.node_capacity;
      if (classes.has_value()) capacity <<= (*classes)(rng_);
      node_capacity_.push_back(capacity);
    }
  }
}

std::size_t Meteorograph::capacity_of(overlay::NodeId id) const {
  METEO_EXPECTS(id < node_capacity_.size());
  return node_capacity_[id];
}

std::vector<std::size_t> Meteorograph::node_loads() const {
  std::vector<std::size_t> loads;
  std::vector<overlay::NodeId>& nodes = op_scratch().homes;
  overlay_.alive_nodes(nodes);
  loads.reserve(nodes.size());
  for (const overlay::NodeId id : nodes) {
    loads.push_back(id < node_data_.size() ? node_data_[id].items.size() : 0);
  }
  return loads;
}

const AngleStore& Meteorograph::store_of(overlay::NodeId id) const {
  METEO_EXPECTS(id < node_data_.size());
  return node_data_[id].items;
}

}  // namespace meteo::core
