/// The traced run's probe pass: single-threaded calls, each inside a span,
/// into the facade and straight into the layers below it, on the
/// workload's own system after its measured phase. Calls that take well
/// under a microsecond share one span per loop (Span::calls records how
/// many), so the clock reads do not swamp them.

#include <algorithm>
#include <numeric>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "meteorograph/epoch.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLayerSamples = 2048;
constexpr std::size_t kLocateSamples = 1024;
constexpr std::size_t kRetrieveSamples = 256;
constexpr std::size_t kPublishSamples = 256;
constexpr std::size_t kWithdrawSamples = 8;
constexpr std::size_t kDepartSamples = 4;
constexpr std::size_t kIdleSeals = 16;
constexpr std::size_t kMatchAllNodeCap = 64;
/// Probe publishes use ids past the corpus, so no corpus item changes.
constexpr vsm::ItemId kProbeIdBase = 1'000'000'000;

double mean_call_seconds(const SpanLog& spans, const char* name) {
  const std::uint64_t calls = spans.total_calls(name);
  return calls == 0 ? 0.0
                    : spans.total_seconds(name) / static_cast<double>(calls);
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

FacadeCosts probe_layers(Loaded& loaded, const ProbeInputs& in,
                         const Seeds& seeds, SpanLog& spans, Report& report) {
  core::Meteorograph& sys = *loaded.sys;
  const bench::Workload& wl = loaded.wl;
  const overlay::Overlay& net = sys.network();
  (void)sys.set_fault_hook(nullptr);
  spans.set_enabled(true);
  meteo::Rng rng(seeds.probe);

  std::vector<const vsm::SparseVector*> vectors;
  for (std::size_t i = 0; i < kLayerSamples; ++i) {
    vectors.push_back(&wl.vectors[rng.below(wl.vectors.size())]);
  }
  FacadeCosts costs;

  // --- facade reads ----------------------------------------------------------
  const std::size_t locates = std::min(kLocateSamples, in.locate_items.size());
  for (std::size_t i = 0; i < locates; ++i) {
    const vsm::ItemId id = in.locate_items[i];
    auto span = spans.open("meteorograph.locate", static_cast<std::int64_t>(i));
    (void)sys.locate(id, wl.vectors[id]);
  }
  costs.locate = mean_call_seconds(spans, "meteorograph.locate");

  const std::size_t retrieves =
      std::min(kRetrieveSamples, in.retrieve_queries.size());
  for (std::size_t i = 0; i < retrieves; ++i) {
    auto span =
        spans.open("meteorograph.retrieve", static_cast<std::int64_t>(i));
    (void)sys.retrieve(*in.retrieve_queries[i], in.retrieve_amount);
  }
  costs.retrieve = mean_call_seconds(spans, "meteorograph.retrieve");

  std::vector<std::size_t> visited;
  std::size_t lookup_messages = 0;
  for (std::size_t i = 0; i < in.searches.size(); ++i) {
    const core::SearchOp& op = in.searches[i];
    core::SearchResult r;
    {
      auto span =
          spans.open("meteorograph.search", static_cast<std::int64_t>(i));
      r = sys.similarity_search(op.keywords, op.k);
    }
    visited.push_back(r.nodes_visited);
    lookup_messages += r.lookup_messages;
  }
  costs.search = mean_call_seconds(spans, "meteorograph.search");

  for (std::size_t i = 0; i < in.ranges.size(); ++i) {
    const core::RangeSearchOp& op = in.ranges[i];
    auto span = spans.open("meteorograph.range", static_cast<std::int64_t>(i));
    (void)sys.range_search(op.attribute, op.lo, op.hi);
  }
  costs.range = mean_call_seconds(spans, "meteorograph.range");

  // --- naming, overlay and node-local vsm, called directly -------------------
  std::vector<overlay::Key> keys;
  std::vector<overlay::NodeId> sources;
  for (const vsm::SparseVector* v : vectors) {
    keys.push_back(sys.balanced_key(*v));
    sources.push_back(net.random_alive(rng));
  }
  {
    auto span = spans.open("naming.primary_key");
    span.set_calls(vectors.size());
    for (const vsm::SparseVector* v : vectors) {
      (void)sys.naming_strategy().primary_key(*v);
    }
  }
  std::size_t route_hops = 0;
  {
    auto span = spans.open("overlay.route");
    span.set_calls(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      route_hops += net.route(sources[i], keys[i]).hops;
    }
  }
  std::vector<overlay::NodeId> homes;
  {
    auto span = spans.open("overlay.closest_nodes");
    span.set_calls(keys.size());
    for (const overlay::Key key : keys) {
      net.closest_nodes(key, sys.config().replicas, homes);
    }
  }
  std::vector<overlay::NodeId> home_of;
  for (const vsm::SparseVector* v : vectors) {
    home_of.push_back(net.closest_alive(sys.naming_strategy().primary_key(*v)));
  }
  std::vector<vsm::ScoredItem> scored;
  {
    auto span = spans.open("vsm.home_top_k");
    span.set_calls(vectors.size());
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      sys.store_of(home_of[i]).top_k(*vectors[i], 10, scored);
    }
  }
  // A search for keyword kw visits nodes_visited directory nodes; the
  // probe scans that many consecutive nodes from kw's raw key.
  std::vector<vsm::ItemId> matched;
  for (std::size_t i = 0; i < in.searches.size(); ++i) {
    const vsm::KeywordId kw = in.searches[i].keywords.front();
    const vsm::SparseVector single = vsm::SparseVector::binary({&kw, 1});
    std::vector<overlay::NodeId> nodes;
    overlay::NodeId node = net.closest_alive(sys.raw_key(single));
    while (node != overlay::kInvalidNode &&
           nodes.size() < std::min(visited[i], kMatchAllNodeCap)) {
      nodes.push_back(node);
      node = net.successor(node);
    }
    auto span =
        spans.open("vsm.home_match_all", static_cast<std::int64_t>(i));
    span.set_calls(nodes.size());
    for (const overlay::NodeId n : nodes) {
      sys.store_of(n).match_all({&kw, 1}, matched);
    }
  }
  {
    vsm::LocalIndex index;
    std::vector<vsm::SparseVector> copies;
    for (const vsm::SparseVector* v : vectors) copies.push_back(*v);
    {
      auto span = spans.open("vsm.index_insert");
      span.set_calls(copies.size());
      for (std::size_t i = 0; i < copies.size(); ++i) {
        index.insert(i, std::move(copies[i]));
      }
    }
    std::vector<vsm::ItemId> order(copies.size());
    std::iota(order.begin(), order.end(), vsm::ItemId{0});
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(order.size() / 2);
    auto span = spans.open("vsm.index_erase");
    span.set_calls(order.size());
    for (const vsm::ItemId id : order) (void)index.erase(id);
  }

  const std::vector<std::size_t> loads = sys.node_loads();
  const std::vector<double> load_values(loads.begin(), loads.end());

  // --- epoch: the fixed cost of sealing an empty window ----------------------
  {
    core::EpochEngine engine(
        sys, {.workers = kWorkers, .seed = seeds.engine, .defer_read = {}});
    for (std::size_t i = 0; i < kIdleSeals; ++i) {
      auto span = spans.open("epoch.seal", static_cast<std::int64_t>(i));
      (void)engine.seal();
    }
  }

  // --- facade writes, last: they change the system ---------------------------
  std::size_t chain_hops = 0;
  for (std::size_t i = 0; i < kPublishSamples; ++i) {
    core::PublishResult r;
    {
      auto span =
          spans.open("meteorograph.publish", static_cast<std::int64_t>(i));
      r = sys.publish(kProbeIdBase + i, *vectors[i]);
    }
    chain_hops += r.chain_hops;
  }
  costs.publish = mean_call_seconds(spans, "meteorograph.publish");
  for (std::size_t i = 0; i < kWithdrawSamples; ++i) {
    auto span =
        spans.open("meteorograph.withdraw", static_cast<std::int64_t>(i));
    (void)sys.withdraw(kProbeIdBase + i, *vectors[i]);
  }
  costs.withdraw = mean_call_seconds(spans, "meteorograph.withdraw");
  for (std::size_t i = 0; i < kDepartSamples; ++i) {
    const overlay::NodeId node = net.random_alive(rng);
    auto span = spans.open("meteorograph.depart", static_cast<std::int64_t>(i));
    (void)sys.depart_node(node);
  }
  costs.depart = mean_call_seconds(spans, "meteorograph.depart");

  report.metric("naming.primary_key_us",
                mean_call_seconds(spans, "naming.primary_key") * 1e6, "us");
  report.metric("overlay.route_us",
                mean_call_seconds(spans, "overlay.route") * 1e6, "us");
  report.metric("overlay.route_hops", ratio(route_hops, keys.size()), "hops");
  report.metric("overlay.closest_nodes_us",
                mean_call_seconds(spans, "overlay.closest_nodes") * 1e6, "us");
  report.metric("vsm.home_top_k_us",
                mean_call_seconds(spans, "vsm.home_top_k") * 1e6, "us");
  report.metric("vsm.home_match_all_us",
                mean_call_seconds(spans, "vsm.home_match_all") * 1e6, "us");
  report.metric("vsm.index_insert_us",
                mean_call_seconds(spans, "vsm.index_insert") * 1e6, "us");
  report.metric("vsm.index_erase_us",
                mean_call_seconds(spans, "vsm.index_erase") * 1e6, "us");
  report.metric("vsm.store_items_max",
                *std::max_element(load_values.begin(), load_values.end()),
                "count");
  report.metric("vsm.store_items_gini", meteo::gini(load_values), "ratio");
  report.metric("epoch.seal_idle_ms",
                median(spans.per_call_seconds("epoch.seal")).value * 1e3,
                "ms");
  report.metric("meteorograph.locate_us", costs.locate * 1e6, "us");
  report.metric("meteorograph.retrieve_us", costs.retrieve * 1e6, "us");
  report.metric("meteorograph.search_us", costs.search * 1e6, "us");
  report.metric("meteorograph.range_us", costs.range * 1e6, "us");
  report.metric("meteorograph.publish_us", costs.publish * 1e6, "us");
  report.metric("meteorograph.withdraw_ms", costs.withdraw * 1e3, "ms");
  report.metric("meteorograph.depart_ms", costs.depart * 1e3, "ms");
  report.metric(
      "meteorograph.search_nodes_visited",
      ratio(std::accumulate(visited.begin(), visited.end(), std::size_t{0}),
            visited.size()),
      "nodes/op");
  report.metric("meteorograph.search_lookup_msgs",
                ratio(lookup_messages, in.searches.size()), "msgs/op");
  report.metric("meteorograph.publish_chain_hops",
                in.publish_chain_hops.value_or(
                    ratio(chain_hops, kPublishSamples)),
                "hops/op");
  return costs;
}

}  // namespace perfbench
