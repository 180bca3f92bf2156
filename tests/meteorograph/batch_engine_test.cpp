#include "meteorograph/epoch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct TestWorkload {
  workload::Trace trace;
  std::vector<double> weights;
  std::vector<vsm::SparseVector> vectors;  // all items, index = ItemId
  std::vector<vsm::SparseVector> sample;
};

TestWorkload make_workload(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.num_items = items;
  cfg.num_keywords = 2000;
  cfg.mean_basket = 10.0;
  cfg.max_basket = 100;
  workload::Trace trace = workload::synthesize_trace(cfg, seed);
  std::vector<double> weights =
      trace.keyword_weights(workload::WeightScheme::kIdf);
  std::vector<vsm::SparseVector> vectors;
  vectors.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    vectors.push_back(trace.vector_of(i, weights));
  }
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < items; i += 37) sample.push_back(vectors[i]);
  return TestWorkload{std::move(trace), std::move(weights),
                      std::move(vectors), std::move(sample)};
}

SystemConfig small_config(std::size_t nodes = 60) {
  SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = 2000;
  cfg.load_balance = LoadBalanceMode::kUnusedHashSpace;
  return cfg;
}

Meteorograph make_published_system(const TestWorkload& wl,
                                   std::uint64_t seed) {
  Meteorograph sys(small_config(), wl.sample, seed);
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    EXPECT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  return sys;
}

/// Byte-exact digest of the whole metric registry: the CSV export covers
/// every counter, gauge, and histogram (count/sum/min/max plus buckets)
/// with full-precision values, so any divergence shows up.
std::string metric_fingerprint(const obs::MetricRegistry& metrics) {
  return obs::metrics_to_csv(metrics);
}

/// Fingerprint minus the `system.stored_items` gauge, which by design is
/// set only at batch barriers (so its value never depends on which of a
/// window's ops committed first) — a facade run never takes a barrier, so
/// facade-vs-engine comparisons must exempt that single series
/// (DESIGN.md §8).
std::string barrier_free_fingerprint(const obs::MetricRegistry& metrics) {
  std::istringstream in(metric_fingerprint(metrics));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("system.stored_items") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<LocateOp> locate_ops(const TestWorkload& wl) {
  std::vector<LocateOp> ops;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    ops.push_back(LocateOp{id, &wl.vectors[id], {}});
  }
  return ops;
}

void expect_equal(const LocateResult& a, const LocateResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.found, b.found) << "op " << i;
  EXPECT_EQ(a.node, b.node) << "op " << i;
  EXPECT_EQ(a.via_replica, b.via_replica) << "op " << i;
  EXPECT_EQ(a.route_hops, b.route_hops) << "op " << i;
  EXPECT_EQ(a.walk_hops, b.walk_hops) << "op " << i;
  EXPECT_EQ(a.fault_blocked, b.fault_blocked) << "op " << i;
}

void expect_equal(const RetrieveResult& a, const RetrieveResult& b,
                  std::size_t i) {
  ASSERT_EQ(a.items.size(), b.items.size()) << "op " << i;
  for (std::size_t j = 0; j < a.items.size(); ++j) {
    EXPECT_EQ(a.items[j].id, b.items[j].id) << "op " << i;
    EXPECT_EQ(a.items[j].score, b.items[j].score) << "op " << i;
  }
  EXPECT_EQ(a.route_hops, b.route_hops) << "op " << i;
  EXPECT_EQ(a.walk_hops, b.walk_hops) << "op " << i;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << "op " << i;
  EXPECT_EQ(a.partial, b.partial) << "op " << i;
  EXPECT_EQ(a.items_missed, b.items_missed) << "op " << i;
}

void expect_equal(const SearchResult& a, const SearchResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.items, b.items) << "op " << i;
  EXPECT_EQ(a.discovery_hops, b.discovery_hops) << "op " << i;
  EXPECT_EQ(a.total_messages(), b.total_messages()) << "op " << i;
  EXPECT_EQ(a.partial, b.partial) << "op " << i;
}

void expect_equal(const PublishResult& a, const PublishResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.success, b.success) << "op " << i;
  EXPECT_EQ(a.home, b.home) << "op " << i;
  EXPECT_EQ(a.stored_at, b.stored_at) << "op " << i;
  EXPECT_EQ(a.route_hops, b.route_hops) << "op " << i;
  EXPECT_EQ(a.chain_hops, b.chain_hops) << "op " << i;
  EXPECT_EQ(a.replica_messages, b.replica_messages) << "op " << i;
  EXPECT_EQ(a.pointer_messages, b.pointer_messages) << "op " << i;
  EXPECT_EQ(a.degraded, b.degraded) << "op " << i;
}

void expect_equal(const WithdrawResult& a, const WithdrawResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.removed, b.removed) << "op " << i;
  EXPECT_EQ(a.replicas_removed, b.replicas_removed) << "op " << i;
  EXPECT_EQ(a.pointer_removed, b.pointer_removed) << "op " << i;
  EXPECT_EQ(a.messages, b.messages) << "op " << i;
}

void expect_equal(const RangeSearchResult& a, const RangeSearchResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.matches, b.matches) << "op " << i;
  EXPECT_EQ(a.route_hops, b.route_hops) << "op " << i;
  EXPECT_EQ(a.walk_hops, b.walk_hops) << "op " << i;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << "op " << i;
  EXPECT_EQ(a.partial, b.partial) << "op " << i;
}

void expect_equal(const DepartResult& a, const DepartResult& b,
                  std::size_t i) {
  EXPECT_EQ(a.departed, b.departed) << "op " << i;
  EXPECT_EQ(a.items_transferred, b.items_transferred) << "op " << i;
  EXPECT_EQ(a.replicas_transferred, b.replicas_transferred) << "op " << i;
  EXPECT_EQ(a.pointers_transferred, b.pointers_transferred) << "op " << i;
  EXPECT_EQ(a.attribute_records_transferred,
            b.attribute_records_transferred)
      << "op " << i;
  EXPECT_EQ(a.messages, b.messages) << "op " << i;
}

// --- determinism: 1 worker vs N workers ------------------------------------

TEST(BatchDeterminism, LocateBatchIdenticalAcrossWorkerCounts) {
  const TestWorkload wl = make_workload(150, 11);
  Meteorograph sys1 = make_published_system(wl, 11);
  Meteorograph sys4 = make_published_system(wl, 11);

  const std::vector<LocateOp> ops = locate_ops(wl);
  EpochEngine engine1(sys1, {.workers = 1, .seed = 7});
  EpochEngine engine4(sys4, {.workers = 4, .seed = 7});
  const auto r1 = engine1.locate(ops);
  const auto r4 = engine4.locate(ops);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_equal(r1[i], r4[i], i);
  EXPECT_EQ(metric_fingerprint(sys1.metrics()),
            metric_fingerprint(sys4.metrics()));
}

TEST(BatchDeterminism, RetrieveAndSearchBatchesIdenticalAcrossWorkerCounts) {
  const TestWorkload wl = make_workload(120, 12);
  Meteorograph sys1 = make_published_system(wl, 12);
  Meteorograph sys4 = make_published_system(wl, 12);

  std::vector<RetrieveOp> retrieves;
  for (vsm::ItemId id = 0; id < 60; ++id) {
    retrieves.push_back(RetrieveOp{&wl.vectors[id], 5, {}});
  }
  std::vector<std::vector<vsm::KeywordId>> queries;
  queries.reserve(40);  // spans into elements: no reallocation allowed
  std::vector<SearchOp> searches;
  for (vsm::ItemId id = 0; id < 40; ++id) {
    queries.push_back({wl.vectors[id].entries()[0].keyword});
    searches.push_back(SearchOp{queries.back(), 4, {}});
  }

  EpochEngine engine1(sys1, {.workers = 1, .seed = 3});
  EpochEngine engine4(sys4, {.workers = 4, .seed = 3});
  const auto rr1 = engine1.retrieve(retrieves);
  const auto rr4 = engine4.retrieve(retrieves);
  const auto sr1 = engine1.similarity_search(searches);
  const auto sr4 = engine4.similarity_search(searches);

  ASSERT_EQ(rr1.size(), rr4.size());
  for (std::size_t i = 0; i < rr1.size(); ++i) expect_equal(rr1[i], rr4[i], i);
  ASSERT_EQ(sr1.size(), sr4.size());
  for (std::size_t i = 0; i < sr1.size(); ++i) expect_equal(sr1[i], sr4[i], i);
  EXPECT_EQ(metric_fingerprint(sys1.metrics()),
            metric_fingerprint(sys4.metrics()));
}

TEST(BatchDeterminism, FaultedLocateBatchIdenticalAcrossWorkerCounts) {
  const TestWorkload wl = make_workload(150, 13);
  Meteorograph sys1 = make_published_system(wl, 13);
  Meteorograph sys4 = make_published_system(wl, 13);
  sim::FaultPlan plan1({.drop_rate = 0.05}, 99);
  sim::FaultPlan plan4({.drop_rate = 0.05}, 99);
  ASSERT_TRUE(sys1.set_fault_hook(&plan1));
  ASSERT_TRUE(sys4.set_fault_hook(&plan4));

  const std::vector<LocateOp> ops = locate_ops(wl);
  EpochEngine engine1(sys1, {.workers = 1, .seed = 21});
  EpochEngine engine4(sys4, {.workers = 4, .seed = 21});
  const auto r1 = engine1.locate(ops);
  const auto r4 = engine4.locate(ops);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_equal(r1[i], r4[i], i);
  // Faults actually fired, and identically on both sides: totals are
  // order-independent sums of the per-op scope tallies.
  EXPECT_GT(plan1.dropped(), 0u);
  EXPECT_EQ(plan1.messages_seen(), plan4.messages_seen());
  EXPECT_EQ(plan1.dropped(), plan4.dropped());
  EXPECT_EQ(metric_fingerprint(sys1.metrics()),
            metric_fingerprint(sys4.metrics()));
}

TEST(BatchDeterminism, PublishBatchIdenticalAcrossWorkerCounts) {
  const TestWorkload wl = make_workload(150, 14);
  Meteorograph sys1(small_config(), wl.sample, 14);
  Meteorograph sys4(small_config(), wl.sample, 14);

  std::vector<PublishOp> ops;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    ops.push_back(PublishOp{id, &wl.vectors[id], {}});
  }
  EpochEngine engine1(sys1, {.workers = 1, .seed = 5});
  EpochEngine engine4(sys4, {.workers = 4, .seed = 5});
  const auto r1 = engine1.publish(ops);
  const auto r4 = engine4.publish(ops);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_equal(r1[i], r4[i], i);
  EXPECT_EQ(sys1.stored_item_count(), sys4.stored_item_count());
  EXPECT_EQ(sys1.node_loads(), sys4.node_loads());
  EXPECT_EQ(metric_fingerprint(sys1.metrics()),
            metric_fingerprint(sys4.metrics()));
}

// --- engine vs sequential facade -------------------------------------------

TEST(BatchEngine, MatchesSequentialFacadeWithPinnedSource) {
  const TestWorkload wl = make_workload(100, 15);
  Meteorograph facade_sys = make_published_system(wl, 15);
  Meteorograph engine_sys = make_published_system(wl, 15);

  // Pinning `from` removes the only RNG draw in locate, so the engine's
  // per-op substreams cannot diverge from the facade's shared stream.
  const overlay::NodeId source = 0;
  std::vector<LocateOp> ops;
  std::vector<LocateResult> expected;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    ops.push_back(LocateOp{id, &wl.vectors[id], {.from = source}});
    expected.push_back(facade_sys.locate(id, wl.vectors[id], {.from = source}));
  }
  EpochEngine engine(engine_sys, {.workers = 4});
  const auto results = engine.locate(ops);

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_equal(results[i], expected[i], i);
  }
  EXPECT_EQ(barrier_free_fingerprint(facade_sys.metrics()),
            barrier_free_fingerprint(engine_sys.metrics()));
}

TEST(BatchEngine, WithdrawBatchRemovesItems) {
  const TestWorkload wl = make_workload(80, 16);
  Meteorograph sys = make_published_system(wl, 16);

  std::vector<WithdrawOp> ops;
  for (vsm::ItemId id = 0; id < 40; ++id) {
    ops.push_back(WithdrawOp{id, &wl.vectors[id], {}});
  }
  EpochEngine engine(sys, {.workers = 4});
  const auto results = engine.withdraw(ops);
  ASSERT_EQ(results.size(), ops.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].removed) << "op " << i;
  }
  EXPECT_EQ(sys.stored_item_count(), wl.vectors.size() - ops.size());
}

// Sealed windows' withdraws unlink directory pointers at once, as facade
// withdraws do, leaving holes and compacting the busiest directory node
// once they are half of it. Searches must see the same pointers, in the
// same order, as on the facade twin. Reads get windows of their own: a
// sealed read sees the epoch before its window's writes.
TEST(BatchEngine, WithdrawHeavySealedWindowsMatchFacade) {
  const TestWorkload wl = make_workload(320, 22);
  const vsm::ItemId preloaded = 240;  // the rest publish inside windows
  Meteorograph facade_sys(small_config(32), wl.sample, 22);
  Meteorograph engine_sys(small_config(32), wl.sample, 22);
  // Pinning `from` keeps every op's result off the RNG streams, which the
  // facade shares and the engine splits per op.
  const overlay::NodeId source = 0;
  for (vsm::ItemId id = 0; id < preloaded; ++id) {
    for (Meteorograph* sys : {&facade_sys, &engine_sys}) {
      ASSERT_TRUE(sys->publish(id, wl.vectors[id], {.from = source}).success);
    }
  }

  // Fault-free, a pointer lives on the node closest to its raw key.
  auto pointer_home = [&](vsm::ItemId id) {
    return facade_sys.network().closest_alive(
        facade_sys.raw_key(wl.vectors[id]));
  };
  std::map<overlay::NodeId, std::size_t> pointers;
  for (vsm::ItemId id = 0; id < preloaded; ++id) ++pointers[pointer_home(id)];
  const overlay::NodeId busiest =
      std::max_element(pointers.begin(), pointers.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  std::size_t added_there = pointers[busiest];
  std::size_t withdrawn_there = 0;

  std::vector<std::vector<vsm::KeywordId>> queries;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); id += 20) {
    queries.push_back({wl.vectors[id].entries()[0].keyword});
  }
  std::vector<SearchOp> searches;
  for (const std::vector<vsm::KeywordId>& q : queries) {
    searches.push_back(SearchOp{q, 4, {.from = source}});
    searches.push_back(SearchOp{q, 0, {.from = source}});  // discover-all
  }

  struct Write {
    bool publish = false;
    vsm::ItemId id = 0;
  };
  EpochEngine engine(engine_sys, {.workers = 2, .seed = 9});
  Rng rng(22);
  std::vector<vsm::ItemId> live(preloaded);
  std::iota(live.begin(), live.end(), vsm::ItemId{0});
  vsm::ItemId fresh = preloaded;
  // Until over half the busiest node's pointers are gone, which compacts
  // it at least once.
  for (std::size_t window = 0; 2 * withdrawn_there <= added_there; ++window) {
    ASSERT_LT(window, 60u) << "the busiest node never lost half its pointers";
    SCOPED_TRACE(window);
    std::vector<Write> writes;
    for (std::size_t i = 0; i < 12 && !live.empty(); ++i) {
      if (fresh < wl.vectors.size() && rng.chance(0.25)) {
        writes.push_back({true, fresh});
        live.push_back(fresh++);
      } else {
        const std::size_t pick = rng.below(live.size());
        writes.push_back({false, live[pick]});
        live[pick] = live.back();
        live.pop_back();
      }
    }
    for (const Write& w : writes) {
      const vsm::SparseVector* v = &wl.vectors[w.id];
      if (w.publish) {
        engine.submit(PublishOp{w.id, v, {.from = source}});
      } else {
        engine.submit(WithdrawOp{w.id, v, {.from = source}});
      }
    }
    const EpochEngine::SealedEpoch written = engine.seal();
    ASSERT_EQ(written.results.size(), writes.size());
    for (std::size_t i = 0; i < writes.size(); ++i) {
      const vsm::ItemId id = writes[i].id;
      if (writes[i].publish) {
        expect_equal(std::get<PublishResult>(written.results[i]),
                     facade_sys.publish(id, wl.vectors[id], {.from = source}),
                     i);
        if (pointer_home(id) == busiest) ++added_there;
        continue;
      }
      const auto& got = std::get<WithdrawResult>(written.results[i]);
      expect_equal(got,
                   facade_sys.withdraw(id, wl.vectors[id], {.from = source}),
                   i);
      if (got.pointer_removed && pointer_home(id) == busiest) {
        ++withdrawn_there;
      }
    }

    for (const SearchOp& op : searches) engine.submit(op);
    const EpochEngine::SealedEpoch read = engine.seal();
    ASSERT_EQ(read.results.size(), searches.size());
    for (std::size_t i = 0; i < searches.size(); ++i) {
      const auto& got = std::get<SearchResult>(read.results[i]);
      const SearchResult want = facade_sys.similarity_search(
          searches[i].keywords, searches[i].k, searches[i].options);
      expect_equal(got, want, i);
      EXPECT_EQ(got.lookup_messages, want.lookup_messages) << "op " << i;
      EXPECT_EQ(got.nodes_visited, want.nodes_visited) << "op " << i;
    }
  }
}

// LSI ranking builds a node's model inside each read and caches nothing,
// so a sealed window's parallel retrieves may rank on one node at once
// and still equal the facade's.
TEST(BatchEngine, LsiRetrieveSealedWindowMatchesFacade) {
  const TestWorkload wl = make_workload(120, 24);
  SystemConfig cfg = small_config(30);
  cfg.local_ranking = LocalRanking::kLsi;
  cfg.lsi_rank = 4;
  Meteorograph facade_sys(cfg, wl.sample, 24);
  Meteorograph engine_sys(cfg, wl.sample, 24);
  const overlay::NodeId source = 0;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    for (Meteorograph* sys : {&facade_sys, &engine_sys}) {
      ASSERT_TRUE(sys->publish(id, wl.vectors[id], {.from = source}).success);
    }
  }

  EpochEngine engine(engine_sys, {.workers = 2});
  std::vector<RetrieveResult> want;
  std::size_t hits = 0;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); id += 3) {
    (void)engine.submit(RetrieveOp{&wl.vectors[id], 5, {.from = source}});
    want.push_back(facade_sys.retrieve(wl.vectors[id], 5, {.from = source}));
    hits += want.back().items.size();
  }
  EXPECT_GT(hits, 0u);
  const EpochEngine::SealedEpoch sealed = engine.seal();
  ASSERT_EQ(sealed.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_equal(std::get<RetrieveResult>(sealed.results[i]), want[i], i);
  }
}

/// One op of a mixed window, replayable on the engine and on the facade.
struct MixedOp {
  enum class Kind { kLocate, kRetrieve, kSearch, kRange, kPublish, kWithdraw,
                    kDepart };
  Kind kind = Kind::kLocate;
  vsm::ItemId id = 0;  ///< the item, or the item whose vector is the query
  std::size_t k = 0;   ///< search: 0 = discover all
  double lo = 0.0;     ///< range: [lo, lo + kRangeWidth]
  overlay::NodeId node = overlay::kInvalidNode;  ///< depart

  static constexpr double kRangeWidth = 40.0;

  [[nodiscard]] bool writes() const { return kind >= Kind::kPublish; }
};

// A sealed window runs every read before its first write, so its results
// must equal the facade running the window's reads in window order and
// then its writes in window order — also for reads submitted after the
// writes they would otherwise observe.
TEST(BatchEngine, MixedSealedWindowMatchesFacadeReadsFirst) {
  const TestWorkload wl = make_workload(300, 23);
  const vsm::ItemId preloaded = 240;  // later ids publish inside windows
  Meteorograph facade_sys(small_config(40), wl.sample, 23);
  Meteorograph engine_sys(small_config(40), wl.sample, 23);
  // Pinning `from` keeps every op's result off the RNG streams, which the
  // facade shares and the engine splits per op. The source never departs.
  const overlay::NodeId source = 0;
  AttributeId attr = 0;
  for (Meteorograph* sys : {&facade_sys, &engine_sys}) {
    attr = sys->register_attribute(0.0, 300.0);
    for (vsm::ItemId id = 0; id < preloaded; ++id) {
      ASSERT_TRUE(sys->publish(id, wl.vectors[id], {.from = source}).success);
      if (id % 4 == 0) {
        (void)sys->publish_attribute(id, attr, static_cast<double>(id),
                                     {.from = source});
      }
    }
  }
  const auto keyword_of = [&](vsm::ItemId id) {
    return std::span<const vsm::KeywordId>(&wl.vectors[id].entries()[0].keyword,
                                           1);
  };
  const auto on_facade = [&](const MixedOp& op) -> EpochEngine::OpResult {
    const vsm::SparseVector& v = wl.vectors[op.id];
    switch (op.kind) {
      case MixedOp::Kind::kLocate:
        return facade_sys.locate(op.id, v, {.from = source});
      case MixedOp::Kind::kRetrieve:
        return facade_sys.retrieve(v, 5, {.from = source});
      case MixedOp::Kind::kSearch:
        return facade_sys.similarity_search(keyword_of(op.id), op.k,
                                            {.from = source});
      case MixedOp::Kind::kRange:
        return facade_sys.range_search(attr, op.lo,
                                       op.lo + MixedOp::kRangeWidth,
                                       {.from = source});
      case MixedOp::Kind::kPublish:
        return facade_sys.publish(op.id, v, {.from = source});
      case MixedOp::Kind::kWithdraw:
        return facade_sys.withdraw(op.id, v, {.from = source});
      case MixedOp::Kind::kDepart:
        return facade_sys.depart_node(op.node);
    }
    return {};
  };
  EpochEngine engine(engine_sys, {.workers = 4, .seed = 23});
  const auto on_engine = [&](const MixedOp& op) {
    const vsm::SparseVector* v = &wl.vectors[op.id];
    switch (op.kind) {
      case MixedOp::Kind::kLocate:
        return engine.submit(LocateOp{op.id, v, {.from = source}});
      case MixedOp::Kind::kRetrieve:
        return engine.submit(RetrieveOp{v, 5, {.from = source}});
      case MixedOp::Kind::kSearch:
        return engine.submit(
            SearchOp{keyword_of(op.id), op.k, {.from = source}});
      case MixedOp::Kind::kRange:
        return engine.submit(RangeSearchOp{
            attr, op.lo, op.lo + MixedOp::kRangeWidth, {.from = source}});
      case MixedOp::Kind::kPublish:
        return engine.submit(PublishOp{op.id, v, {.from = source}});
      case MixedOp::Kind::kWithdraw:
        return engine.submit(WithdrawOp{op.id, v, {.from = source}});
      case MixedOp::Kind::kDepart:
        return engine.submit(DepartOp{op.node});
    }
    return std::size_t{0};
  };

  Rng rng(23);
  std::vector<vsm::ItemId> live(preloaded);
  std::iota(live.begin(), live.end(), vsm::ItemId{0});
  vsm::ItemId fresh = preloaded;
  using Kind = MixedOp::Kind;
  for (std::size_t window = 0; window < 6; ++window) {
    SCOPED_TRACE(window);
    // 21 ops in a random order: four publishes, four withdraws, one
    // depart, and twelve reads of every kind.
    std::vector<MixedOp> ops;
    for (std::size_t i = 0; i < 4; ++i) {
      ops.push_back({.kind = Kind::kPublish, .id = fresh++});
      const std::size_t pick = rng.below(live.size());
      ops.push_back({.kind = Kind::kWithdraw, .id = live[pick]});
      live[pick] = live.back();
      live.pop_back();
    }
    ops.push_back({.kind = Kind::kDepart,
                   .node = static_cast<overlay::NodeId>(5 + 6 * window)});
    for (std::size_t i = 0; i < 3; ++i) {
      ops.push_back({.kind = Kind::kLocate, .id = rng.below(fresh)});
      ops.push_back({.kind = Kind::kRetrieve, .id = rng.below(fresh)});
    }
    for (const std::size_t k : {4u, 4u, 0u, 0u}) {
      ops.push_back({.kind = Kind::kSearch, .id = rng.below(fresh), .k = k});
    }
    for (std::size_t i = 0; i < 2; ++i) {
      ops.push_back({.kind = Kind::kRange,
                     .lo = static_cast<double>(rng.below(260))});
    }
    for (std::size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[rng.below(i + 1)]);
    }
    // Three probes, each at a random position after the write it targets:
    // a locate of the first withdrawn item, and a locate and a
    // discover-all search for the first published one.
    std::vector<std::size_t> probes;
    const auto insert_after = [&](Kind target, MixedOp probe) {
      const auto at = std::find_if(ops.begin(), ops.end(), [&](const auto& o) {
        return o.kind == target;
      });
      probe.id = at->id;
      const auto first = static_cast<std::size_t>(at - ops.begin()) + 1;
      const std::size_t pos = first + rng.below(ops.size() - first + 1);
      ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(pos), probe);
      for (std::size_t& p : probes) p += p >= pos ? 1 : 0;
      probes.push_back(pos);
    };
    insert_after(Kind::kWithdraw, {.kind = Kind::kLocate});
    insert_after(Kind::kPublish, {.kind = Kind::kLocate});
    insert_after(Kind::kPublish, {.kind = Kind::kSearch, .k = 0});
    ASSERT_EQ(ops.size(), 24u);

    for (const MixedOp& op : ops) (void)on_engine(op);
    const EpochEngine::SealedEpoch sealed = engine.seal();
    std::vector<EpochEngine::OpResult> want(ops.size());
    for (const bool writes : {false, true}) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].writes() == writes) want[i] = on_facade(ops[i]);
      }
    }

    ASSERT_EQ(sealed.results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(sealed.results[i].index(), want[i].index()) << "op " << i;
      std::visit(
          [&](const auto& got) {
            using R = std::decay_t<decltype(got)>;
            expect_equal(got, std::get<R>(want[i]), i);
          },
          sealed.results[i]);
    }
    // The probes saw the state before the window's writes.
    EXPECT_TRUE(std::get<LocateResult>(sealed.results[probes[0]]).found);
    EXPECT_FALSE(std::get<LocateResult>(sealed.results[probes[1]]).found);
    const std::vector<vsm::ItemId>& found =
        std::get<SearchResult>(sealed.results[probes[2]]).items;
    EXPECT_EQ(std::count(found.begin(), found.end(), ops[probes[2]].id), 0);
  }
  EXPECT_EQ(engine_sys.node_loads(), facade_sys.node_loads());
  EXPECT_EQ(engine_sys.stored_item_count(), facade_sys.stored_item_count());
}

// --- the stored-items running count ---------------------------------------

/// Items held across every node's item store, dead and departed nodes
/// included: what stored_item_count() keeps as a running count.
std::size_t sum_of_stores(const Meteorograph& sys) {
  std::size_t total = 0;
  for (std::size_t id = 0; id < sys.network().size(); ++id) {
    total += sys.store_of(static_cast<overlay::NodeId>(id)).size();
  }
  return total;
}

/// Drives the count through every kind of item-store change — overflow
/// chains, chains that give an item up at the hop limit, re-publishes of
/// live ids, withdraws, departs, and crashes under 5% drop — in sealed
/// windows, and checks it against the stores after every seal and against
/// the gauge the next window sets.
void check_stored_count(NamingStrategyKind naming) {
  const TestWorkload wl = make_workload(300, 41);
  SystemConfig cfg = small_config(40);
  cfg.naming.strategy = naming;
  cfg.node_capacity = 8;
  cfg.publish_hop_limit = 3;
  Meteorograph sys(cfg, wl.sample, 41);
  sim::FaultPlan plan({.drop_rate = 0.05}, 41);
  plan.crash_at(300, 3);
  plan.crash_at(1200, 17);
  plan.crash_at(2400, 29);
  ASSERT_TRUE(sys.set_fault_hook(&plan));
  EpochEngine engine(sys, {.workers = 4, .seed = 41});
  Rng rng(41);

  std::vector<vsm::ItemId> live;
  vsm::ItemId fresh = 0;
  std::size_t chains_cut = 0;
  std::size_t departs = 0;
  std::size_t count_before = sys.stored_item_count();
  for (std::size_t window = 0; window < 10; ++window) {
    for (std::size_t i = 0; i < 30 && fresh < wl.vectors.size(); ++i) {
      (void)engine.submit(PublishOp{fresh, &wl.vectors[fresh], {}});
      live.push_back(fresh++);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      const vsm::ItemId id = live[rng.below(live.size())];
      (void)engine.submit(PublishOp{id, &wl.vectors[id], {}});
    }
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t pick = rng.below(live.size());
      const vsm::ItemId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      (void)engine.submit(WithdrawOp{id, &wl.vectors[id], {}});
    }
    (void)engine.submit(DepartOp{sys.network().random_alive(rng)});
    for (std::size_t i = 0; i < 3; ++i) {
      const vsm::ItemId id = live[rng.below(live.size())];
      (void)engine.submit(LocateOp{id, &wl.vectors[id], {}});
    }

    const EpochEngine::SealedEpoch sealed = engine.seal();
    for (const EpochEngine::OpResult& r : sealed.results) {
      if (const auto* pub = std::get_if<PublishResult>(&r)) {
        chains_cut += pub->success ? 0 : 1;
      } else if (const auto* dep = std::get_if<DepartResult>(&r)) {
        departs += dep->departed ? 1 : 0;
      }
    }
    ASSERT_EQ(sys.stored_item_count(), sum_of_stores(sys))
        << "window " << window;
    // The window's barrier set the gauge before any of its writes.
    EXPECT_EQ(sys.metrics().gauge_value(obs::names::kStoredItems),
              static_cast<double>(count_before))
        << "window " << window;
    count_before = sys.stored_item_count();
  }

  // Every path the count must follow actually ran.
  EXPECT_GT(chains_cut, 0u);
  EXPECT_GT(departs, 0u);
  EXPECT_GT(plan.dropped(), 0u);
  EXPECT_GT(sys.metrics().counter_value(obs::names::kFaultCrashesApplied), 0u);
  EXPECT_GT(sys.stored_item_count(), 0u);
}

TEST(BatchEngine, StoredItemCountTracksStoresUnderFaultsAndChurn) {
  check_stored_count(NamingStrategyKind::kAngle);
}

// LSH stores one copy per extra bucket key; those copies are store items.
TEST(BatchEngine, StoredItemCountTracksLshCopies) {
  check_stored_count(NamingStrategyKind::kLsh);
}

// --- typed calls: repeatable, epoch-neutral, one window --------------------

template <typename Result>
void expect_all_equal(const std::vector<Result>& a,
                      const std::vector<Result>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_equal(a[i], b[i], i);
}

/// Read ops over the first `n` items (searches borrow `queries`, which
/// the caller keeps alive and must not grow afterwards).
struct ReadOps {
  std::vector<LocateOp> locates;
  std::vector<RetrieveOp> retrieves;
  std::vector<SearchOp> searches;
};

ReadOps read_ops(const TestWorkload& wl, std::size_t n,
                 std::vector<std::vector<vsm::KeywordId>>& queries) {
  ReadOps ops;
  queries.reserve(n);
  for (vsm::ItemId id = 0; id < n; ++id) {
    ops.locates.push_back(LocateOp{id, &wl.vectors[id], {}});
    ops.retrieves.push_back(RetrieveOp{&wl.vectors[id], 4, {}});
    queries.push_back({wl.vectors[id].entries()[0].keyword});
    ops.searches.push_back(SearchOp{queries.back(), 3, {}});
  }
  return ops;
}

TEST(EngineTypedCalls, RepeatedReadCallsGiveIdenticalResultsAndMetricDeltas) {
  const TestWorkload wl = make_workload(120, 20);
  Meteorograph sys = make_published_system(wl, 20);
  sim::FaultPlan plan({.drop_rate = 0.05}, 55);
  ASSERT_TRUE(sys.set_fault_hook(&plan));
  std::vector<std::vector<vsm::KeywordId>> queries;
  const ReadOps ops = read_ops(wl, 60, queries);
  EpochEngine engine(sys, {.workers = 4, .seed = 9});

  struct Round {
    std::vector<LocateResult> locates;
    std::vector<RetrieveResult> retrieves;
    std::vector<SearchResult> searches;
    std::string metrics;
  };
  // One round's metric delta: the registry is zeroed in place before the
  // calls and exported after them.
  const auto round = [&] {
    sys.metrics().reset();
    Round r;
    r.locates = engine.locate(ops.locates);
    r.retrieves = engine.retrieve(ops.retrieves);
    r.searches = engine.similarity_search(ops.searches);
    r.metrics = metric_fingerprint(sys.metrics());
    return r;
  };
  const Round first = round();
  const Round second = round();

  expect_all_equal(first.locates, second.locates);
  expect_all_equal(first.retrieves, second.retrieves);
  expect_all_equal(first.searches, second.searches);
  EXPECT_GT(plan.dropped(), 0u);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(engine.epoch(), 0u);
}

/// Every field the tests below compare, one line per op.
void append(std::string& out, const LocateResult& r) {
  out += "locate " + std::to_string(r.found) + ' ' + std::to_string(r.node) +
         ' ' + std::to_string(r.total_hops());
}
void append(std::string& out, const RetrieveResult& r) {
  out += "retrieve";
  for (const vsm::ScoredItem& hit : r.items) {
    out += ' ' + std::to_string(hit.id) + ':' + obs::format_double(hit.score);
  }
  out += ' ' + std::to_string(r.total_hops()) + ' ' +
         std::to_string(r.partial);
}
void append(std::string& out, const PublishResult& r) {
  out += "publish " + std::to_string(r.success) + ' ' +
         std::to_string(r.stored_at) + ' ' +
         std::to_string(r.total_messages()) + ' ' + std::to_string(r.degraded);
}
void append(std::string& out, const WithdrawResult& r) {
  out += "withdraw " + std::to_string(r.removed) + ' ' +
         std::to_string(r.messages);
}
template <typename Result>
void append(std::string& out, const Result&) {
  out += "unexpected kind";
}

std::string describe(const EpochEngine::SealedEpoch& sealed) {
  std::string out = "epoch " + std::to_string(sealed.epoch) + '\n';
  for (std::size_t i = 0; i < sealed.results.size(); ++i) {
    std::visit([&](const auto& r) { append(out, r); }, sealed.results[i]);
    out += " tc=" + obs::format_double(sealed.timeout_costs[i]) + '\n';
  }
  return out;
}

/// Two sealed mixed windows under 5% drop; with `probe`, typed read calls
/// run on the same engine between the seals.
std::string two_seals(const TestWorkload& wl, bool probe) {
  Meteorograph sys = make_published_system(wl, 19);
  sim::FaultPlan plan({.drop_rate = 0.05}, 77);
  EXPECT_TRUE(sys.set_fault_hook(&plan));
  std::vector<std::vector<vsm::KeywordId>> queries;
  const ReadOps reads = read_ops(wl, 40, queries);
  EpochEngine engine(sys, {.workers = 4, .seed = 8});

  const auto submit_window = [&](vsm::ItemId base) {
    for (vsm::ItemId id = base; id < base + 20; ++id) {
      engine.submit(LocateOp{id, &wl.vectors[id], {}});
      engine.submit(PublishOp{1000 + id, &wl.vectors[id], {}});
      engine.submit(RetrieveOp{&wl.vectors[id], 4, {}});
      engine.submit(WithdrawOp{id + 80, &wl.vectors[id + 80], {}});
    }
  };
  submit_window(0);
  std::string out = describe(engine.seal());
  if (probe) {
    (void)engine.locate(reads.locates);
    (void)engine.retrieve(reads.retrieves);
    (void)engine.similarity_search(reads.searches);
  }
  out += "next epoch " + std::to_string(engine.epoch()) + '\n';
  submit_window(20);
  out += describe(engine.seal());
  return out;
}

TEST(EngineTypedCalls, ReadCallsBetweenSealsLeaveTheEpochsUntouched) {
  const TestWorkload wl = make_workload(150, 19);
  const std::string plain = two_seals(wl, false);
  EXPECT_NE(plain.find("next epoch 1"), std::string::npos);
  EXPECT_EQ(two_seals(wl, true), plain);
}

/// The registry minus the epoch.* series, which only seal() publishes.
std::string without_epoch_series(const obs::MetricRegistry& metrics) {
  std::istringstream in(metric_fingerprint(metrics));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("epoch.") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(EngineTypedCalls, PublishCallMatchesOneSealedWindowOfAFreshEngine) {
  const TestWorkload wl = make_workload(150, 21);
  Meteorograph call_sys(small_config(), wl.sample, 21);
  Meteorograph seal_sys(small_config(), wl.sample, 21);
  sim::FaultPlan call_plan({.drop_rate = 0.05}, 66);
  sim::FaultPlan seal_plan({.drop_rate = 0.05}, 66);
  ASSERT_TRUE(call_sys.set_fault_hook(&call_plan));
  ASSERT_TRUE(seal_sys.set_fault_hook(&seal_plan));

  std::vector<PublishOp> ops;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    ops.push_back(PublishOp{id, &wl.vectors[id], {}});
  }
  EpochEngine call_engine(call_sys, {.workers = 4, .seed = 10});
  const std::vector<PublishResult> called = call_engine.publish(ops);
  EpochEngine seal_engine(seal_sys, {.workers = 4, .seed = 10});
  for (const PublishOp& op : ops) seal_engine.submit(op);
  const EpochEngine::SealedEpoch sealed = seal_engine.seal();

  ASSERT_EQ(called.size(), sealed.results.size());
  for (std::size_t i = 0; i < called.size(); ++i) {
    expect_equal(called[i], std::get<PublishResult>(sealed.results[i]), i);
  }
  EXPECT_GT(call_plan.dropped(), 0u);
  EXPECT_EQ(call_plan.dropped(), seal_plan.dropped());
  EXPECT_EQ(call_sys.node_loads(), seal_sys.node_loads());
  EXPECT_EQ(without_epoch_series(call_sys.metrics()),
            without_epoch_series(seal_sys.metrics()));
  EXPECT_EQ(call_engine.epoch(), 0u);
}

// --- fault-hook guard (regression: attach mid-batch) -----------------------

/// Tries to re-attach a hook from inside the batch's own message path —
/// exactly the call set_fault_hook must reject while a batch runs.
class ReattachingHook final : public overlay::FaultHook {
 public:
  explicit ReattachingHook(Meteorograph& sys) : sys_(sys) {}

  overlay::MessageFate on_message(const overlay::MessageContext&) override {
    ++calls_;
    if (sys_.batch_in_flight() && sys_.set_fault_hook(nullptr)) {
      detached_mid_batch_ = true;  // the guard failed
    }
    return overlay::MessageFate::kDeliver;
  }
  [[nodiscard]] bool is_stalled(overlay::NodeId) const override {
    return false;
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  [[nodiscard]] bool detached_mid_batch() const noexcept {
    return detached_mid_batch_;
  }

 private:
  Meteorograph& sys_;
  std::size_t calls_ = 0;
  bool detached_mid_batch_ = false;
};

TEST(BatchEngine, SetFaultHookRejectedMidBatch) {
  const TestWorkload wl = make_workload(60, 17);
  Meteorograph sys = make_published_system(wl, 17);
  ReattachingHook hook(sys);
  ASSERT_TRUE(sys.set_fault_hook(&hook));

  const std::vector<LocateOp> ops = locate_ops(wl);
  EpochEngine engine(sys, {.workers = 4});
  (void)engine.locate(ops);

  EXPECT_GT(hook.calls(), 0u);
  EXPECT_FALSE(hook.detached_mid_batch());
  // The hook survived the batch, and detaching works again afterwards.
  EXPECT_EQ(sys.network().fault_hook(), &hook);
  EXPECT_FALSE(sys.batch_in_flight());
  EXPECT_TRUE(sys.set_fault_hook(nullptr));
}

/// Tries to swap in a *different* hook from inside the message path —
/// the attach direction of the mid-batch guard (the test above covers
/// the detach direction).
class SwappingHook final : public overlay::FaultHook {
 public:
  SwappingHook(Meteorograph& sys, overlay::FaultHook* replacement)
      : sys_(sys), replacement_(replacement) {}

  overlay::MessageFate on_message(const overlay::MessageContext&) override {
    ++calls_;
    if (sys_.batch_in_flight() && sys_.set_fault_hook(replacement_)) {
      swapped_mid_batch_ = true;  // the guard failed
    }
    return overlay::MessageFate::kDeliver;
  }
  [[nodiscard]] bool is_stalled(overlay::NodeId) const override {
    return false;
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  [[nodiscard]] bool swapped_mid_batch() const noexcept {
    return swapped_mid_batch_;
  }

 private:
  Meteorograph& sys_;
  overlay::FaultHook* replacement_;
  std::size_t calls_ = 0;
  bool swapped_mid_batch_ = false;
};

TEST(BatchEngine, SetFaultHookReattachesAfterBatchDrains) {
  const TestWorkload wl = make_workload(60, 18);
  Meteorograph sys = make_published_system(wl, 18);
  sim::FaultPlan replacement({.drop_rate = 0.0}, 1);
  SwappingHook hook(sys, &replacement);
  ASSERT_TRUE(sys.set_fault_hook(&hook));

  const std::vector<LocateOp> ops = locate_ops(wl);
  EpochEngine engine(sys, {.workers = 4});
  (void)engine.locate(ops);

  // Every mid-batch swap attempt was rejected: the original hook carried
  // the whole batch.
  EXPECT_GT(hook.calls(), 0u);
  EXPECT_FALSE(hook.swapped_mid_batch());
  EXPECT_EQ(sys.network().fault_hook(), &hook);

  // Once the batch drains, re-attaching succeeds and the new hook
  // carries the next batch end to end.
  ASSERT_FALSE(sys.batch_in_flight());
  ASSERT_TRUE(sys.set_fault_hook(&replacement));
  EXPECT_EQ(sys.network().fault_hook(), &replacement);
  (void)engine.locate(ops);
  EXPECT_GT(replacement.messages_seen(), 0u);
  EXPECT_TRUE(sys.set_fault_hook(nullptr));
}

}  // namespace
}  // namespace meteo::core
