#include "meteorograph/meteorograph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "obs/names.hpp"
#include "sim/churn.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

namespace names = obs::names;

/// Total op.count across outcomes for one op, e.g. op_count(sys, "publish").
std::uint64_t op_count(const Meteorograph& sys, const char* op) {
  return sys.metrics().counter_total(names::kOpCount, {{names::kLabelOp, op}});
}

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

SystemConfig small_config(LoadBalanceMode mode, std::size_t nodes = 100) {
  SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = 2000;
  cfg.load_balance = mode;
  return cfg;
}

TEST(Meteorograph, ConstructionJoinsRequestedNodes) {
  const TestWorkload wl = make_workload(500, 1);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 1);
  EXPECT_EQ(sys.network().alive_count(), 100u);
  EXPECT_GT(sys.first_hop().size(), 0u);
}

TEST(Meteorograph, PublishStoresAtClosestNodeWithInfiniteCapacity) {
  const TestWorkload wl = make_workload(200, 2);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 2);
  for (vsm::ItemId id = 0; id < 200; ++id) {
    const PublishResult r = sys.publish(id, wl.vectors[id]);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.stored_at, r.home);  // no overflow with infinite capacity
    EXPECT_EQ(r.chain_hops, 0u);
    EXPECT_EQ(r.home,
              sys.network().closest_alive(sys.balanced_key(wl.vectors[id])));
  }
  EXPECT_EQ(sys.stored_item_count(), 200u);
}

TEST(Meteorograph, PublishRouteHopsAreLogarithmic) {
  const TestWorkload wl = make_workload(500, 3);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace, 1000),
                   wl.sample, 3);
  OnlineStats hops;
  for (vsm::ItemId id = 0; id < 500; ++id) {
    hops.add(static_cast<double>(sys.publish(id, wl.vectors[id]).route_hops));
  }
  EXPECT_LT(hops.mean(), 8.0);  // ~log_4(1000) = 5
}

TEST(Meteorograph, RetrieveFindsExactItem) {
  const TestWorkload wl = make_workload(300, 4);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 4);
  for (vsm::ItemId id = 0; id < 300; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  // Querying with an item's own vector must return that item with score 1.
  for (vsm::ItemId id = 0; id < 300; id += 13) {
    const RetrieveResult r = sys.retrieve(wl.vectors[id], 1);
    ASSERT_FALSE(r.items.empty());
    EXPECT_NEAR(r.items[0].score, 1.0, 1e-9);
  }
}

TEST(Meteorograph, RetrieveAmountIsRespected) {
  const TestWorkload wl = make_workload(300, 5);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 5);
  for (vsm::ItemId id = 0; id < 300; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  const RetrieveResult r = sys.retrieve(wl.vectors[0], 10);
  EXPECT_LE(r.items.size(), 10u);
  EXPECT_GE(r.items.size(), 1u);
  // Scores are sorted descending.
  for (std::size_t i = 1; i < r.items.size(); ++i) {
    EXPECT_GE(r.items[i - 1].score, r.items[i].score);
  }
}

TEST(Meteorograph, CapacityOverflowChainsToNeighbors) {
  const TestWorkload wl = make_workload(300, 6);
  SystemConfig cfg = small_config(LoadBalanceMode::kUnusedHashSpace, 50);
  cfg.node_capacity = 3;  // force heavy chaining (300 items / 50 nodes = 6c)
  Meteorograph sys(cfg, wl.sample, 6);
  std::size_t chained = 0;
  std::size_t published = 0;
  for (vsm::ItemId id = 0; id < 150; ++id) {  // exactly fills capacity
    const PublishResult r = sys.publish(id, wl.vectors[id]);
    if (!r.success) continue;
    ++published;
    chained += r.chain_hops > 0 ? 1 : 0;
  }
  EXPECT_EQ(published, 150u);
  EXPECT_GT(chained, 0u);
  EXPECT_EQ(sys.stored_item_count(), 150u);  // nothing lost
  // No node exceeds its capacity.
  for (const std::size_t load : sys.node_loads()) {
    EXPECT_LE(load, 3u);
  }
}

TEST(Meteorograph, OverflowPreservesAllItemsLocatable) {
  const TestWorkload wl = make_workload(200, 7);
  SystemConfig cfg = small_config(LoadBalanceMode::kUnusedHashSpace, 40);
  cfg.node_capacity = 8;
  Meteorograph sys(cfg, wl.sample, 7);
  for (vsm::ItemId id = 0; id < 200; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  for (vsm::ItemId id = 0; id < 200; ++id) {
    const LocateResult r = sys.locate(id, wl.vectors[id]);
    EXPECT_TRUE(r.found) << "item " << id;
  }
}

TEST(Meteorograph, PublishHopLimitCanFail) {
  const TestWorkload wl = make_workload(100, 8);
  SystemConfig cfg = small_config(LoadBalanceMode::kNone, 10);
  cfg.node_capacity = 2;   // 10 nodes x 2 = 20 slots for 100 items
  cfg.publish_hop_limit = 3;
  Meteorograph sys(cfg, wl.sample, 8);
  std::size_t failures = 0;
  for (vsm::ItemId id = 0; id < 100; ++id) {
    if (!sys.publish(id, wl.vectors[id]).success) ++failures;
  }
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(sys.metrics().counter_value(names::kOpCount,
                                        {{names::kLabelOp, "publish"},
                                         {names::kLabelOutcome, "failed"}}),
            failures);
}

TEST(Meteorograph, LoadBalanceModesReduceGini) {
  const TestWorkload wl = make_workload(2000, 9);
  auto gini_of = [&](LoadBalanceMode mode) {
    Meteorograph sys(small_config(mode, 100), wl.sample, 9);
    for (vsm::ItemId id = 0; id < 2000; ++id) {
      (void)sys.publish(id, wl.vectors[id]);
    }
    std::vector<double> loads;
    for (const std::size_t l : sys.node_loads()) {
      loads.push_back(static_cast<double>(l));
    }
    return gini(loads);
  };
  const double none = gini_of(LoadBalanceMode::kNone);
  const double uhs = gini_of(LoadBalanceMode::kUnusedHashSpace);
  // Raw keys concentrate (Fig. 3) -> extreme imbalance; Eq. 6 flattens.
  EXPECT_GT(none, 0.9);
  EXPECT_LT(uhs, 0.8);
  EXPECT_LT(uhs, none);
}

TEST(Meteorograph, SimilaritySearchFindsAllMatchingItems) {
  const TestWorkload wl = make_workload(400, 10);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 10);
  for (vsm::ItemId id = 0; id < 400; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  // Query the most popular keyword; ground truth from the trace.
  const vsm::KeywordId popular = 0;
  std::set<vsm::ItemId> expected;
  for (std::size_t i = 0; i < 400; ++i) {
    if (wl.vectors[i].contains(popular)) expected.insert(i);
  }
  ASSERT_GT(expected.size(), 5u);
  const std::vector<vsm::KeywordId> q = {popular};
  const SearchResult r = sys.similarity_search(q, 0);  // k=0: discover all
  const std::set<vsm::ItemId> found(r.items.begin(), r.items.end());
  EXPECT_EQ(found, expected);
}

TEST(Meteorograph, SimilaritySearchStopsAtK) {
  const TestWorkload wl = make_workload(400, 11);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 11);
  for (vsm::ItemId id = 0; id < 400; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  const std::vector<vsm::KeywordId> q = {0};
  const SearchResult r = sys.similarity_search(q, 5);
  EXPECT_GE(r.items.size(), 5u);
  EXPECT_LE(r.items.size(), 5u + 50u);  // batched k' replies may overshoot
  // Every returned item actually matches.
  for (const vsm::ItemId id : r.items) {
    EXPECT_TRUE(wl.vectors[id].contains(0));
  }
  ASSERT_EQ(r.discovery_hops.size(), r.items.size());
}

TEST(Meteorograph, SimilaritySearchMultiKeyword) {
  const TestWorkload wl = make_workload(600, 12);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 12);
  for (vsm::ItemId id = 0; id < 600; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  // Pick a 2-keyword query known to have matches.
  std::vector<vsm::KeywordId> q;
  for (std::size_t i = 0; i < 600; ++i) {
    if (wl.vectors[i].nnz() >= 2) {
      q = {wl.vectors[i].entries()[0].keyword,
           wl.vectors[i].entries()[1].keyword};
      break;
    }
  }
  ASSERT_EQ(q.size(), 2u);
  std::set<vsm::ItemId> expected;
  for (std::size_t i = 0; i < 600; ++i) {
    if (wl.vectors[i].contains(q[0]) && wl.vectors[i].contains(q[1])) {
      expected.insert(i);
    }
  }
  const SearchResult r = sys.similarity_search(q, 0);
  const std::set<vsm::ItemId> found(r.items.begin(), r.items.end());
  EXPECT_EQ(found, expected);
}

TEST(Meteorograph, ReplicationSurvivesPrimaryFailure) {
  const TestWorkload wl = make_workload(200, 13);
  SystemConfig cfg = small_config(LoadBalanceMode::kUnusedHashSpace, 100);
  cfg.replicas = 4;
  Meteorograph sys(cfg, wl.sample, 13);
  std::vector<overlay::NodeId> primary(200);
  for (vsm::ItemId id = 0; id < 200; ++id) {
    const PublishResult r = sys.publish(id, wl.vectors[id]);
    ASSERT_TRUE(r.success);
    primary[id] = r.stored_at;
  }
  // Fail every primary holder; replicas must still answer.
  std::set<overlay::NodeId> victims(primary.begin(), primary.end());
  for (const overlay::NodeId v : victims) {
    if (sys.network().is_alive(v) && sys.network().alive_count() > 1) {
      sys.network().fail(v);
    }
  }
  sys.network().repair();
  std::size_t found = 0;
  for (vsm::ItemId id = 0; id < 200; ++id) {
    const LocateResult r = sys.locate(id, wl.vectors[id], {.walk_limit = 16});
    if (r.found) {
      ++found;
      EXPECT_TRUE(r.via_replica || sys.network().is_alive(r.node));
    }
  }
  EXPECT_GT(found, 180u);  // a few replicas may share failed nodes
}

TEST(Meteorograph, NoReplicasLosesItemsOnFailure) {
  const TestWorkload wl = make_workload(200, 14);
  SystemConfig cfg = small_config(LoadBalanceMode::kUnusedHashSpace, 50);
  cfg.replicas = 1;
  Meteorograph sys(cfg, wl.sample, 14);
  for (vsm::ItemId id = 0; id < 200; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  Rng fail_rng(99);
  sim::fail_fraction(sys.network(), 0.5, fail_rng);
  sys.network().repair();
  std::size_t found = 0;
  for (vsm::ItemId id = 0; id < 200; ++id) {
    if (sys.locate(id, wl.vectors[id], {.walk_limit = 8}).found) ++found;
  }
  // Roughly half the items died with their hosts.
  EXPECT_LT(found, 160u);
  EXPECT_GT(found, 40u);
}

TEST(Meteorograph, DeterministicAcrossRuns) {
  const TestWorkload wl = make_workload(100, 15);
  auto fingerprint = [&] {
    Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpacePlusHotRegions),
                     wl.sample, 42);
    std::uint64_t fp = 0;
    for (vsm::ItemId id = 0; id < 100; ++id) {
      const PublishResult r = sys.publish(id, wl.vectors[id]);
      fp = fp * 1315423911u + r.stored_at + r.route_hops;
    }
    return fp;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

// A pinned `from` is the op's source, so the op draws nothing: the
// facade's shared stream stays put, and an unpinned op's source does not
// depend on how many pinned ops ran before it.
TEST(Meteorograph, PinnedSourceLeavesRngUnchanged) {
  const TestWorkload wl = make_workload(60, 18);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample,
                   18);
  const AttributeId attr = sys.register_attribute(0.0, 100.0);
  const overlay::NodeId source = 0;
  const Rng before = sys.rng();
  for (vsm::ItemId id = 0; id < 60; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id], {.from = source}).success);
  }
  EXPECT_FALSE(sys.retrieve(wl.vectors[1], 3, {.from = source}).items.empty());
  EXPECT_TRUE(sys.locate(2, wl.vectors[2], {.from = source}).found);
  const vsm::KeywordId keyword = wl.vectors[5].entries()[0].keyword;
  const std::span<const vsm::KeywordId> keywords(&keyword, 1);
  EXPECT_FALSE(
      sys.similarity_search(keywords, 4, {.from = source}).items.empty());
  EXPECT_TRUE(sys.withdraw(3, wl.vectors[3], {.from = source}).removed);
  (void)sys.publish_attribute(4, attr, 42.0, {.from = source});
  EXPECT_EQ(sys.range_search(attr, 40.0, 50.0, {.from = source}).matches.size(),
            1u);

  Rng expected = before;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sys.rng()(), expected());
}

TEST(Meteorograph, MetricsAccumulate) {
  const TestWorkload wl = make_workload(50, 16);
  Meteorograph sys(small_config(LoadBalanceMode::kUnusedHashSpace), wl.sample, 16);
  for (vsm::ItemId id = 0; id < 50; ++id) {
    (void)sys.publish(id, wl.vectors[id]);
  }
  (void)sys.retrieve(wl.vectors[0], 3);
  EXPECT_EQ(op_count(sys, "publish"), 50u);
  EXPECT_EQ(op_count(sys, "retrieve"), 1u);
  EXPECT_GT(sys.metrics().counter_value(names::kOpMessages,
                                        {{names::kLabelOp, "publish"}}),
            0u);
}

TEST(Meteorograph, HotRegionModeStillRoutesAndRetrieves) {
  const TestWorkload wl = make_workload(500, 17);
  Meteorograph sys(
      small_config(LoadBalanceMode::kUnusedHashSpacePlusHotRegions, 200),
      wl.sample, 17);
  for (vsm::ItemId id = 0; id < 500; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  for (vsm::ItemId id = 0; id < 500; id += 29) {
    const RetrieveResult r = sys.retrieve(wl.vectors[id], 1);
    ASSERT_FALSE(r.items.empty());
    EXPECT_NEAR(r.items[0].score, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace meteo::core
