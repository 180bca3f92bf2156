#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "meteorograph/meteorograph.hpp"
#include "obs/names.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct DepartFixture : ::testing::Test {
  DepartFixture() {
    workload::TraceConfig tc;
    tc.num_items = 300;
    tc.num_keywords = 600;
    tc.mean_basket = 8.0;
    tc.max_basket = 40;
    const workload::Trace trace = workload::synthesize_trace(tc, 21);
    const auto weights = trace.keyword_weights(workload::WeightScheme::kIdf);
    for (std::size_t i = 0; i < trace.item_count(); ++i) {
      vectors_.push_back(trace.vector_of(i, weights));
    }
    std::vector<vsm::SparseVector> sample;
    for (std::size_t i = 0; i < vectors_.size(); i += 7) {
      sample.push_back(vectors_[i]);
    }
    SystemConfig cfg;
    cfg.node_count = 60;
    cfg.dimension = 600;
    cfg.replicas = 2;
    sys_.emplace(cfg, sample, 22);
    for (vsm::ItemId id = 0; id < vectors_.size(); ++id) {
      EXPECT_TRUE(sys_->publish(id, vectors_[id]).success);
    }
  }

  std::vector<vsm::SparseVector> vectors_;
  std::optional<Meteorograph> sys_;
};

// A window cannot check a departure up front: an id the overlay never
// assigned, or the last alive node, departs as a no-op instead of
// tripping depart_node's preconditions.
TEST_F(DepartFixture, WindowDepartsOfUnknownOrLastNodeAreNoOps) {
  const std::vector<overlay::NodeId> nodes = sys_->network().alive_nodes();
  EpochEngine engine(*sys_, {.workers = 1});
  engine.submit(DepartOp{});
  for (const overlay::NodeId node : nodes) engine.submit(DepartOp{node});
  const EpochEngine::SealedEpoch sealed = engine.seal();
  ASSERT_EQ(sealed.results.size(), nodes.size() + 1);
  for (std::size_t i = 0; i < sealed.results.size(); ++i) {
    const auto& r = std::get<DepartResult>(sealed.results[i]);
    const bool noop = i == 0 || i == nodes.size();  // unknown id, last node
    EXPECT_EQ(r.departed, !noop) << "op " << i;
    if (noop) {
      EXPECT_EQ(r.messages, 0u) << "op " << i;
    }
  }
  EXPECT_EQ(sys_->network().alive_count(), 1u);
  EXPECT_TRUE(sys_->network().is_alive(nodes.back()));
}

TEST_F(DepartFixture, NoItemLostAfterDeparture) {
  const std::size_t before = sys_->stored_item_count();
  // Depart the most loaded node (worst case).
  overlay::NodeId victim = sys_->network().alive_nodes().front();
  std::size_t max_load = 0;
  for (const auto node : sys_->network().alive_nodes()) {
    if (sys_->store_of(node).size() > max_load) {
      max_load = sys_->store_of(node).size();
      victim = node;
    }
  }
  ASSERT_GT(max_load, 0u);
  const DepartResult r = sys_->depart_node(victim);
  EXPECT_EQ(r.items_transferred, max_load);
  EXPECT_EQ(sys_->stored_item_count(), before);
  EXPECT_FALSE(sys_->network().is_alive(victim));
  // Everything is still locatable.
  for (vsm::ItemId id = 0; id < vectors_.size(); ++id) {
    EXPECT_TRUE(sys_->locate(id, vectors_[id]).found) << "item " << id;
  }
}

TEST_F(DepartFixture, SequentialDeparturesPreserveEverything) {
  for (int round = 0; round < 20; ++round) {
    sys_->depart_node(sys_->network().alive_nodes().front());
  }
  EXPECT_EQ(sys_->network().alive_count(), 40u);
  EXPECT_EQ(sys_->stored_item_count(), vectors_.size());
  for (vsm::ItemId id = 0; id < vectors_.size(); id += 5) {
    EXPECT_TRUE(sys_->locate(id, vectors_[id]).found);
  }
}

TEST_F(DepartFixture, SearchStaysCompleteAfterDepartures) {
  const vsm::KeywordId kw = vectors_[0].entries()[0].keyword;
  const std::vector<vsm::KeywordId> q = {kw};
  const SearchResult before = sys_->similarity_search(q, 0);
  for (int round = 0; round < 10; ++round) {
    sys_->depart_node(sys_->network().random_alive(sys_->rng()));
  }
  const SearchResult after = sys_->similarity_search(q, 0);
  EXPECT_EQ(std::set<vsm::ItemId>(after.items.begin(), after.items.end()),
            std::set<vsm::ItemId>(before.items.begin(), before.items.end()));
}

TEST_F(DepartFixture, SubscriptionsSurviveDirectoryNodeDeparture) {
  const overlay::NodeId me = sys_->network().alive_nodes().back();
  (void)sys_->subscribe(
      std::vector<vsm::KeywordId>{vectors_[0].entries()[0].keyword}, me,
      {.horizon = 500});
  // Depart several nodes; subscription copies re-plant elsewhere.
  for (int round = 0; round < 10; ++round) {
    overlay::NodeId victim = sys_->network().random_alive(sys_->rng());
    if (victim == me) continue;
    sys_->depart_node(victim);
  }
  // A fresh matching publish still notifies.
  const vsm::ItemId fresh = 9999;
  (void)sys_->publish(fresh, vectors_[0]);
  bool notified = false;
  for (const Notification& n : sys_->take_notifications(me)) {
    if (n.item == fresh) notified = true;
  }
  EXPECT_TRUE(notified);
}

TEST_F(DepartFixture, AttributeRecordsSurviveDeparture) {
  const AttributeId attr = sys_->register_attribute(0.0, 100.0);
  for (vsm::ItemId id = 0; id < 50; ++id) {
    (void)sys_->publish_attribute(id, attr, static_cast<double>(id));
  }
  for (int round = 0; round < 15; ++round) {
    sys_->depart_node(sys_->network().random_alive(sys_->rng()));
  }
  const RangeSearchResult r = sys_->range_search(attr, 0.0, 100.0);
  EXPECT_EQ(r.matches.size(), 50u);
}

TEST_F(DepartFixture, DepartCountsMessages) {
  const DepartResult r =
      sys_->depart_node(sys_->network().alive_nodes().front());
  EXPECT_GE(r.messages, r.items_transferred);
  EXPECT_GT(sys_->metrics().counter_total(obs::names::kOpCount,
                                          {{obs::names::kLabelOp, "depart"}}),
            0u);
}

}  // namespace
}  // namespace meteo::core
