#include "meteorograph/server.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct Fixture {
  std::vector<vsm::SparseVector> vectors;
  std::vector<vsm::SparseVector> sample;
};

Fixture make_fixture(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.num_items = items;
  cfg.num_keywords = 2000;
  cfg.mean_basket = 10.0;
  cfg.max_basket = 100;
  const workload::Trace trace = workload::synthesize_trace(cfg, seed);
  const std::vector<double> weights =
      trace.keyword_weights(workload::WeightScheme::kIdf);
  Fixture f;
  for (std::size_t i = 0; i < items; ++i) {
    f.vectors.push_back(trace.vector_of(i, weights));
  }
  for (std::size_t i = 0; i < items; i += 17) f.sample.push_back(f.vectors[i]);
  return f;
}

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.node_count = 40;
  cfg.dimension = 2000;
  cfg.load_balance = LoadBalanceMode::kUnusedHashSpace;
  return cfg;
}

TEST(ServerAdmission, RefusesMalformedRequestsThenServesAValidWindow) {
  const Fixture f = make_fixture(60, 31);
  Meteorograph sys(small_config(), f.sample, 31);
  for (vsm::ItemId id = 0; id + 1 < f.vectors.size(); ++id) {
    ASSERT_TRUE(sys.publish(id, f.vectors[id]).success);
  }
  const AttributeId attr = sys.register_attribute(0.0, 100.0);
  ASSERT_NE(sys.publish_attribute(3, attr, 42.0).node, overlay::kInvalidNode);

  Server server(sys, {.queue_capacity = 16, .ops_per_epoch = 8,
                      .workers = 2, .seed = 5, .deadline_seconds = 0.0});
  const vsm::SparseVector empty;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Server::Request> malformed = {
      SearchOp{{}, 4, {}},
      RetrieveOp{nullptr, 5, {}},
      RetrieveOp{&empty, 5, {}},
      RetrieveOp{&f.vectors[0], 0, {}},
      LocateOp{0, nullptr, {}},
      LocateOp{0, &empty, {}},
      PublishOp{1000, nullptr, {}},
      PublishOp{1000, &empty, {}},
      WithdrawOp{0, nullptr, {}},
      WithdrawOp{0, &empty, {}},
      RangeSearchOp{attr, 60.0, 10.0, {}},
      RangeSearchOp{attr, nan, 10.0, {}},
      RangeSearchOp{attr, 10.0, nan, {}},
      RangeSearchOp{static_cast<AttributeId>(attr + 1), 10.0, 60.0, {}},
  };
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_FALSE(server.submit(malformed[i]).has_value()) << "request " << i;
  }
  EXPECT_EQ(server.queued(), 0u);
  EXPECT_EQ(server.invalid(), malformed.size());
  EXPECT_EQ(server.accepted(), 0u);
  EXPECT_EQ(server.rejected(), 0u);
  EXPECT_EQ(server.pump(nullptr), 0u);  // nothing queued: no epoch burned
  EXPECT_EQ(server.epoch(), 0u);

  // A valid window of every kind still serves, in admission order.
  const std::vector<vsm::KeywordId> keywords = {
      f.vectors[2].entries()[0].keyword};
  const auto fresh = static_cast<vsm::ItemId>(f.vectors.size() - 1);
  const std::vector<Server::Request> valid = {
      LocateOp{1, &f.vectors[1], {}},
      RetrieveOp{&f.vectors[2], 3, {}},
      SearchOp{keywords, 4, {}},
      RangeSearchOp{attr, 10.0, 60.0, {}},
      PublishOp{fresh, &f.vectors[fresh], {}},
      WithdrawOp{4, &f.vectors[4], {}},
  };
  std::vector<Server::Ticket> tickets;
  for (const Server::Request& request : valid) {
    const std::optional<Server::Ticket> ticket = server.submit(request);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(*ticket);
  }
  std::vector<Server::Completion> done;
  EXPECT_EQ(server.pump([&](const Server::Completion& c) {
              done.push_back(c);
            }),
            valid.size());
  ASSERT_EQ(done.size(), valid.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].ticket, tickets[i]) << "request " << i;
    EXPECT_EQ(done[i].result.index(), valid[i].index()) << "request " << i;
  }
  EXPECT_TRUE(std::get<LocateResult>(done[0].result).found);
  EXPECT_FALSE(std::get<RetrieveResult>(done[1].result).items.empty());
  EXPECT_FALSE(std::get<SearchResult>(done[2].result).items.empty());
  ASSERT_EQ(std::get<RangeSearchResult>(done[3].result).matches.size(), 1u);
  EXPECT_TRUE(std::get<PublishResult>(done[4].result).success);
  EXPECT_TRUE(std::get<WithdrawResult>(done[5].result).removed);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.served(), valid.size());
  EXPECT_EQ(server.invalid(), malformed.size());
}

TEST(ServerAdmission, MalformedAndQueueFullAreCountedApart) {
  const Fixture f = make_fixture(40, 32);
  Meteorograph sys(small_config(), f.sample, 32);
  Server server(sys, {.queue_capacity = 2, .ops_per_epoch = 2, .workers = 1,
                      .seed = 6, .deadline_seconds = 0.0});
  ASSERT_TRUE(server.submit(PublishOp{0, &f.vectors[0], {}}).has_value());
  ASSERT_TRUE(server.submit(PublishOp{1, &f.vectors[1], {}}).has_value());
  // Queue full: a well-formed request is rejected, a malformed one is
  // counted as invalid whatever the queue holds.
  EXPECT_FALSE(server.submit(PublishOp{2, &f.vectors[2], {}}).has_value());
  EXPECT_FALSE(server.submit(PublishOp{2, nullptr, {}}).has_value());
  EXPECT_EQ(server.rejected(), 1u);
  EXPECT_EQ(server.invalid(), 1u);
  EXPECT_EQ(server.accepted(), 2u);
  EXPECT_EQ(server.queued(), 2u);
  EXPECT_EQ(server.pump(nullptr), 2u);
  EXPECT_EQ(sys.stored_item_count(), 2u);
}

// A departure names a node that may be gone by the time its window
// commits: an earlier depart in the window or a crash took it. That is a
// no-op, not a precondition failure; an id the overlay never assigned is
// refused at admission.
TEST(ServerAdmission, DepartOfDeadOrUnknownNodeIsRefusedNotFatal) {
  const Fixture f = make_fixture(40, 33);
  Meteorograph sys(small_config(), f.sample, 33);
  for (vsm::ItemId id = 0; id < f.vectors.size(); ++id) {
    ASSERT_TRUE(sys.publish(id, f.vectors[id]).success);
  }
  Server server(sys, {.queue_capacity = 8, .ops_per_epoch = 8, .workers = 1,
                      .seed = 7, .deadline_seconds = 0.0});
  const auto unassigned = static_cast<overlay::NodeId>(sys.network().size());
  EXPECT_FALSE(server.submit(DepartOp{}).has_value());
  EXPECT_FALSE(server.submit(DepartOp{unassigned}).has_value());
  EXPECT_EQ(server.invalid(), 2u);

  overlay::NodeId twice = 0;  // the first node with items to hand off
  while (sys.store_of(twice).size() == 0) ++twice;
  const overlay::NodeId crashed = twice + 1;
  ASSERT_TRUE(server.submit(DepartOp{twice}).has_value());
  ASSERT_TRUE(server.submit(DepartOp{twice}).has_value());
  ASSERT_TRUE(server.submit(DepartOp{crashed}).has_value());
  sys.network().fail(crashed);

  std::vector<DepartResult> done;
  EXPECT_EQ(server.pump([&](const Server::Completion& c) {
              done.push_back(std::get<DepartResult>(c.result));
            }),
            3u);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_TRUE(done[0].departed);
  EXPECT_GT(done[0].items_transferred, 0u);
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_FALSE(done[i].departed) << "request " << i;
    EXPECT_EQ(done[i].items_transferred + done[i].replicas_transferred +
                  done[i].pointers_transferred,
              0u)
        << "request " << i;
    EXPECT_EQ(done[i].messages, 0u) << "request " << i;
  }
  EXPECT_FALSE(sys.network().is_alive(twice));
  EXPECT_EQ(sys.network().alive_count(), small_config().node_count - 2);
  EXPECT_EQ(server.served(), 3u);
}

}  // namespace
}  // namespace meteo::core
