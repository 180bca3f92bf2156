// Tests of the benchmark's own math (cpp/bench_math.hpp): the percentile
// rule, failure classification and message accounting per result type,
// and every correctness check firing on a deliberately corrupted result.

#include "bench_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

namespace core = meteo::core;
namespace vsm = meteo::vsm;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

std::size_t beyond(const std::vector<double>& xs, double value) {
  std::size_t n = 0;
  for (const double x : xs) n += x > value ? 1 : 0;
  return n;
}

// --- percentiles -------------------------------------------------------------

TEST(Percentile, NearestRank) {
  const std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(nearest_rank(xs, 0.5), 3.0);
  EXPECT_EQ(nearest_rank(xs, 1.0), 5.0);
  EXPECT_EQ(nearest_rank(xs, 0.01), 1.0);
  EXPECT_EQ(median(xs).value, 3.0);
  EXPECT_EQ(median(xs).samples, 5U);
}

TEST(Percentile, TailIsP90OnceHundredSamples) {
  const std::vector<double> xs = one_to(100);
  const Quantile q = tail(xs);
  EXPECT_DOUBLE_EQ(q.percentile, 0.90);
  EXPECT_EQ(q.value, 90.0);
  EXPECT_EQ(q.samples, 100U);
  EXPECT_EQ(beyond(xs, q.value), 10U);
}

TEST(Percentile, TailCapsAtP90) {
  const std::vector<double> xs = one_to(1000);
  const Quantile q = tail(xs);
  EXPECT_DOUBLE_EQ(q.percentile, 0.90);
  EXPECT_EQ(q.value, 900.0);
}

TEST(Percentile, TailBelowHundredKeepsTenBeyond) {
  const std::vector<double> xs = one_to(58);
  const Quantile q = tail(xs);
  EXPECT_DOUBLE_EQ(q.percentile, 48.0 / 58.0);
  EXPECT_EQ(q.value, 48.0);
  EXPECT_EQ(beyond(xs, q.value), 10U);
  EXPECT_EQ(q.samples, 58U);
}

TEST(Percentile, TailIsHighestWithTenBeyondForEverySize) {
  for (std::size_t n = 11; n <= 300; ++n) {
    const std::vector<double> xs = one_to(n);
    const Quantile q = tail(xs);
    EXPECT_GE(beyond(xs, q.value), 10U) << n;
    if (q.percentile < 0.90) {
      EXPECT_EQ(beyond(xs, q.value), 10U) << n;  // one rank higher: 9
    }
  }
}

TEST(Percentile, TailFallsBackToMedianWithTooFewSamples) {
  const std::vector<double> xs = one_to(10);
  const Quantile q = tail(xs);
  EXPECT_DOUBLE_EQ(q.percentile, 0.5);
  EXPECT_EQ(q.value, 5.0);
  EXPECT_EQ(q.samples, 10U);
}

TEST(Percentile, Geomean) {
  const std::vector<double> xs = {1.0, 100.0, 10.0};
  EXPECT_NEAR(geomean(xs), 10.0, 1e-12);
}

// --- failure classification --------------------------------------------------

TEST(Failed, Publish) {
  core::PublishResult r;
  r.success = true;
  EXPECT_FALSE(failed(r));
  r.degraded = true;
  EXPECT_TRUE(failed(r));
  r.degraded = false;
  r.success = false;
  EXPECT_TRUE(failed(r));
}

TEST(Failed, ReadsFailOnAnyDegradationFlag) {
  core::RetrieveResult retrieve;
  core::SearchResult search;
  core::RangeSearchResult range;
  EXPECT_FALSE(failed(retrieve));
  EXPECT_FALSE(failed(search));
  EXPECT_FALSE(failed(range));
  retrieve.partial = true;
  search.fault_blocked = true;
  range.degraded = true;
  EXPECT_TRUE(failed(retrieve));
  EXPECT_TRUE(failed(search));
  EXPECT_TRUE(failed(range));
}

TEST(Failed, LocateMissesOnlyCountForLiveItems) {
  core::LocateResult r;
  EXPECT_TRUE(failed(r, /*live=*/true));
  EXPECT_FALSE(failed(r, /*live=*/false));
  r.found = true;
  EXPECT_FALSE(failed(r, true));
  r.partial = true;
  EXPECT_TRUE(failed(r, true));
}

TEST(Failed, WithdrawMissesOnlyCountForLiveItems) {
  core::WithdrawResult r;
  EXPECT_TRUE(failed(r, true));
  EXPECT_FALSE(failed(r, false));
  r.removed = true;
  EXPECT_FALSE(failed(r, true));
}

TEST(Failed, DepartNeverFails) {
  EXPECT_FALSE(failed(core::DepartResult{}));
}

TEST(Failed, ServedRequestFailsPastItsDeadline) {
  core::Server::Completion c;
  c.result = core::RetrieveResult{};
  EXPECT_FALSE(failed(c, false));
  c.deadline_exceeded = true;
  EXPECT_TRUE(failed(c, false));
  c.deadline_exceeded = false;
  c.result = core::LocateResult{};  // not found
  EXPECT_TRUE(failed(c, true));
  EXPECT_FALSE(failed(c, false));
  c.result = core::WithdrawResult{};  // not removed
  EXPECT_TRUE(failed(c, true));
  c.result = core::PublishResult{};  // not successful
  EXPECT_TRUE(failed(c, false));
}

// --- message accounting ------------------------------------------------------

TEST(Messages, EachResultTypeUsesItsOwnTotal) {
  core::PublishResult publish;
  publish.route_hops = 1;
  publish.walk_hops = 100;  // not part of a publish's traffic
  publish.chain_hops = 2;
  publish.replica_messages = 3;
  publish.pointer_messages = 4;
  publish.notify_messages = 5;
  publish.naming_key_messages = 6;
  EXPECT_EQ(messages(publish), 21U);

  core::SearchResult search;
  search.route_hops = 1;
  search.walk_hops = 2;
  search.lookup_messages = 4;
  EXPECT_EQ(messages(search), 7U);

  core::WithdrawResult withdraw;
  withdraw.messages = 9;
  EXPECT_EQ(messages(withdraw), 9U);

  core::DepartResult depart;
  depart.messages = 11;
  EXPECT_EQ(messages(depart), 11U);

  core::LocateResult locate;
  locate.route_hops = 3;
  locate.walk_hops = 4;
  EXPECT_EQ(messages(locate), 7U);

  core::RetrieveResult retrieve;
  retrieve.route_hops = 5;
  retrieve.walk_hops = 1;
  EXPECT_EQ(messages(retrieve), 6U);

  core::RangeSearchResult range;
  range.route_hops = 2;
  range.walk_hops = 2;
  EXPECT_EQ(messages(range), 4U);

  EXPECT_EQ(messages(core::EpochEngine::OpResult{publish}), 21U);
  EXPECT_EQ(messages(core::EpochEngine::OpResult{search}), 7U);
  EXPECT_EQ(messages(core::EpochEngine::OpResult{withdraw}), 9U);
  EXPECT_EQ(messages(core::EpochEngine::OpResult{depart}), 11U);
  EXPECT_EQ(messages(core::EpochEngine::OpResult{locate}), 7U);
}

// --- correctness checks ------------------------------------------------------

const std::vector<vsm::ItemId> kExpected = {2, 3, 5, 7, 11};

TEST(Checks, DiscoverAllAcceptsTheExactSetInAnyOrder) {
  const std::vector<vsm::ItemId> got = {11, 2, 7, 5, 3};
  EXPECT_FALSE(check_discover_all(got, kExpected));
}

TEST(Checks, DiscoverAllFiresOnMissingExtraOrRepeatedItems) {
  const std::vector<vsm::ItemId> missing = {2, 3, 5, 7};
  const std::vector<vsm::ItemId> extra = {2, 3, 5, 7, 11, 13};
  const std::vector<vsm::ItemId> repeated = {2, 3, 5, 7, 11, 11};
  for (const auto& got : {missing, extra, repeated}) {
    const Check c = check_discover_all(got, kExpected);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->check, "search.discover_all_exact");
  }
}

TEST(Checks, TopKSubset) {
  const std::vector<vsm::ItemId> ok = {7, 2, 11};
  EXPECT_FALSE(check_top_k_subset(ok, kExpected, 3));
  EXPECT_FALSE(check_top_k_subset(kExpected, kExpected, 16));  // k > matches

  const std::vector<vsm::ItemId> outside = {2, 4, 7};
  const std::vector<vsm::ItemId> short_by_one = {2, 3};
  const std::vector<vsm::ItemId> repeated = {2, 2, 3};
  for (const auto& got : {outside, short_by_one, repeated}) {
    const Check c = check_top_k_subset(got, kExpected, 3);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->check, "search.top_k_subset");
  }
}

TEST(Checks, RetrieveDescending) {
  core::RetrieveResult r;
  r.items = {{1, 0.9}, {2, 0.5}, {3, 0.5}, {4, 0.1}};
  EXPECT_FALSE(check_descending(r));
  r.items[3].score = 0.6;
  const Check c = check_descending(r);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->check, "retrieve.descending");
}

TEST(Checks, LocateAndWithdrawn) {
  core::LocateResult r;
  ASSERT_TRUE(check_located(r, 4));
  EXPECT_EQ(check_located(r, 4)->check, "locate.found");
  EXPECT_FALSE(check_withdrawn(r, 4));
  r.found = true;
  EXPECT_FALSE(check_located(r, 4));
  ASSERT_TRUE(check_withdrawn(r, 4));
  EXPECT_EQ(check_withdrawn(r, 4)->check, "withdraw.gone");
}

TEST(Checks, StoredCount) {
  EXPECT_FALSE(check_stored_count(59'940, 60'000, 60));
  ASSERT_TRUE(check_stored_count(59'941, 60'000, 60));
  EXPECT_EQ(check_stored_count(59'941, 60'000, 60)->check,
            "ingest.stored_count");
  EXPECT_TRUE(check_stored_count(0, 5, 6));  // more removed than published
}

TEST(Checks, DigestMismatch) {
  EXPECT_FALSE(check_digest("x", 42, 42));
  ASSERT_TRUE(check_digest("x", 42, 43));
  EXPECT_EQ(check_digest("x", 42, 43)->check, "determinism.digest");
}

TEST(Checks, AdmissionOrderAcceptsFifoCompletion) {
  AdmissionOrder order;
  for (core::Server::Ticket t = 1; t <= 3; ++t) order.admit(t);
  for (core::Server::Ticket t = 1; t <= 3; ++t) {
    EXPECT_FALSE(order.complete(t));
  }
  EXPECT_FALSE(order.finish());
}

TEST(Checks, AdmissionOrderFiresOnReorderLossOrRepeat) {
  AdmissionOrder reordered;
  reordered.admit(1);
  reordered.admit(2);
  ASSERT_TRUE(reordered.complete(2));
  EXPECT_EQ(reordered.complete(2)->check, "serve.admission_order");

  AdmissionOrder lost;
  lost.admit(1);
  lost.admit(2);
  EXPECT_FALSE(lost.complete(1));
  ASSERT_TRUE(lost.finish());

  AdmissionOrder repeated;
  repeated.admit(1);
  EXPECT_FALSE(repeated.complete(1));
  EXPECT_TRUE(repeated.complete(1));
}

// --- digest ------------------------------------------------------------------

TEST(DigestTest, EqualResultsEqualDigestsAndAnyFieldChangesIt) {
  core::RetrieveResult a;
  a.items = {{1, 0.75}, {9, 0.5}};
  a.route_hops = 3;
  Digest da;
  Digest db;
  da.add(a);
  db.add(a);
  EXPECT_EQ(da.value(), db.value());

  core::RetrieveResult b = a;
  b.items[1].score = std::nextafter(0.5, 1.0);
  Digest dc;
  dc.add(b);
  EXPECT_NE(da.value(), dc.value());

  core::RetrieveResult c = a;
  c.partial = true;
  Digest dd;
  dd.add(c);
  EXPECT_NE(da.value(), dd.value());
}

}  // namespace
}  // namespace perfbench
