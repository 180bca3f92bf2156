/// Oracle equivalence for the inverted-postings LocalIndex (DESIGN.md §9).
///
/// The inverted index must return *byte-identical* results to the retained
/// naive-scan reference (vsm/naive_scan.hpp): same scores down to the last
/// bit (same floating-point summation order), same tie-breaks, same
/// ordering — under arbitrary interleavings of insert / replace / erase /
/// evict with the four query kernels. Scores are compared through their
/// bit patterns, not an epsilon.
///
/// The ConcurrentQueries test drives the const kernels from several
/// threads at once against one index — the pattern EpochEngine's parallel
/// read batches produce — and is run under TSan by tools/run_tier1.sh to
/// prove the thread_local score scratch keeps const queries race-free.

#include "vsm/local_index.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "vsm/naive_scan.hpp"

namespace meteo::vsm {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_scored(const std::vector<ScoredItem>& got,
                        const std::vector<ScoredItem>& want,
                        const char* kernel) {
  ASSERT_EQ(got.size(), want.size()) << kernel;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << kernel << " rank " << i;
    EXPECT_EQ(bits(got[i].score), bits(want[i].score))
        << kernel << " rank " << i << ": " << got[i].score
        << " != " << want[i].score;
  }
}

/// A random sparse vector over a small dictionary so stores overlap
/// heavily; binary weights half the time to make exact score ties common.
SparseVector random_vector(Rng& rng, std::size_t dims) {
  const std::size_t nnz = 1 + rng.below(6);
  const bool binary = rng.chance(0.5);
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.push_back(Entry{static_cast<KeywordId>(rng.below(dims)),
                            binary ? 1.0 : rng.uniform() + 0.05});
  }
  return SparseVector::from_entries(std::move(entries));
}

std::vector<KeywordId> random_keywords(Rng& rng, std::size_t dims) {
  std::vector<KeywordId> kws;
  const std::size_t n = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) {
    kws.push_back(static_cast<KeywordId>(rng.below(dims)));
  }
  return kws;
}

void compare_queries(const LocalIndex& idx, const NaiveScanIndex& oracle,
                     Rng& rng, std::size_t dims) {
  const SparseVector q = random_vector(rng, dims);
  const std::size_t k = rng.below(idx.size() + 3);
  expect_same_scored(idx.top_k(q, k), oracle.top_k(q, k), "top_k");

  // Sweep tau across the whole range, hitting the pi/2 boundary (where
  // zero-overlap items enter the result set) explicitly now and then.
  const double tau = rng.chance(0.2) ? std::numbers::pi / 2.0
                                     : rng.uniform() * std::numbers::pi / 2.0;
  expect_same_scored(idx.within_angle(q, tau), oracle.within_angle(q, tau),
                     "within_angle");

  const std::vector<KeywordId> kws = random_keywords(rng, dims);
  EXPECT_EQ(idx.match_all(kws), oracle.match_all(kws));
  EXPECT_EQ(idx.match_any(kws), oracle.match_any(kws));
}

TEST(LocalIndexOracle, RandomizedChurnMatchesNaiveScan) {
  constexpr std::size_t kDims = 48;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    LocalIndex idx;
    NaiveScanIndex oracle;
    for (std::size_t step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 30) {  // insert a fresh id
        const ItemId id = 1000 * seed + step;
        SparseVector v = random_vector(rng, kDims);
        idx.insert(id, v);
        oracle.insert(id, std::move(v));
      } else if (op < 45 && idx.size() > 0) {  // replace an existing id
        const std::size_t at = rng.below(idx.size());
        const ItemId id = idx.items()[at].id;
        SparseVector v = random_vector(rng, kDims);
        idx.insert(id, v);
        oracle.insert(id, std::move(v));
      } else if (op < 55 && idx.size() > 0) {  // erase (sometimes missing)
        const ItemId id = rng.chance(0.8)
                              ? idx.items()[rng.below(idx.size())].id
                              : ItemId{999'999'999};
        EXPECT_EQ(idx.erase(id), oracle.erase(id));
      } else if (op < 65) {  // evict least-similar
        const SparseVector ref = random_vector(rng, kDims);
        const auto got = idx.evict_least_similar(ref);
        const auto want = oracle.evict_least_similar(ref);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          EXPECT_EQ(got->id, want->id);
          EXPECT_EQ(got->vector, want->vector);
        }
      } else {
        compare_queries(idx, oracle, rng, kDims);
      }
      ASSERT_EQ(idx.size(), oracle.size());
    }
    // Drain both stores through eviction: the full eviction order (ids
    // and vectors) must match item by item.
    const SparseVector ref = random_vector(rng, kDims);
    while (idx.size() > 0) {
      const auto got = idx.evict_least_similar(ref);
      const auto want = oracle.evict_least_similar(ref);
      ASSERT_TRUE(got.has_value() && want.has_value());
      EXPECT_EQ(got->id, want->id);
    }
    EXPECT_FALSE(oracle.evict_least_similar(ref).has_value() ||
                 idx.evict_least_similar(ref).has_value());
  }
}

TEST(LocalIndexOracle, ConcurrentQueriesMatchOracle) {
  constexpr std::size_t kDims = 48;
  Rng rng(7);
  LocalIndex idx;
  NaiveScanIndex oracle;
  for (ItemId id = 0; id < 256; ++id) {
    SparseVector v = random_vector(rng, kDims);
    idx.insert(id, v);
    oracle.insert(id, std::move(v));
  }
  // Precompute oracle answers, then hammer the const kernels from four
  // threads at once. The shared score scratch is thread_local, so
  // concurrent queries must neither race nor perturb each other's
  // results.
  struct Case {
    SparseVector query;
    std::size_t k;
    double tau;
    std::vector<KeywordId> kws;
    std::vector<ScoredItem> top;
    std::vector<ScoredItem> within;
    std::vector<ItemId> all;
    std::vector<ItemId> any;
  };
  std::vector<Case> cases;
  for (std::size_t i = 0; i < 16; ++i) {
    Case c;
    c.query = random_vector(rng, kDims);
    c.k = 1 + rng.below(300);
    c.tau = rng.uniform() * std::numbers::pi / 2.0;
    c.kws = random_keywords(rng, kDims);
    c.top = oracle.top_k(c.query, c.k);
    c.within = oracle.within_angle(c.query, c.tau);
    c.all = oracle.match_all(c.kws);
    c.any = oracle.match_any(c.kws);
    cases.push_back(std::move(c));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&idx, &cases] {
      std::vector<ScoredItem> scored;
      std::vector<ItemId> ids;
      for (std::size_t round = 0; round < 32; ++round) {
        for (const Case& c : cases) {
          idx.top_k(c.query, c.k, scored);
          expect_same_scored(scored, c.top, "top_k");
          idx.within_angle(c.query, c.tau, scored);
          expect_same_scored(scored, c.within, "within_angle");
          idx.match_all(c.kws, ids);
          EXPECT_EQ(ids, c.all);
          idx.match_any(c.kws, ids);
          EXPECT_EQ(ids, c.any);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace meteo::vsm
