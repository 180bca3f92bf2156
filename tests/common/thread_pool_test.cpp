#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace meteo {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    n.fetch_add(1);
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ChunkedCoversDisjointRanges) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for_chunked(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::atomic<long long> sum{0};
  pool.parallel_for_chunked(0, n, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::logic_error("x"); });
  } catch (const std::logic_error&) {
  }
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

// Each call's completion mutex and condition variable live on the
// caller's stack. Tiny ranges make the last job's notify and the caller's
// return race as closely as they can; under TSan, a notify that still
// touches them after the caller saw the count reach zero is a report.
TEST(ThreadPool, BackToBackTinyParallelForsDrainCleanly) {
  ThreadPool pool(4);
  std::size_t expected = 0;
  std::atomic<std::size_t> total{0};
  for (std::size_t call = 0; call < 20000; ++call) {
    const std::size_t n = 1 + call % 8;
    expected += n;
    pool.parallel_for(0, n, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel_for(0, 256, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 256);
}

}  // namespace
}  // namespace meteo
