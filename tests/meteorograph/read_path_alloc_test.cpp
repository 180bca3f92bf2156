/// The warm read path performs ZERO heap allocations (DESIGN.md §9).
///
/// This binary replaces global operator new/delete with malloc/free
/// shims that report every allocation to common/alloc_probe.hpp. The op
/// cores bracket themselves in AllocProbe::ReadScope and suspend the
/// count with OutputScope only around the push_backs into caller-owned
/// result buffers — so once a fig10-style batch has run a first, cold
/// pass (growing the per-thread OpScratch, the arena's cached blocks,
/// and LocalIndex's score scratch), an identical second pass must report
/// a count of exactly zero: not "few", zero.
///
/// This test owns its own test binary (meteo_alloc_tests) so the global
/// operator replacement cannot interact with any other suite.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "meteorograph/epoch.hpp"
#include "overlay/overlay.hpp"
#include "workload/trace.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: forward to malloc/free, report to the probe.
// The probe itself only counts inside an armed ReadScope, so gtest's and
// the harness's own allocations never pollute the measurement.

namespace {

void* counted_alloc(std::size_t bytes) {
  meteo::AllocProbe::note(bytes);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t bytes, std::size_t alignment) {
  meteo::AllocProbe::note(bytes);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, bytes == 0 ? alignment : bytes) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  meteo::AllocProbe::note(bytes);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  meteo::AllocProbe::note(bytes);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

namespace meteo::core {
namespace {

struct Fixture {
  workload::Trace trace;
  std::vector<vsm::SparseVector> vectors;
  std::vector<std::vector<vsm::KeywordId>> queries;
};

Fixture make_fixture(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.num_items = items;
  cfg.num_keywords = 2000;
  cfg.mean_basket = 10.0;
  cfg.max_basket = 100;
  Fixture f{workload::synthesize_trace(cfg, seed), {}, {}};
  const std::vector<double> weights =
      f.trace.keyword_weights(workload::WeightScheme::kIdf);
  f.vectors.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    f.vectors.push_back(f.trace.vector_of(i, weights));
  }
  // fig10-style conjunctive queries: keyword pairs drawn from real items,
  // so searches actually harvest and chase pointers.
  for (std::size_t i = 0; i < items; i += 29) {
    const auto entries = f.vectors[i].entries();
    std::vector<vsm::KeywordId> q;
    q.push_back(entries.front().keyword);
    if (entries.size() > 1) q.push_back(entries[entries.size() / 2].keyword);
    f.queries.push_back(std::move(q));
  }
  return f;
}

Meteorograph make_system(const Fixture& f, std::size_t nodes,
                         std::uint64_t seed) {
  SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = 2000;
  cfg.load_balance = LoadBalanceMode::kUnusedHashSpace;
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < f.vectors.size(); i += 37) {
    sample.push_back(f.vectors[i]);
  }
  Meteorograph sys(cfg, sample, seed);
  for (vsm::ItemId id = 0; id < f.vectors.size(); ++id) {
    EXPECT_TRUE(sys.publish(id, f.vectors[id]).success);
  }
  return sys;
}

TEST(ReadPathAlloc, WarmSearchBatchAllocatesNothing) {
  const Fixture f = make_fixture(300, 0x516);
  Meteorograph sys = make_system(f, 80, 0x516);
  // workers = 1 runs every op on this thread: the cold pass below warms
  // exactly the thread_local scratch the measured pass will use.
  EpochEngine engine(sys, {.workers = 1, .seed = 42});

  std::vector<SearchOp> ops;
  for (const auto& q : f.queries) ops.push_back(SearchOp{q, 0, {}});

  const std::vector<SearchResult> cold = engine.similarity_search(ops);
  ASSERT_FALSE(cold.empty());

  AllocProbe::reset();
  AllocProbe::arm();
  const std::vector<SearchResult> warm = engine.similarity_search(ops);
  AllocProbe::disarm();

  EXPECT_EQ(AllocProbe::counted(), 0u)
      << AllocProbe::counted_bytes() << " bytes allocated on the warm "
      << "search read path";
  // Sanity: the measured pass did real work, identical to the cold one.
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].items, cold[i].items) << "op " << i;
  }
}

TEST(ReadPathAlloc, WarmRetrieveAndLocateBatchesAllocateNothing) {
  const Fixture f = make_fixture(300, 0x517);
  Meteorograph sys = make_system(f, 80, 0x517);
  EpochEngine engine(sys, {.workers = 1, .seed = 43});

  std::vector<RetrieveOp> retrieves;
  std::vector<LocateOp> locates;
  for (vsm::ItemId id = 0; id < f.vectors.size(); id += 17) {
    retrieves.push_back(RetrieveOp{&f.vectors[id], 5, {}});
    locates.push_back(LocateOp{id, &f.vectors[id], {}});
  }

  const std::vector<RetrieveResult> cold_r = engine.retrieve(retrieves);
  const std::vector<LocateResult> cold_l = engine.locate(locates);

  AllocProbe::reset();
  AllocProbe::arm();
  const std::vector<RetrieveResult> warm_r = engine.retrieve(retrieves);
  const std::vector<LocateResult> warm_l = engine.locate(locates);
  AllocProbe::disarm();

  EXPECT_EQ(AllocProbe::counted(), 0u)
      << AllocProbe::counted_bytes() << " bytes allocated on the warm "
      << "retrieve/locate read path";
  ASSERT_EQ(warm_r.size(), cold_r.size());
  for (std::size_t i = 0; i < warm_r.size(); ++i) {
    ASSERT_EQ(warm_r[i].items.size(), cold_r[i].items.size()) << "op " << i;
    for (std::size_t j = 0; j < warm_r[i].items.size(); ++j) {
      EXPECT_EQ(warm_r[i].items[j].id, cold_r[i].items[j].id);
    }
  }
  for (std::size_t i = 0; i < warm_l.size(); ++i) {
    EXPECT_EQ(warm_l[i].found, cold_l[i].found) << "op " << i;
    EXPECT_EQ(warm_l[i].node, cold_l[i].node) << "op " << i;
  }
}

TEST(ReadPathAlloc, WarmOverlayLookupsAllocateNothing) {
  // The caller-buffer overloads of Overlay::closest_nodes / alive_nodes
  // (DESIGN.md §13) write into reusable vectors; once those are warm, a
  // lookup touches only the flat registry arrays — zero allocations.
  overlay::OverlayConfig cfg;
  overlay::Overlay net(cfg);
  Rng rng(0x518);
  while (net.alive_count() < 500) (void)net.join(rng.below(cfg.key_space));
  net.repair();

  std::vector<overlay::NodeId> homes;
  std::vector<overlay::NodeId> alive;
  // Cold pass grows the buffers to their high-water marks.
  net.closest_nodes(rng.below(cfg.key_space), 8, homes);
  net.alive_nodes(alive);

  AllocProbe::reset();
  AllocProbe::arm();
  {
    const AllocProbe::ReadScope read;
    for (int probe = 0; probe < 64; ++probe) {
      net.closest_nodes(rng.below(cfg.key_space), 8, homes);
      ASSERT_EQ(homes.size(), 8u);
    }
    net.alive_nodes(alive);
    ASSERT_EQ(alive.size(), net.alive_count());
  }
  AllocProbe::disarm();

  EXPECT_EQ(AllocProbe::counted(), 0u)
      << AllocProbe::counted_bytes() << " bytes allocated by warm overlay "
      << "lookups";
}

TEST(ReadPathAlloc, ProbeCountsOnlyInsideReadScopes) {
  // The shims are live in this whole binary; prove the scoping logic
  // filters correctly: armed + ReadScope counts, OutputScope suspends,
  // disarmed never counts.
  AllocProbe::reset();
  AllocProbe::arm();
  { auto* p = new int(1); delete p; }  // no ReadScope: not counted
  EXPECT_EQ(AllocProbe::counted(), 0u);
  {
    const AllocProbe::ReadScope read;
    auto* p = new int(2);
    delete p;
  }
  EXPECT_EQ(AllocProbe::counted(), 1u);
  {
    const AllocProbe::ReadScope read;
    const AllocProbe::OutputScope out;
    auto* p = new int(3);
    delete p;
  }
  EXPECT_EQ(AllocProbe::counted(), 1u);
  AllocProbe::disarm();
  {
    const AllocProbe::ReadScope read;
    auto* p = new int(4);
    delete p;
  }
  EXPECT_EQ(AllocProbe::counted(), 1u);
  AllocProbe::reset();
  EXPECT_EQ(AllocProbe::counted(), 0u);
}

}  // namespace
}  // namespace meteo::core
