/// Kernel microbenchmarks (google-benchmark): the hot paths every
/// experiment leans on — absolute-angle computation, Eq. 6 remapping,
/// overlay routing, the workload samplers, and whole-batch execution at
/// increasing worker counts.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "meteorograph/epoch.hpp"
#include "meteorograph/naming.hpp"
#include "overlay/overlay.hpp"
#include "vsm/absolute_angle.hpp"
#include "vsm/kernels.hpp"
#include "vsm/local_index.hpp"
#include "vsm/naive_scan.hpp"
#include "vsm/sparse_vector.hpp"
#include "workload/trace.hpp"

namespace {

using namespace meteo;

vsm::SparseVector make_vector(Rng& rng, std::size_t nnz, std::size_t dims) {
  std::vector<vsm::Entry> entries;
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.push_back({static_cast<vsm::KeywordId>(rng.below(dims)),
                       rng.uniform() + 0.1});
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

void BM_AbsoluteAngle(benchmark::State& state) {
  Rng rng(1);
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const auto v = make_vector(rng, nnz, 89'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsm::absolute_angle(v, 89'000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AbsoluteAngle)->Arg(8)->Arg(43)->Arg(512);

void BM_CosineSimilarity(benchmark::State& state) {
  Rng rng(2);
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(rng, nnz, 89'000);
  const auto b = make_vector(rng, nnz, 89'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsm::cosine_similarity(a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(43)->Arg(512);

void BM_Eq6Remap(benchmark::State& state) {
  Rng rng(3);
  core::SystemConfig cfg;
  cfg.load_balance = core::LoadBalanceMode::kUnusedHashSpace;
  std::vector<overlay::Key> sample;
  for (int i = 0; i < 10'000; ++i) {
    sample.push_back(cfg.overlay.key_space / 2 + rng.below(100'000));
  }
  const core::NamingScheme naming = core::NamingScheme::fit(sample, cfg);
  overlay::Key key = 0;
  for (auto _ : state) {
    key += 7919;
    benchmark::DoNotOptimize(naming.remap(key % cfg.overlay.key_space));
  }
}
BENCHMARK(BM_Eq6Remap);

void BM_OverlayRoute(benchmark::State& state) {
  Rng rng(4);
  overlay::Overlay net{{}};
  const auto nodes = static_cast<std::size_t>(state.range(0));
  while (net.alive_count() < nodes) {
    (void)net.join(rng.below(net.config().key_space));
  }
  net.repair();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.route(net.random_alive(rng), rng.below(net.config().key_space)));
  }
}
BENCHMARK(BM_OverlayRoute)->Arg(1000)->Arg(10'000);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  const ZipfSampler zipf(89'000, 0.95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> weights(4096);
  for (auto& w : weights) w = rng.uniform() + 0.01;
  const AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table(rng));
  }
}
BENCHMARK(BM_AliasSample);

// --- node-local query engine (DESIGN.md §9) --------------------------------
//
// BM_LocalIndex* (inverted postings) vs BM_LocalIndexNaive* (the retained
// naive scan from vsm/naive_scan.hpp) at store sizes {16,128,1024} and
// query nnz {2,8,32}. tools/bench_compare.py diffs the resulting
// BENCH_local_index.json against the committed baseline.

constexpr std::size_t kIndexDims = 1024;
constexpr std::size_t kItemNnz = 8;

template <typename Index>
Index make_index(std::size_t size) {
  Rng rng(11);
  Index idx;
  for (vsm::ItemId id = 0; id < size; ++id) {
    idx.insert(id, make_vector(rng, kItemNnz, kIndexDims));
  }
  return idx;
}

template <typename Index>
void bench_index_top_k(benchmark::State& state) {
  Rng rng(12);
  const auto idx = make_index<Index>(static_cast<std::size_t>(state.range(0)));
  const auto query =
      make_vector(rng, static_cast<std::size_t>(state.range(1)), kIndexDims);
  std::vector<vsm::ScoredItem> out;
  for (auto _ : state) {
    out = idx.top_k(query, 10);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Index>
void bench_index_match_all(benchmark::State& state) {
  Rng rng(13);
  const auto idx = make_index<Index>(static_cast<std::size_t>(state.range(0)));
  const auto probe =
      make_vector(rng, static_cast<std::size_t>(state.range(1)), kIndexDims);
  std::vector<vsm::KeywordId> keywords;
  for (const vsm::Entry& e : probe.entries()) keywords.push_back(e.keyword);
  std::vector<vsm::ItemId> out;
  for (auto _ : state) {
    out = idx.match_all(keywords);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Index>
void bench_index_within_angle(benchmark::State& state) {
  Rng rng(14);
  const auto idx = make_index<Index>(static_cast<std::size_t>(state.range(0)));
  const auto query =
      make_vector(rng, static_cast<std::size_t>(state.range(1)), kIndexDims);
  std::vector<vsm::ScoredItem> out;
  for (auto _ : state) {
    out = idx.within_angle(query, 1.2);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Index>
void bench_index_evict(benchmark::State& state) {
  Rng rng(15);
  auto idx = make_index<Index>(static_cast<std::size_t>(state.range(0)));
  const auto reference =
      make_vector(rng, static_cast<std::size_t>(state.range(1)), kIndexDims);
  for (auto _ : state) {
    auto evicted = idx.evict_least_similar(reference);
    benchmark::DoNotOptimize(evicted);
    idx.insert(evicted->id, std::move(evicted->vector));  // keep size fixed
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LocalIndexTopK(benchmark::State& state) {
  bench_index_top_k<vsm::LocalIndex>(state);
}
void BM_LocalIndexNaiveTopK(benchmark::State& state) {
  bench_index_top_k<vsm::NaiveScanIndex>(state);
}
void BM_LocalIndexMatchAll(benchmark::State& state) {
  bench_index_match_all<vsm::LocalIndex>(state);
}
void BM_LocalIndexNaiveMatchAll(benchmark::State& state) {
  bench_index_match_all<vsm::NaiveScanIndex>(state);
}
void BM_LocalIndexWithinAngle(benchmark::State& state) {
  bench_index_within_angle<vsm::LocalIndex>(state);
}
void BM_LocalIndexNaiveWithinAngle(benchmark::State& state) {
  bench_index_within_angle<vsm::NaiveScanIndex>(state);
}
void BM_LocalIndexEvict(benchmark::State& state) {
  bench_index_evict<vsm::LocalIndex>(state);
}
void BM_LocalIndexNaiveEvict(benchmark::State& state) {
  bench_index_evict<vsm::NaiveScanIndex>(state);
}

void index_sizes(benchmark::internal::Benchmark* b) {
  for (const std::int64_t size : {16, 128, 1024}) {
    for (const std::int64_t nnz : {2, 8, 32}) {
      b->Args({size, nnz});
    }
  }
}

BENCHMARK(BM_LocalIndexTopK)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexNaiveTopK)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexMatchAll)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexNaiveMatchAll)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexWithinAngle)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexNaiveWithinAngle)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexEvict)->Apply(index_sizes);
BENCHMARK(BM_LocalIndexNaiveEvict)->Apply(index_sizes);

// --- similarity kernels (vsm/kernels.hpp) ----------------------------------
//
// BM_Kernel* isolates the extracted inner loops, pairing the scalar
// reference against the AVX2 finalize variant at the index shapes the
// BM_LocalIndex* suite exercises (items x query nnz). The scalar/vector
// pair is the headline number: both produce bit-identical scores (proven
// by tests/vsm/kernel_oracle_test.cpp), so the speedup is free.
// tools/bench_compare.py diffs BENCH_kernels.json against the committed
// baseline.

/// acc/norms/touched arrays shaped like LocalIndex::top_k's state after
/// its accumulate pass: every item touched, accumulation from a real
/// term-at-a-time walk.
struct KernelFixture {
  std::vector<double> acc;
  std::vector<double> norms;
  std::vector<std::size_t> touched;
  std::vector<double> out;
  double qnorm = 1.0;
};

KernelFixture make_kernel_fixture(std::size_t items, std::size_t query_nnz) {
  Rng rng(21);
  KernelFixture f;
  f.acc.resize(items);
  f.norms.resize(items);
  f.out.resize(items);
  f.touched.resize(items);
  const auto query = make_vector(rng, query_nnz, kIndexDims);
  f.qnorm = query.norm();
  const auto qentries = query.entries();
  for (std::size_t s = 0; s < items; ++s) {
    // A touched slot was reached through a posting list, so the item
    // shares at least one query term and its accumulation is nonzero —
    // the operand distribution the finalize kernel actually sees.
    std::vector<vsm::Entry> entries;
    entries.push_back({qentries[rng.below(qentries.size())].keyword,
                       rng.uniform() + 0.1});
    for (std::size_t i = 1; i < kItemNnz; ++i) {
      entries.push_back({static_cast<vsm::KeywordId>(rng.below(kIndexDims)),
                         rng.uniform() + 0.1});
    }
    const auto item = vsm::SparseVector::from_entries(std::move(entries));
    f.norms[s] = item.norm();
    f.acc[s] = vsm::kernels::dot_merge(query.entries(), item.entries());
    f.touched[s] = s;
  }
  return f;
}

template <void (*Kernel)(const double*, const double*, const std::size_t*,
                         std::size_t, double, double*) noexcept>
void bench_kernel_score(benchmark::State& state) {
  const auto f = make_kernel_fixture(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)));
  auto out = f.out;
  for (auto _ : state) {
    Kernel(f.acc.data(), f.norms.data(), f.touched.data(), f.touched.size(),
           f.qnorm, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_KernelTopKScoreScalar(benchmark::State& state) {
  bench_kernel_score<vsm::kernels::score_touched_scalar>(state);
}
void BM_KernelTopKScoreVector(benchmark::State& state) {
  bench_kernel_score<vsm::kernels::score_touched_vector>(state);
}

void kernel_sizes(benchmark::internal::Benchmark* b) {
  for (const std::int64_t items : {128, 1024, 8192}) {
    b->Args({items, 32});
  }
}

BENCHMARK(BM_KernelTopKScoreScalar)->Apply(kernel_sizes);
BENCHMARK(BM_KernelTopKScoreVector)->Apply(kernel_sizes);

void BM_KernelDotMerge(benchmark::State& state) {
  Rng rng(22);
  const auto nnz = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(rng, nnz, kIndexDims);
  const auto b = make_vector(rng, nnz, kIndexDims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsm::kernels::dot_merge(a.entries(), b.entries()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelDotMerge)->Arg(8)->Arg(32)->Arg(128);

void BM_KernelAccumulate(benchmark::State& state) {
  // One term's posting walk over a list covering every item — the
  // scatter-bound half of top_k that stays scalar by contract (R3).
  const auto items = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  std::vector<std::size_t> slots(items);
  std::vector<double> weights(items);
  for (std::size_t s = 0; s < items; ++s) {
    slots[s] = s;
    weights[s] = rng.uniform() + 0.1;
  }
  std::vector<double> acc(items);
  std::vector<std::uint64_t> epoch(items, 0);
  std::vector<std::size_t> touched;
  touched.reserve(items);
  std::uint64_t cur = 0;
  for (auto _ : state) {
    ++cur;
    touched.clear();
    vsm::kernels::accumulate_term(0.7, slots.data(), weights.data(), items,
                                  acc.data(), epoch.data(), cur, touched);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KernelAccumulate)->Arg(128)->Arg(1024)->Arg(8192);

void BM_KernelAxisAngle(benchmark::State& state) {
  Rng rng(24);
  const auto v = make_vector(rng, static_cast<std::size_t>(state.range(0)),
                             kIndexDims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vsm::kernels::axis_angle_sumsq(v.entries(), v.norm()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelAxisAngle)->Arg(8)->Arg(43)->Arg(512);

// --- batch engine ----------------------------------------------------------

/// A published system plus prebuilt op vectors, built once and shared by
/// every BM_Batch* invocation (read-only batches leave it untouched).
struct BatchFixture {
  std::vector<vsm::SparseVector> vectors;
  core::Meteorograph sys;
  std::vector<core::LocateOp> locate_ops;
  std::vector<core::RetrieveOp> retrieve_ops;
};

BatchFixture& batch_fixture() {
  static BatchFixture* fx = [] {
    workload::TraceConfig tc;
    tc.num_items = 2000;
    tc.num_keywords = 5000;
    tc.mean_basket = 10.0;
    tc.max_basket = 100;
    const workload::Trace trace = workload::synthesize_trace(tc, 42);
    const auto weights = trace.keyword_weights(workload::WeightScheme::kIdf);
    std::vector<vsm::SparseVector> vectors;
    vectors.reserve(tc.num_items);
    for (std::size_t i = 0; i < tc.num_items; ++i) {
      vectors.push_back(trace.vector_of(i, weights));
    }
    std::vector<vsm::SparseVector> sample;
    for (std::size_t i = 0; i < vectors.size(); i += 17) {
      sample.push_back(vectors[i]);
    }
    core::SystemConfig cfg;
    cfg.node_count = 500;
    cfg.dimension = 5000;
    auto* f = new BatchFixture{std::move(vectors),
                               core::Meteorograph(cfg, sample, 42),
                               {},
                               {}};
    for (vsm::ItemId id = 0; id < f->vectors.size(); ++id) {
      (void)f->sys.publish(id, f->vectors[id]);
    }
    // Ops borrow from f->vectors, whose buffer is already at rest.
    for (vsm::ItemId id = 0; id < f->vectors.size(); ++id) {
      f->locate_ops.push_back(core::LocateOp{id, &f->vectors[id], {}});
      f->retrieve_ops.push_back(core::RetrieveOp{&f->vectors[id], 5, {}});
    }
    return f;
  }();
  return *fx;
}

void BM_BatchLocate(benchmark::State& state) {
  BatchFixture& fx = batch_fixture();
  core::EpochEngine engine(
      fx.sys, {.workers = static_cast<std::size_t>(state.range(0)), .seed = 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.locate(fx.locate_ops));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.locate_ops.size()));
}
BENCHMARK(BM_BatchLocate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchRetrieve(benchmark::State& state) {
  BatchFixture& fx = batch_fixture();
  core::EpochEngine engine(
      fx.sys, {.workers = static_cast<std::size_t>(state.range(0)), .seed = 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.retrieve(fx.retrieve_ops));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.retrieve_ops.size()));
}
BENCHMARK(BM_BatchRetrieve)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
