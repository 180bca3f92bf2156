/// Golden oracle for the naming seam: the default (absolute-angle)
/// strategy must be bit-identical — names, routes, results, metric dumps,
/// and traces — to the pre-refactor hardcoded Eq. 5/Eq. 6 path. The
/// fingerprints below were captured from the seed revision *before* the
/// NamingStrategy interface existed, on the fig7-shaped (uncapacitated
/// locate/retrieve) and fig10-shaped (8c-capacitated similarity-search)
/// workloads; any drift in a key, a hop count, an item order, a metric
/// cell, or a span event changes the hash.
///
/// If a fingerprint ever changes on purpose (a deliberate re-baseline),
/// document the behavior change and paste the new value from the failure
/// message — never re-capture silently.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

// --- fingerprint helpers -----------------------------------------------

/// FNV-1a over the accumulated byte string. Everything fed in is either
/// integral or a double produced by deterministic IEEE arithmetic (the
/// bit-identical contract, DESIGN.md §11), so the hash is exact.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(bool v) { byte(v ? 1 : 0); }
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Corpus {
  std::vector<vsm::SparseVector> vectors;
  std::vector<vsm::SparseVector> sample;
  workload::Trace trace;
};

Corpus make_corpus(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig tc;
  tc.num_items = items;
  tc.num_keywords = 2000;
  tc.mean_basket = 10.0;
  tc.max_basket = 100;
  Corpus corpus{{}, {}, workload::synthesize_trace(tc, seed)};
  const auto weights =
      corpus.trace.keyword_weights(workload::WeightScheme::kIdf);
  for (std::size_t i = 0; i < items; ++i) {
    corpus.vectors.push_back(corpus.trace.vector_of(i, weights));
  }
  for (std::size_t i = 0; i < items; i += 29) {
    corpus.sample.push_back(corpus.vectors[i]);
  }
  return corpus;
}

void add_publish(Fingerprint& fp, const PublishResult& r) {
  fp.add(r.success);
  fp.add(static_cast<std::uint64_t>(r.home));
  fp.add(static_cast<std::uint64_t>(r.stored_at));
  fp.add(static_cast<std::uint64_t>(r.route_hops));
  fp.add(static_cast<std::uint64_t>(r.chain_hops));
  fp.add(static_cast<std::uint64_t>(r.replica_messages));
  fp.add(static_cast<std::uint64_t>(r.pointer_messages));
  fp.add(r.degraded);
}

/// fig7 shape: uncapacitated hot-region system; publish the corpus, then
/// a mixed locate/retrieve batch at 3 workers. Names, per-op results,
/// and both observability dumps feed the fingerprint.
std::uint64_t fig7_fingerprint() {
  const Corpus corpus = make_corpus(240, 21);

  SystemConfig cfg;
  cfg.node_count = 90;
  cfg.dimension = 2000;
  cfg.replicas = 2;
  std::optional<Meteorograph> sys;
  sys.emplace(cfg, corpus.sample, 33);

  Fingerprint fp;
  // Names first: raw and balanced keys are the seam's direct output.
  for (const vsm::SparseVector& v : corpus.vectors) {
    fp.add(static_cast<std::uint64_t>(sys->raw_key(v)));
    fp.add(static_cast<std::uint64_t>(sys->balanced_key(v)));
  }
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); ++id) {
    add_publish(fp, sys->publish(id, corpus.vectors[id]));
  }

  obs::TraceLog log;
  EXPECT_TRUE(sys->set_tracer(&log));
  EpochEngine engine(*sys, EpochOptions{.workers = 3, .seed = 5});
  std::vector<LocateOp> locates;
  std::vector<RetrieveOp> retrieves;
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); id += 2) {
    locates.push_back(LocateOp{id, &corpus.vectors[id], {}});
    retrieves.push_back(RetrieveOp{&corpus.vectors[id], 5, {}});
  }
  for (const LocateResult& r : engine.locate(locates)) {
    fp.add(r.found);
    fp.add(static_cast<std::uint64_t>(r.node));
    fp.add(r.via_replica);
    fp.add(static_cast<std::uint64_t>(r.route_hops));
    fp.add(static_cast<std::uint64_t>(r.walk_hops));
  }
  for (const RetrieveResult& r : engine.retrieve(retrieves)) {
    fp.add(static_cast<std::uint64_t>(r.items.size()));
    for (const vsm::ScoredItem& item : r.items) {
      fp.add(static_cast<std::uint64_t>(item.id));
      fp.add(item.score);
    }
    fp.add(static_cast<std::uint64_t>(r.nodes_visited));
    fp.add(static_cast<std::uint64_t>(r.route_hops));
    fp.add(static_cast<std::uint64_t>(r.walk_hops));
  }
  fp.add(obs::metrics_to_json(sys->metrics()));
  fp.add(obs::trace_to_chrome_json(log));
  return fp.value();
}

/// fig10 shape: 8c capacity (publishes overflow-chain), directory
/// pointers on; similarity-search batch over each item's leading
/// keywords, traced.
std::uint64_t fig10_fingerprint() {
  const Corpus corpus = make_corpus(300, 22);

  SystemConfig cfg;
  cfg.node_count = 80;
  cfg.dimension = 2000;
  cfg.node_capacity = 8 * (300 / 80);
  std::optional<Meteorograph> sys;
  sys.emplace(cfg, corpus.sample, 44);

  Fingerprint fp;
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); ++id) {
    add_publish(fp, sys->publish(id, corpus.vectors[id]));
  }

  obs::TraceLog log;
  EXPECT_TRUE(sys->set_tracer(&log));
  std::vector<std::vector<vsm::KeywordId>> queries;
  for (std::size_t i = 0; i < corpus.vectors.size(); i += 5) {
    const auto entries = corpus.vectors[i].entries();
    std::vector<vsm::KeywordId> q;
    for (std::size_t j = 0; j < entries.size() && j < 2; ++j) {
      q.push_back(entries[j].keyword);
    }
    queries.push_back(std::move(q));
  }
  std::vector<SearchOp> ops;
  ops.reserve(queries.size());
  for (const auto& q : queries) ops.push_back(SearchOp{q, 10, {}});
  EpochEngine engine(*sys, EpochOptions{.workers = 3, .seed = 7});
  for (const SearchResult& r : engine.similarity_search(ops)) {
    fp.add(static_cast<std::uint64_t>(r.items.size()));
    for (std::size_t i = 0; i < r.items.size(); ++i) {
      fp.add(static_cast<std::uint64_t>(r.items[i]));
      fp.add(static_cast<std::uint64_t>(r.discovery_hops[i]));
    }
    fp.add(static_cast<std::uint64_t>(r.lookup_messages));
    fp.add(static_cast<std::uint64_t>(r.nodes_visited));
    fp.add(static_cast<std::uint64_t>(r.route_hops));
    fp.add(static_cast<std::uint64_t>(r.walk_hops));
  }
  fp.add(obs::metrics_to_json(sys->metrics()));
  fp.add(obs::trace_to_chrome_json(log));
  return fp.value();
}

// Captured from the pre-refactor seed (commit c2f42dc, hardcoded Eq. 5/6
// naming path) — see the file comment before touching these.
constexpr std::uint64_t kFig7Golden = 1326521579247890518ULL;
constexpr std::uint64_t kFig10Golden = 8462943567605827534ULL;

TEST(NamingGolden, Fig7WorkloadBitIdenticalToPreRefactorPath) {
  EXPECT_EQ(fig7_fingerprint(), kFig7Golden);
}

TEST(NamingGolden, Fig10WorkloadBitIdenticalToPreRefactorPath) {
  EXPECT_EQ(fig10_fingerprint(), kFig10Golden);
}

}  // namespace
}  // namespace meteo::core
