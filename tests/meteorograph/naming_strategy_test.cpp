/// The naming-strategy seam (DESIGN.md §12): range-key order
/// preservation, LSH key/probe geometry and statelessness, multi-key
/// publication end to end, per-strategy observability, and the LSH
/// determinism bar — byte-identical dumps at 1 vs 4 workers under 5%
/// message drop.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "meteorograph/naming/lsh.hpp"
#include "meteorograph/naming/range_key.hpp"
#include "meteorograph/naming/strategy.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct Corpus {
  std::vector<vsm::SparseVector> vectors;
  std::vector<vsm::SparseVector> sample;
};

Corpus make_corpus(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig tc;
  tc.num_items = items;
  tc.num_keywords = 2000;
  tc.mean_basket = 10.0;
  tc.max_basket = 100;
  const workload::Trace trace = workload::synthesize_trace(tc, seed);
  const auto weights = trace.keyword_weights(workload::WeightScheme::kIdf);
  Corpus corpus;
  for (std::size_t i = 0; i < items; ++i) {
    corpus.vectors.push_back(trace.vector_of(i, weights));
  }
  for (std::size_t i = 0; i < items; i += 17) {
    corpus.sample.push_back(corpus.vectors[i]);
  }
  return corpus;
}

SystemConfig small_config(NamingStrategyKind strategy) {
  SystemConfig cfg;
  cfg.node_count = 60;
  cfg.dimension = 2000;
  cfg.naming.strategy = strategy;
  return cfg;
}

// --- factory & strategy identity -------------------------------------------

TEST(NamingStrategyTest, FactoryBuildsTheConfiguredStrategy) {
  const Corpus corpus = make_corpus(80, 7);
  for (const auto& [kind, name] :
       {std::pair{NamingStrategyKind::kAngle, "angle"},
        std::pair{NamingStrategyKind::kRangeKey, "range"},
        std::pair{NamingStrategyKind::kLsh, "lsh"}}) {
    const auto strategy =
        make_naming_strategy(corpus.sample, small_config(kind));
    EXPECT_STREQ(strategy->name(), name);
    EXPECT_EQ(strategy->multi_key(), kind == NamingStrategyKind::kLsh);
    // The angle strategy is the silent default; the others must announce
    // themselves in spans and metrics.
    EXPECT_EQ(strategy->records_naming(), kind != NamingStrategyKind::kAngle);
  }
}

TEST(NamingStrategyTest, SingleKeyStrategiesProbeExactlyThePrimaryKey) {
  const Corpus corpus = make_corpus(80, 7);
  for (const NamingStrategyKind kind :
       {NamingStrategyKind::kAngle, NamingStrategyKind::kRangeKey}) {
    const auto strategy =
        make_naming_strategy(corpus.sample, small_config(kind));
    for (const vsm::SparseVector& v : corpus.vectors) {
      std::vector<overlay::Key> publish;
      std::vector<overlay::Key> probe;
      strategy->publish_keys(v, publish);
      strategy->probe_keys(v, probe);
      ASSERT_EQ(publish.size(), 1u);
      ASSERT_EQ(probe.size(), 1u);
      EXPECT_EQ(publish.front(), strategy->primary_key(v));
      EXPECT_EQ(probe.front(), strategy->primary_key(v));
    }
  }
}

TEST(NamingStrategyTest, DirectoryKeyIsTheRawAngleKeyUnderEveryStrategy) {
  const Corpus corpus = make_corpus(60, 11);
  for (const NamingStrategyKind kind :
       {NamingStrategyKind::kAngle, NamingStrategyKind::kRangeKey,
        NamingStrategyKind::kLsh}) {
    const auto strategy =
        make_naming_strategy(corpus.sample, small_config(kind));
    for (const vsm::SparseVector& v : corpus.vectors) {
      EXPECT_EQ(strategy->directory_key(v), strategy->scheme().raw_key(v));
    }
  }
}

// --- range-key strategy -----------------------------------------------------

TEST(NamingStrategyTest, RangeKeyPreservesAngleOrder) {
  const Corpus corpus = make_corpus(120, 13);
  const auto strategy = make_naming_strategy(
      corpus.sample, small_config(NamingStrategyKind::kRangeKey));
  const auto& scheme = strategy->scheme();

  // Sort items by continuous raw angle; their range keys must be
  // non-decreasing in that order (strict monotonicity modulo flooring).
  std::vector<std::size_t> order(corpus.vectors.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scheme.raw_value(corpus.vectors[a]) <
           scheme.raw_value(corpus.vectors[b]);
  });
  overlay::Key prev = 0;
  for (const std::size_t i : order) {
    const overlay::Key key = strategy->primary_key(corpus.vectors[i]);
    EXPECT_GE(key, prev);
    prev = key;
  }
}

TEST(NamingStrategyTest, RangeKeyStretchesTheSampleBandOverTheKeySpace) {
  const Corpus corpus = make_corpus(120, 13);
  const SystemConfig cfg = small_config(NamingStrategyKind::kRangeKey);
  NamingScheme scheme =
      NamingScheme::fit(NamingScheme::raw_keys(corpus.sample, cfg), cfg);
  const RangeKeyNaming strategy(std::move(scheme), corpus.sample);
  ASSERT_LT(strategy.band_lo(), strategy.band_hi());

  // The sample extremes land on (or clamp to) the space's extremes.
  overlay::Key lo = cfg.overlay.key_space;
  overlay::Key hi = 0;
  for (const vsm::SparseVector& v : corpus.sample) {
    const overlay::Key key = strategy.primary_key(v);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, cfg.overlay.key_space - 1);
}

// --- LSH strategy ------------------------------------------------------------

TEST(NamingStrategyTest, LshPublishesOneKeyPerTableInDisjointSegments) {
  const Corpus corpus = make_corpus(100, 17);
  const SystemConfig cfg = small_config(NamingStrategyKind::kLsh);
  const auto strategy = make_naming_strategy(corpus.sample, cfg);
  const overlay::Key segment =
      cfg.overlay.key_space / cfg.naming.lsh_tables;

  for (const vsm::SparseVector& v : corpus.vectors) {
    std::vector<overlay::Key> keys;
    strategy->publish_keys(v, keys);
    ASSERT_EQ(keys.size(), cfg.naming.lsh_tables);
    EXPECT_EQ(keys.front(), strategy->primary_key(v));
    for (std::size_t t = 0; t < keys.size(); ++t) {
      // Table t's bucket key lives inside table t's segment: keys never
      // collide across tables.
      EXPECT_GE(keys[t], static_cast<overlay::Key>(t) * segment);
      EXPECT_LT(keys[t], static_cast<overlay::Key>(t + 1) * segment);
    }
  }
}

TEST(NamingStrategyTest, LshProbesCoverEveryBaseBucketPlusPerturbations) {
  const Corpus corpus = make_corpus(60, 19);
  const SystemConfig cfg = small_config(NamingStrategyKind::kLsh);
  const auto strategy = make_naming_strategy(corpus.sample, cfg);

  for (const vsm::SparseVector& v : corpus.vectors) {
    std::vector<overlay::Key> publish;
    std::vector<overlay::Key> probes;
    strategy->publish_keys(v, publish);
    strategy->probe_keys(v, probes);
    ASSERT_EQ(probes.size(),
              cfg.naming.lsh_tables * (1 + cfg.naming.lsh_probes));
    // Self-query: each table's base probe is exactly the published bucket.
    for (std::size_t t = 0; t < cfg.naming.lsh_tables; ++t) {
      EXPECT_EQ(probes[t * (1 + cfg.naming.lsh_probes)], publish[t]);
    }
    // Perturbations are distinct from their base bucket.
    for (std::size_t t = 0; t < cfg.naming.lsh_tables; ++t) {
      const std::size_t base = t * (1 + cfg.naming.lsh_probes);
      for (std::size_t p = 1; p <= cfg.naming.lsh_probes; ++p) {
        EXPECT_NE(probes[base + p], probes[base]);
      }
    }
  }
}

TEST(NamingStrategyTest, LshKeysAreStatelessAndSeedStable) {
  const Corpus corpus = make_corpus(60, 23);
  const SystemConfig cfg = small_config(NamingStrategyKind::kLsh);
  // Two independent instances — and repeated calls on one instance —
  // agree exactly: keys are pure functions of (config seed, vector).
  const auto a = make_naming_strategy(corpus.sample, cfg);
  const auto b = make_naming_strategy(corpus.sample, cfg);
  for (const vsm::SparseVector& v : corpus.vectors) {
    std::vector<overlay::Key> ka;
    std::vector<overlay::Key> kb;
    std::vector<overlay::Key> ka2;
    a->publish_keys(v, ka);
    b->publish_keys(v, kb);
    a->publish_keys(v, ka2);
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(ka, ka2);
  }

  // A different hyperplane seed names differently (the seed is live).
  SystemConfig reseeded = cfg;
  reseeded.naming.lsh_seed ^= 0xdeadbeefULL;
  const auto c = make_naming_strategy(corpus.sample, reseeded);
  std::size_t differing = 0;
  for (const vsm::SparseVector& v : corpus.vectors) {
    if (c->primary_key(v) != a->primary_key(v)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

// --- end-to-end through the facade ------------------------------------------

TEST(NamingStrategyTest, MultiKeyPublishRetrieveLocateWithdrawRoundTrip) {
  const Corpus corpus = make_corpus(120, 29);
  std::optional<Meteorograph> sys;
  sys.emplace(small_config(NamingStrategyKind::kLsh), corpus.sample, 31);

  for (vsm::ItemId id = 0; id < corpus.vectors.size(); ++id) {
    const PublishResult r = sys->publish(id, corpus.vectors[id]);
    ASSERT_TRUE(r.success);
    // g-1 extra copies were placed and billed.
    EXPECT_GT(r.naming_key_messages, 0u);
    EXPECT_GT(r.total_messages(), r.route_hops + r.chain_hops);
  }

  // Self-queries find their item through the probe plan.
  std::size_t found = 0;
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); id += 3) {
    const RetrieveResult r = sys->retrieve(corpus.vectors[id], 5);
    for (const vsm::ScoredItem& item : r.items) {
      if (item.id == id) {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, (corpus.vectors.size() + 2) / 3);

  const LocateResult located = sys->locate(7, corpus.vectors[7]);
  EXPECT_TRUE(located.found);

  // Withdraw erases the primary and sweeps the bucket copies.
  const WithdrawResult withdrawn = sys->withdraw(7, corpus.vectors[7]);
  EXPECT_TRUE(withdrawn.removed);
  const LocateResult gone = sys->locate(7, corpus.vectors[7], {});
  EXPECT_FALSE(gone.found);
}

TEST(NamingStrategyTest, LshDepartMigratesBucketCopies) {
  const Corpus corpus = make_corpus(90, 37);
  std::optional<Meteorograph> sys;
  sys.emplace(small_config(NamingStrategyKind::kLsh), corpus.sample, 41);
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); ++id) {
    ASSERT_TRUE(sys->publish(id, corpus.vectors[id]).success);
  }
  const std::size_t stored_before = sys->stored_item_count();

  // Depart a handful of nodes; every bucket copy they held must re-home
  // (the strategy's migration_key keeps copies in their own buckets).
  for (const overlay::NodeId node : {3u, 11u, 29u}) {
    (void)sys->depart_node(node);
  }
  EXPECT_EQ(sys->stored_item_count(), stored_before);

  // Items are still reachable afterwards.
  std::size_t found = 0;
  for (vsm::ItemId id = 0; id < corpus.vectors.size(); id += 5) {
    if (sys->locate(id, corpus.vectors[id]).found) ++found;
  }
  EXPECT_EQ(found, (corpus.vectors.size() + 4) / 5);
}

TEST(NamingStrategyTest, NamingSeriesAppearOnlyForNonDefaultStrategies) {
  const Corpus corpus = make_corpus(60, 43);

  std::optional<Meteorograph> angle;
  angle.emplace(small_config(NamingStrategyKind::kAngle), corpus.sample, 47);
  for (vsm::ItemId id = 0; id < 20; ++id) {
    ASSERT_TRUE(angle->publish(id, corpus.vectors[id]).success);
    (void)angle->retrieve(corpus.vectors[id], 3);
  }
  const std::string angle_dump = obs::metrics_to_json(angle->metrics());
  EXPECT_EQ(angle_dump.find(obs::names::kNamingProbes), std::string::npos);
  EXPECT_EQ(angle_dump.find(obs::names::kNamingKeys), std::string::npos);

  std::optional<Meteorograph> lsh;
  lsh.emplace(small_config(NamingStrategyKind::kLsh), corpus.sample, 47);
  obs::TraceLog log;
  ASSERT_TRUE(lsh->set_tracer(&log));
  for (vsm::ItemId id = 0; id < 20; ++id) {
    ASSERT_TRUE(lsh->publish(id, corpus.vectors[id]).success);
    (void)lsh->retrieve(corpus.vectors[id], 3);
  }
  const std::string lsh_dump = obs::metrics_to_json(lsh->metrics());
  EXPECT_NE(lsh_dump.find(obs::names::kNamingProbes), std::string::npos);
  EXPECT_NE(lsh_dump.find(obs::names::kNamingKeys), std::string::npos);

  // Spans carry the strategy attribute, and the exporter emits it.
  ASSERT_FALSE(log.empty());
  for (const obs::Span& span : log.spans()) {
    EXPECT_EQ(span.naming, "lsh");
  }
  EXPECT_NE(obs::trace_to_chrome_json(log).find("\"naming\":\"lsh\""),
            std::string::npos);
}

// --- determinism (the ISSUE's tier-1 bar) -----------------------------------

struct LshRun {
  std::vector<vsm::SparseVector> vectors;
  std::optional<sim::FaultPlan> plan;
  std::optional<Meteorograph> sys;
  obs::TraceLog log;
};

void run_lsh(LshRun& run, std::size_t workers) {
  const Corpus corpus = make_corpus(200, 21);
  run.vectors = corpus.vectors;

  SystemConfig cfg = small_config(NamingStrategyKind::kLsh);
  cfg.node_count = 80;
  cfg.replicas = 2;
  run.sys.emplace(cfg, corpus.sample, 21);
  // Corpus goes in over clean untraced links (multi-key publication
  // included); faults and tracing cover the query phase.
  for (vsm::ItemId id = 0; id < run.vectors.size(); ++id) {
    ASSERT_TRUE(run.sys->publish(id, run.vectors[id]).success);
  }

  ASSERT_TRUE(run.sys->set_tracer(&run.log));
  run.plan.emplace(sim::FaultPlanConfig{.drop_rate = 0.05}, 99);
  ASSERT_TRUE(run.sys->set_fault_hook(&*run.plan));

  EpochEngine engine(*run.sys, EpochOptions{.workers = workers, .seed = 5});
  std::vector<LocateOp> locates;
  std::vector<RetrieveOp> retrieves;
  for (vsm::ItemId id = 0; id < run.vectors.size(); id += 2) {
    locates.push_back(LocateOp{id, &run.vectors[id], {}});
    retrieves.push_back(RetrieveOp{&run.vectors[id], 5, {}});
  }
  (void)engine.locate(locates);
  (void)engine.retrieve(retrieves);
}

TEST(NamingStrategyTest, LshDumpsByteIdenticalAcrossWorkerCountsUnderFaults) {
  LshRun par;
  LshRun seq;
  run_lsh(par, 4);
  run_lsh(seq, 1);

  // The network really was lossy and the multi-probe plans really ran.
  ASSERT_GT(par.plan->dropped(), 0u);
  ASSERT_FALSE(par.log.empty());
  ASSERT_GT(
      par.sys->metrics().counter_total(obs::names::kOpMessages), 0u);

  EXPECT_EQ(obs::trace_to_chrome_json(par.log),
            obs::trace_to_chrome_json(seq.log));
  EXPECT_EQ(obs::metrics_to_json(par.sys->metrics()),
            obs::metrics_to_json(seq.sys->metrics()));
}

}  // namespace
}  // namespace meteo::core
