/// Tier-2 stress: the batch engine under a lossy network. A 5% drop-rate
/// FaultPlan rides along while four workers push large publish/read batches
/// through one system; a second identically-seeded system runs the same
/// batches single-threaded and must end up byte-identical — results,
/// stored state, metric registry, and fault tallies.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

constexpr std::size_t kItems = 800;
constexpr std::size_t kNodes = 200;
constexpr double kDropRate = 0.05;

struct StressRun {
  std::vector<vsm::SparseVector> vectors;
  std::optional<sim::FaultPlan> plan;
  std::optional<Meteorograph> sys;
  std::optional<EpochEngine> engine;

  std::vector<PublishResult> published;
  std::vector<RetrieveResult> retrieved;
  std::vector<LocateResult> located;
};

void run_stress(StressRun& run, std::size_t workers) {
  workload::TraceConfig tc;
  tc.num_items = kItems;
  tc.num_keywords = 3000;
  tc.mean_basket = 10.0;
  tc.max_basket = 100;
  const workload::Trace trace = workload::synthesize_trace(tc, 31);
  const auto weights = trace.keyword_weights(workload::WeightScheme::kIdf);
  for (std::size_t i = 0; i < kItems; ++i) {
    run.vectors.push_back(trace.vector_of(i, weights));
  }
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < kItems; i += 23) sample.push_back(run.vectors[i]);

  SystemConfig cfg;
  cfg.node_count = kNodes;
  cfg.dimension = 3000;
  cfg.replicas = 2;
  run.sys.emplace(cfg, sample, 31);
  run.plan.emplace(sim::FaultPlanConfig{.drop_rate = kDropRate}, 77);
  ASSERT_TRUE(run.sys->set_fault_hook(&*run.plan));
  run.engine.emplace(*run.sys, EpochOptions{.workers = workers, .seed = 404});

  std::vector<PublishOp> publishes;
  for (vsm::ItemId id = 0; id < kItems; ++id) {
    publishes.push_back(PublishOp{id, &run.vectors[id], {}});
  }
  run.published = run.engine->publish(publishes);

  std::vector<RetrieveOp> retrieves;
  std::vector<LocateOp> locates;
  for (vsm::ItemId id = 0; id < kItems; id += 2) {
    retrieves.push_back(RetrieveOp{&run.vectors[id], 5, {}});
    locates.push_back(LocateOp{id, &run.vectors[id], {}});
  }
  run.retrieved = run.engine->retrieve(retrieves);
  run.located = run.engine->locate(locates);
}

std::string metric_fingerprint(const obs::MetricRegistry& metrics) {
  return obs::metrics_to_csv(metrics);
}

TEST(BatchStress, LossyNetworkFourWorkersMatchesSequential) {
  StressRun par;
  StressRun seq;
  run_stress(par, 4);
  run_stress(seq, 1);

  // The network really was lossy, and both runs saw the same faults.
  ASSERT_GT(par.plan->dropped(), 0u);
  EXPECT_EQ(par.plan->messages_seen(), seq.plan->messages_seen());
  EXPECT_EQ(par.plan->dropped(), seq.plan->dropped());

  // Publishes degrade gracefully, never silently: most succeed despite the
  // drops, and every outcome matches the sequential run.
  ASSERT_EQ(par.published.size(), seq.published.size());
  std::size_t successes = 0;
  for (std::size_t i = 0; i < par.published.size(); ++i) {
    EXPECT_EQ(par.published[i].success, seq.published[i].success) << i;
    EXPECT_EQ(par.published[i].stored_at, seq.published[i].stored_at) << i;
    EXPECT_EQ(par.published[i].route_hops, seq.published[i].route_hops) << i;
    EXPECT_EQ(par.published[i].degraded, seq.published[i].degraded) << i;
    if (par.published[i].success) ++successes;
  }
  EXPECT_GT(successes, par.published.size() * 8 / 10);
  EXPECT_EQ(par.sys->stored_item_count(), seq.sys->stored_item_count());
  EXPECT_EQ(par.sys->node_loads(), seq.sys->node_loads());

  ASSERT_EQ(par.retrieved.size(), seq.retrieved.size());
  for (std::size_t i = 0; i < par.retrieved.size(); ++i) {
    ASSERT_EQ(par.retrieved[i].items.size(), seq.retrieved[i].items.size())
        << i;
    for (std::size_t j = 0; j < par.retrieved[i].items.size(); ++j) {
      EXPECT_EQ(par.retrieved[i].items[j].id, seq.retrieved[i].items[j].id)
          << i;
    }
    EXPECT_EQ(par.retrieved[i].partial, seq.retrieved[i].partial) << i;
    EXPECT_EQ(par.retrieved[i].total_messages(),
              seq.retrieved[i].total_messages())
        << i;
  }

  ASSERT_EQ(par.located.size(), seq.located.size());
  std::size_t found = 0;
  for (std::size_t i = 0; i < par.located.size(); ++i) {
    EXPECT_EQ(par.located[i].found, seq.located[i].found) << i;
    EXPECT_EQ(par.located[i].node, seq.located[i].node) << i;
    if (par.located[i].found) ++found;
  }
  EXPECT_GT(found, par.located.size() * 8 / 10);

  // The whole metric registry folded identically: counters, and every
  // distribution down to float-accumulation order.
  EXPECT_EQ(metric_fingerprint(par.sys->metrics()),
            metric_fingerprint(seq.sys->metrics()));

  // Fault/retry accounting made it into the metrics from worker threads.
  EXPECT_GT(par.sys->metrics().counter_total(obs::names::kFaultRetries), 0u);
}

}  // namespace
}  // namespace meteo::core
