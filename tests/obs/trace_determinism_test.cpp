/// Determinism of the observability layer itself: two identically-seeded
/// systems run the same faulted batches at 1 and 4 workers, and both the
/// chrome-trace dump and the metrics dump must be byte-identical. This is
/// the DESIGN.md §8 contract end to end — per-op substream scopes feed
/// per-op span buffers, which the engine commits in op-index order.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

constexpr std::size_t kItems = 200;
constexpr std::size_t kNodes = 80;
constexpr double kDropRate = 0.05;

struct TracedRun {
  std::vector<vsm::SparseVector> vectors;
  std::optional<sim::FaultPlan> plan;
  std::optional<Meteorograph> sys;
  obs::TraceLog log;
  std::size_t query_ops = 0;
};

void run_traced(TracedRun& run, std::size_t workers) {
  workload::TraceConfig tc;
  tc.num_items = kItems;
  tc.num_keywords = 2000;
  tc.mean_basket = 10.0;
  tc.max_basket = 100;
  const workload::Trace trace = workload::synthesize_trace(tc, 21);
  const auto weights = trace.keyword_weights(workload::WeightScheme::kIdf);
  for (std::size_t i = 0; i < kItems; ++i) {
    run.vectors.push_back(trace.vector_of(i, weights));
  }
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < kItems; i += 29) sample.push_back(run.vectors[i]);

  SystemConfig cfg;
  cfg.node_count = kNodes;
  cfg.dimension = 2000;
  cfg.replicas = 2;
  run.sys.emplace(cfg, sample, 21);
  // The corpus goes in over clean, untraced links so both runs start from
  // one stored state; tracing and message loss cover the query phase.
  for (vsm::ItemId id = 0; id < kItems; ++id) {
    ASSERT_TRUE(run.sys->publish(id, run.vectors[id]).success);
  }

  ASSERT_TRUE(run.sys->set_tracer(&run.log));
  run.plan.emplace(sim::FaultPlanConfig{.drop_rate = kDropRate}, 99);
  ASSERT_TRUE(run.sys->set_fault_hook(&*run.plan));

  EpochEngine engine(*run.sys, EpochOptions{.workers = workers, .seed = 5});
  std::vector<LocateOp> locates;
  std::vector<RetrieveOp> retrieves;
  for (vsm::ItemId id = 0; id < kItems; id += 2) {
    locates.push_back(LocateOp{id, &run.vectors[id], {}});
    retrieves.push_back(RetrieveOp{&run.vectors[id], 5, {}});
  }
  run.query_ops = locates.size() + retrieves.size();
  (void)engine.locate(locates);
  (void)engine.retrieve(retrieves);
}

TEST(TraceDeterminism, DumpsByteIdenticalAcrossWorkerCountsUnderFaults) {
  TracedRun par;
  TracedRun seq;
  run_traced(par, 4);
  run_traced(seq, 1);

  // The network really was lossy and the traces are non-trivial.
  ASSERT_GT(par.plan->dropped(), 0u);
  ASSERT_EQ(par.log.spans().size(), par.query_ops);
  ASSERT_GT(par.sys->metrics().counter_total(obs::names::kFaultRetries), 0u);

  // Span ids are commit order: dense and sequential regardless of which
  // worker ran the op.
  for (std::size_t i = 0; i < par.log.spans().size(); ++i) {
    EXPECT_EQ(par.log.spans()[i].id, i);
  }

  // The acceptance bar: byte-identical dumps at 1 vs 4 workers.
  EXPECT_EQ(obs::trace_to_chrome_json(par.log),
            obs::trace_to_chrome_json(seq.log));
  EXPECT_EQ(obs::metrics_to_json(par.sys->metrics()),
            obs::metrics_to_json(seq.sys->metrics()));
}

TEST(TraceDeterminism, FaultEventsAppearInsideAffectedSpans) {
  TracedRun run;
  run_traced(run, 4);

  // Every retry/timeout/reroute counted in the registry is visible as a
  // typed event inside some span — the trace and the metrics agree.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reroutes = 0;
  for (const obs::Span& span : run.log.spans()) {
    for (std::size_t i = 0; i < span.events.size(); ++i) {
      const obs::TraceEvent& event = span.events[i];
      switch (event.kind) {
        case obs::EventKind::kRetry: ++retries; break;
        case obs::EventKind::kTimeout: ++timeouts; break;
        case obs::EventKind::kReroute: ++reroutes; break;
        default: break;
      }
      // Logical timestamps count events within the span.
      EXPECT_EQ(event.ts, static_cast<std::uint64_t>(i));
    }
  }
  const obs::MetricRegistry& metrics = run.sys->metrics();
  EXPECT_EQ(retries, metrics.counter_total(obs::names::kFaultRetries));
  EXPECT_EQ(timeouts, metrics.counter_total(obs::names::kFaultTimeouts));
  EXPECT_EQ(reroutes, metrics.counter_total(obs::names::kFaultReroutes));
}

TEST(TraceDeterminism, DisabledTracerLeavesLogEmpty) {
  TracedRun run;
  run_traced(run, 2);
  ASSERT_FALSE(run.log.empty());

  // Detach and run another batch: nothing new is recorded.
  const std::size_t before = run.log.spans().size();
  ASSERT_TRUE(run.sys->set_tracer(nullptr));
  EpochEngine engine(*run.sys, EpochOptions{.workers = 2, .seed = 6});
  std::vector<LocateOp> locates;
  for (vsm::ItemId id = 0; id < kItems; id += 4) {
    locates.push_back(LocateOp{id, &run.vectors[id], {}});
  }
  (void)engine.locate(locates);
  EXPECT_EQ(run.log.spans().size(), before);
}

}  // namespace
}  // namespace meteo::core
