/// Seed-driven epoch-boundary interleave fuzzer (DESIGN.md §11).
///
/// Each iteration synthesizes a random mixed read/write/churn schedule
/// and closes every window with targeted probes that straddle the epoch
/// boundary in submission order: they are submitted after the window's
/// publishes, withdrawals, and departures, yet the engine runs every
/// read of a window before its first write commits into E+1. Two
/// properties are checked:
///
///  1. Replay equality: an 8-worker run's complete transcript (results,
///     Chrome trace, metric dump) is byte-identical to a sequential
///     replay (workers = 1) of the same schedule — fault-free and under
///     a 5% drop plan.
///  2. Snapshot semantics: every probe observes exactly epoch E — an
///     item withdrawn in-window is still locatable, retrievable, and
///     keyword-discoverable (its posting lists and directory bucket are
///     untouched), and an item published in-window is invisible on the
///     locate and search paths. One epoch later, both flips appear.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "meteorograph/epoch.hpp"
#include "obs/export.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct TestWorkload {
  workload::Trace trace;
  std::vector<double> weights;
  std::vector<vsm::SparseVector> vectors;  // all items, index = ItemId
  std::vector<vsm::SparseVector> sample;
};

TestWorkload make_workload(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.num_items = items;
  cfg.num_keywords = 2000;
  cfg.mean_basket = 10.0;
  cfg.max_basket = 100;
  workload::Trace trace = workload::synthesize_trace(cfg, seed);
  std::vector<double> weights =
      trace.keyword_weights(workload::WeightScheme::kIdf);
  std::vector<vsm::SparseVector> vectors;
  vectors.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    vectors.push_back(trace.vector_of(i, weights));
  }
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < items; i += 37) sample.push_back(vectors[i]);
  return TestWorkload{std::move(trace), std::move(weights),
                      std::move(vectors), std::move(sample)};
}

constexpr vsm::ItemId kNoItem = ~vsm::ItemId{0};
constexpr std::size_t kNodes = 60;
constexpr std::size_t kInitialItems = 90;
constexpr int kEpochs = 3;

/// Medium-detail result digest: the data payload of every result. Hop
/// and message accounting is byte-covered separately by the trace and
/// metric dumps appended to the transcript.
struct DigestVisitor {
  std::string& out;
  void operator()(const RetrieveResult& r) const {
    out += "R";
    for (const vsm::ScoredItem& s : r.items) {
      out += ' ' + std::to_string(s.id) + ':' + obs::format_double(s.score);
    }
    out += " /" + std::to_string(r.nodes_visited) + ' ' +
           std::to_string(r.items_missed) + (r.partial ? "p" : "");
  }
  void operator()(const LocateResult& r) const {
    out += "L " + std::to_string(r.found ? 1 : 0) + ' ' +
           std::to_string(r.node) + ' ' +
           std::to_string(r.via_replica ? 1 : 0) +
           (r.fault_blocked ? "b" : "");
  }
  void operator()(const SearchResult& r) const {
    out += "S";
    for (std::size_t j = 0; j < r.items.size(); ++j) {
      out += ' ' + std::to_string(r.items[j]) + '@' +
             std::to_string(r.discovery_hops[j]);
    }
    out += " /" + std::to_string(r.lookups_failed);
  }
  void operator()(const RangeSearchResult& r) const {
    out += "G";
    for (const RangeMatch& m : r.matches) {
      out += ' ' + obs::format_double(m.value) + ':' + std::to_string(m.item);
    }
  }
  void operator()(const PublishResult& r) const {
    out += "P " + std::to_string(r.success ? 1 : 0) + ' ' +
           std::to_string(r.stored_at) + ' ' +
           std::to_string(r.replicas_missed) +
           (r.pointer_missed ? "m" : "");
  }
  void operator()(const WithdrawResult& r) const {
    out += "W " + std::to_string(r.removed ? 1 : 0) + ' ' +
           std::to_string(r.replicas_removed) + ' ' +
           std::to_string(r.pointer_removed ? 1 : 0);
  }
  void operator()(const DepartResult& r) const {
    out += "D " + std::to_string(r.items_transferred) + ' ' +
           std::to_string(r.replicas_transferred) + ' ' +
           std::to_string(r.pointers_transferred);
  }
};

struct RunMode {
  std::size_t workers = 1;
  double drop_rate = 0.0;
};

/// Replays the schedule derived from `seed` and returns its transcript.
/// Semantic probe assertions fire only on fault-free runs (a dropped
/// message can legitimately blind a locate or a pointer chase).
std::string run_fuzz(const TestWorkload& wl, std::uint64_t seed,
                     const RunMode& mode) {
  SystemConfig cfg;
  cfg.node_count = kNodes;
  cfg.dimension = 2000;
  cfg.load_balance = LoadBalanceMode::kUnusedHashSpace;
  Meteorograph sys(cfg, wl.sample, 77);
  for (vsm::ItemId id = 0; id < kInitialItems; ++id) {
    EXPECT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }

  obs::TraceLog log;
  EXPECT_TRUE(sys.set_tracer(&log));
  std::optional<sim::FaultPlan> plan;
  if (mode.drop_rate > 0.0) {
    plan.emplace(sim::FaultPlanConfig{.drop_rate = mode.drop_rate}, 7);
    EXPECT_TRUE(sys.set_fault_hook(&*plan));
  }

  EpochEngine engine(sys, {.workers = mode.workers, .seed = seed});

  Rng rng(seed);  // schedule synthesis stream; identical across modes
  std::vector<vsm::ItemId> live;
  for (vsm::ItemId id = 0; id < kInitialItems; ++id) live.push_back(id);
  vsm::ItemId next_new = kInitialItems;
  std::vector<bool> departed(kNodes, false);
  std::size_t departs_total = 0;
  std::vector<vsm::KeywordId> kw_storage;
  kw_storage.reserve(1024);  // spans into elements: no reallocation allowed
  const bool check_semantics = mode.drop_rate == 0.0;

  std::string out;
  vsm::ItemId prev_victim = kNoItem;
  vsm::ItemId prev_fresh = kNoItem;
  for (int e = 0; e < kEpochs; ++e) {
    auto submit = [&](auto op) { return engine.submit(op); };

    // Boundary probes for the *previous* window's flips: now committed,
    // they must be visible.
    std::size_t prev_victim_probe = 0;
    std::size_t prev_fresh_probe = 0;
    if (prev_victim != kNoItem) {
      prev_victim_probe =
          submit(LocateOp{prev_victim, &wl.vectors[prev_victim], {}});
      prev_fresh_probe =
          submit(LocateOp{prev_fresh, &wl.vectors[prev_fresh], {}});
    }

    // This window's victim (visible at E, withdrawn into E+1) and fresh
    // item (published into E+1).
    const std::size_t vi = rng.below(live.size());
    const vsm::ItemId victim = live[vi];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(vi));
    const vsm::ItemId fresh = next_new++;

    // Random filler ops around the churn, victim withdrawal and fresh
    // publish at random positions.
    const std::size_t ops = 12 + rng.below(8);
    const std::size_t withdraw_at = rng.below(ops);
    const std::size_t publish_at = rng.below(ops);
    for (std::size_t k = 0; k < ops; ++k) {
      if (k == withdraw_at) {
        submit(WithdrawOp{victim, &wl.vectors[victim], {}});
      }
      if (k == publish_at) {
        submit(PublishOp{fresh, &wl.vectors[fresh], {}});
      }
      switch (rng.below(10)) {
        case 0:
        case 1:
        case 2: {
          const vsm::ItemId q = static_cast<vsm::ItemId>(rng.below(next_new));
          submit(RetrieveOp{&wl.vectors[q], 1 + rng.below(5), {}});
          break;
        }
        case 3:
        case 4:
        case 5: {
          const vsm::ItemId q = static_cast<vsm::ItemId>(rng.below(next_new));
          submit(LocateOp{q, &wl.vectors[q], {}});
          break;
        }
        case 6:
        case 7: {
          const vsm::ItemId q = static_cast<vsm::ItemId>(rng.below(next_new));
          kw_storage.push_back(wl.vectors[q].entries()[0].keyword);
          submit(SearchOp{{&kw_storage.back(), 1}, 3, {}});
          break;
        }
        case 8: {
          if (!live.empty() && rng.below(2) == 0) {
            const std::size_t wi = rng.below(live.size());
            const vsm::ItemId w = live[wi];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(wi));
            submit(WithdrawOp{w, &wl.vectors[w], {}});
          }
          break;
        }
        default: {
          if (departs_total < 6 && rng.below(4) == 0) {
            const overlay::NodeId node =
                static_cast<overlay::NodeId>(rng.below(kNodes));
            if (!departed[node]) {
              departed[node] = true;
              ++departs_total;
              submit(DepartOp{node});
            }
          }
          break;
        }
      }
    }

    // Straddle probes: submitted after every write of the window, they
    // still run before the first one commits, so they observe epoch E.
    const std::size_t victim_locate =
        submit(LocateOp{victim, &wl.vectors[victim], {}});
    const std::size_t fresh_locate =
        submit(LocateOp{fresh, &wl.vectors[fresh], {}});
    const std::size_t victim_retrieve =
        submit(RetrieveOp{&wl.vectors[victim], 5, {}});
    kw_storage.push_back(wl.vectors[victim].entries()[0].keyword);
    const std::size_t victim_search =
        submit(SearchOp{{&kw_storage.back(), 1}, 0, {}});
    kw_storage.push_back(wl.vectors[fresh].entries()[0].keyword);
    const std::size_t fresh_search =
        submit(SearchOp{{&kw_storage.back(), 1}, 0, {}});
    EXPECT_LT(kw_storage.size(), 1024u);

    const EpochEngine::SealedEpoch sealed = engine.seal();
    out += "== epoch " + std::to_string(sealed.epoch) + " ==\n";
    for (const EpochEngine::OpResult& r : sealed.results) {
      std::visit(DigestVisitor{out}, r);
      out += '\n';
    }

    if (check_semantics) {
      // The probes observed exactly epoch E: the in-window withdrawal is
      // invisible on the locate, retrieve, and keyword paths; the
      // in-window publish is invisible on locate and search.
      const auto& vl = std::get<LocateResult>(sealed.results[victim_locate]);
      EXPECT_TRUE(vl.found) << "victim " << victim << " torn at epoch "
                            << sealed.epoch;
      const auto& fl = std::get<LocateResult>(sealed.results[fresh_locate]);
      EXPECT_FALSE(fl.found) << "fresh " << fresh << " leaked into epoch "
                             << sealed.epoch;
      const auto& vr =
          std::get<RetrieveResult>(sealed.results[victim_retrieve]);
      EXPECT_TRUE(std::any_of(
          vr.items.begin(), vr.items.end(),
          [&](const vsm::ScoredItem& s) { return s.id == victim; }))
          << "victim " << victim << " missing from epoch-E retrieve";
      const auto& vs = std::get<SearchResult>(sealed.results[victim_search]);
      EXPECT_TRUE(std::find(vs.items.begin(), vs.items.end(), victim) !=
                  vs.items.end())
          << "victim " << victim << " missing from epoch-E search";
      const auto& fs = std::get<SearchResult>(sealed.results[fresh_search]);
      EXPECT_TRUE(std::find(fs.items.begin(), fs.items.end(), fresh) ==
                  fs.items.end())
          << "fresh " << fresh << " leaked into epoch-E search";

      // The previous window's flips committed at its boundary.
      if (prev_victim != kNoItem) {
        EXPECT_FALSE(
            std::get<LocateResult>(sealed.results[prev_victim_probe]).found)
            << "withdrawn " << prev_victim << " survived its epoch";
        EXPECT_TRUE(
            std::get<LocateResult>(sealed.results[prev_fresh_probe]).found)
            << "published " << prev_fresh << " lost at its epoch";
      }
    }
    prev_victim = victim;
    prev_fresh = fresh;
  }

  out += obs::trace_to_chrome_json(log);
  out += obs::metrics_to_csv(sys.metrics());
  return out;
}

TEST(EpochInterleaveFuzz, StraddlingReadsMatchSequentialReplay) {
  const TestWorkload wl = make_workload(160, 51);
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    const std::string oracle = run_fuzz(wl, seed, {.workers = 1});
    EXPECT_EQ(run_fuzz(wl, seed, {.workers = 8}), oracle) << "seed " << seed;
  }
}

TEST(EpochInterleaveFuzz, StraddlingReadsMatchSequentialReplayUnderDrops) {
  const TestWorkload wl = make_workload(160, 52);
  for (const std::uint64_t seed : {55u, 66u}) {
    const std::string oracle =
        run_fuzz(wl, seed, {.workers = 1, .drop_rate = 0.05});
    EXPECT_EQ(run_fuzz(wl, seed, {.workers = 8, .drop_rate = 0.05}), oracle)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace meteo::core
