/// Reproduces Figure 10: discovery of similar items in a 10,000-node
/// overlay with 8c capacity per node.
///
/// (a) For queries using the n-th popular keyword (n = 1, 2, 4, 8) the
///     bench runs a discover-all similarity search and prints the CDF of
///     hops-per-discovered-item. Paper: all matching items are found, and
///     >=97% of them within O(log N) = 6.91 hops each.
/// (b) Total messages to discover k similar items: linear in k with slope
///     (1/c) * O(log N).
///
/// Both parts run as similarity-search batches through the EpochEngine.
/// Given `--batch-json PATH`, a final section times a search batch at
/// 1/2/4/8 workers and merges the throughput into PATH (BENCH_batch.json
/// for the dated snapshot).
///
/// Keyword choice: following the paper's setup (matching-item counts are
/// "smaller than the system size"), the n-th popular keyword is taken
/// among keywords whose document frequency is at most N.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/harness.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  bench::add_common_flags(cli);
  cli.add_flag("nodes10", "10000", "overlay size for this figure");
  cli.add_flag("capacity-factor", "8", "node capacity as multiple of c");
  cli.add_flag("batch-json", "",
               "throughput report path (empty = skip the timing sweep)");
  if (!cli.parse(argc, argv)) return 1;
  bench::ExperimentFlags flags = bench::read_common_flags(cli);
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes10"));
  const auto cap = static_cast<std::size_t>(cli.get_int("capacity-factor"));

  bench::banner("Figure 10: discovery of similar items (N = 10,000, 8c)",
                flags.csv);

  const bench::Workload wl = bench::build_workload(flags);
  core::Meteorograph sys = bench::build_system(
      flags, wl, core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions, nodes,
      cap);
  (void)bench::publish_all(sys, wl);
  // Tracing covers the measured search batches (a) and (b), not the
  // corpus load and not the timing sweep below.
  obs::TraceLog trace_log;
  bench::maybe_attach_tracer(sys, trace_log, flags);
  core::EpochEngine engine(sys, {.seed = flags.seed});

  // The n-th popular keyword among those matching fewer items than nodes.
  const auto candidates = bench::popular_keywords(wl.trace, 8, nodes);
  const std::size_t ranks[] = {1, 2, 4, 8};

  // ---- (a) hops per discovered item --------------------------------------
  std::vector<std::vector<vsm::KeywordId>> rank_queries;
  rank_queries.reserve(std::size(ranks));
  std::vector<core::SearchOp> rank_ops;
  std::vector<std::size_t> rank_of_op;
  for (const std::size_t n : ranks) {
    if (n > candidates.size()) break;
    rank_queries.push_back({candidates[n - 1]});
    rank_ops.push_back(core::SearchOp{rank_queries.back(), 0, {}});
    rank_of_op.push_back(n);
  }
  const std::vector<core::SearchResult> rank_results =
      engine.similarity_search(rank_ops);

  TextTable part_a({"keyword rank", "matching items", "discovered", "found %",
                    "mean hops/item", "p97 hops/item", "max hops/item"});
  for (std::size_t i = 0; i < rank_results.size(); ++i) {
    const std::size_t n = rank_of_op[i];
    const vsm::KeywordId keyword = candidates[n - 1];
    std::size_t ground_truth = 0;
    for (const auto& v : wl.vectors) {
      if (v.contains(keyword)) ++ground_truth;
    }
    const core::SearchResult& r = rank_results[i];

    std::vector<double> hops;
    hops.reserve(r.discovery_hops.size());
    for (const std::size_t h : r.discovery_hops) {
      hops.push_back(static_cast<double>(h));
    }
    OnlineStats stats;
    for (const double h : hops) stats.add(h);
    part_a.add_row(
        {TextTable::integer(static_cast<long long>(n)),
         TextTable::integer(static_cast<long long>(ground_truth)),
         TextTable::integer(static_cast<long long>(r.items.size())),
         TextTable::num(100.0 * static_cast<double>(r.items.size()) /
                            static_cast<double>(std::max<std::size_t>(
                                ground_truth, 1)),
                        4),
         TextTable::num(stats.mean(), 4),
         TextTable::num(hops.empty() ? 0.0 : percentile(hops, 97.0), 4),
         TextTable::num(stats.max(), 4)});
  }
  bench::emit(part_a, flags.csv);

  // CDF of hops per discovered item for the rank-1 keyword (the plotted
  // curves of Fig. 10(a)).
  {
    const core::SearchResult& r = rank_results.front();
    std::vector<double> hops;
    for (const std::size_t h : r.discovery_hops) {
      hops.push_back(static_cast<double>(h));
    }
    std::sort(hops.begin(), hops.end());
    TextTable cdf({"hops", "% of items discovered within"});
    for (const double h : {0.0, 2.0, 4.0, 6.0, 6.91, 8.0, 12.0, 16.0, 24.0}) {
      const auto below = std::upper_bound(hops.begin(), hops.end(), h);
      cdf.add_row({TextTable::num(h, 3),
                   TextTable::num(100.0 *
                                      static_cast<double>(below - hops.begin()) /
                                      static_cast<double>(hops.size()),
                                  4)});
    }
    bench::emit(cdf, flags.csv);
  }

  // ---- (b) total messages vs k -------------------------------------------
  const double c = static_cast<double>(flags.items) / static_cast<double>(nodes);
  // k sweeps up to the keyword's full match count; replies are batched per
  // node (the paper's k' semantics), so the curve is linear with slope
  // ~ (1/c_effective) * O(log N) once k spans multiple nodes.
  std::size_t rank1_matches = 0;
  for (const auto& v : wl.vectors) {
    if (v.contains(candidates[0])) ++rank1_matches;
  }
  const std::vector<vsm::KeywordId> rank1_query = {candidates[0]};
  std::vector<std::size_t> ks;
  std::vector<core::SearchOp> k_ops;
  for (const double fraction : {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
    ks.push_back(std::max<std::size_t>(
        1,
        static_cast<std::size_t>(fraction *
                                 static_cast<double>(rank1_matches))));
    k_ops.push_back(core::SearchOp{rank1_query, ks.back(), {}});
  }
  const std::vector<core::SearchResult> k_results =
      engine.similarity_search(k_ops);

  TextTable part_b({"k (items requested)", "total messages", "route", "walk",
                    "lookups", "items returned", "(1+k/c)*log4(N) reference"});
  const double logn = std::log(static_cast<double>(nodes)) / std::log(4.0);
  for (std::size_t i = 0; i < k_results.size(); ++i) {
    const core::SearchResult& r = k_results[i];
    part_b.add_row(
        {TextTable::integer(static_cast<long long>(ks[i])),
         TextTable::integer(static_cast<long long>(r.total_messages())),
         TextTable::integer(static_cast<long long>(r.route_hops)),
         TextTable::integer(static_cast<long long>(r.walk_hops)),
         TextTable::integer(static_cast<long long>(r.lookup_messages)),
         TextTable::integer(static_cast<long long>(r.items.size())),
         TextTable::num((1.0 + static_cast<double>(ks[i]) / c) * logn, 4)});
  }
  bench::emit(part_b, flags.csv);

  bench::export_observability(sys, trace_log, flags, "fig10");
  sys.set_tracer(nullptr);  // keep the timing sweep trace-free

  // ---- batch throughput sweep --------------------------------------------
  if (!cli.get("batch-json").empty()) {
    bench::banner("Similarity-search batch throughput vs worker count",
                  flags.csv);
    // A mixed batch: every candidate keyword, discover-all plus top-k.
    std::vector<std::vector<vsm::KeywordId>> queries;
    queries.reserve(candidates.size());
    std::vector<core::SearchOp> sweep_ops;
    for (const vsm::KeywordId keyword : candidates) {
      queries.push_back({keyword});
      sweep_ops.push_back(core::SearchOp{queries.back(), 0, {}});
      sweep_ops.push_back(core::SearchOp{queries.back(), 16, {}});
    }
    const std::size_t workers[] = {1, 2, 4, 8};
    const std::vector<bench::BatchTiming> timings = bench::time_batches(
        sys, workers, sweep_ops.size(), flags.seed,
        [&](core::EpochEngine& e) { (void)e.similarity_search(sweep_ops); });
    bench::emit(bench::batch_table(timings), flags.csv);
    bench::append_batch_json(cli.get("batch-json"), "fig10_search_batch",
                             timings);
  }
  return 0;
}
