/// Reproduces Figure 7: hops to discover a single item vs overlay size
/// (paper: N = 1,000..10,000, infinite node storage, 100K queries), for
/// the three variants None / Unused Hash Space / + Hot Regions. All three
/// must track O(log N).
///
/// The query sweep runs as locate batches through the EpochEngine. Given
/// `--batch-json PATH`, a final section times the same batch at 1/2/4/8
/// workers and merges the throughput into PATH (BENCH_batch.json for the
/// dated snapshot).

#include <cmath>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/stats.hpp"
#include "obs/names.hpp"

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  bench::add_common_flags(cli);
  cli.add_flag("node-counts", "1000,2500,5000,7500,10000",
               "comma-separated overlay sizes");
  cli.add_flag("batch-json", "",
               "throughput report path (empty = skip the timing sweep)");
  if (!cli.parse(argc, argv)) return 1;
  const bench::ExperimentFlags flags = bench::read_common_flags(cli);

  bench::banner(
      "Figure 7: hops per single-item search vs overlay size (infinite "
      "capacity)",
      flags.csv);

  std::vector<std::size_t> node_counts;
  {
    const std::string spec = cli.get("node-counts");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      node_counts.push_back(static_cast<std::size_t>(
          std::stoll(spec.substr(pos, comma - pos))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const bench::Workload wl = bench::build_workload(flags);
  const core::LoadBalanceMode modes[] = {
      core::LoadBalanceMode::kNone,
      core::LoadBalanceMode::kUnusedHashSpace,
      core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions,
  };

  // The query set is drawn once per overlay size and shared by all three
  // modes (and, below, by every worker count of the timing sweep).
  auto make_ops = [&](std::size_t n) {
    Rng query_rng(flags.seed ^ n);
    std::vector<core::LocateOp> ops;
    ops.reserve(flags.queries);
    for (std::size_t q = 0; q < flags.queries; ++q) {
      const vsm::ItemId id = query_rng.below(wl.vectors.size());
      ops.push_back(core::LocateOp{id, &wl.vectors[id], {}});
    }
    return ops;
  };

  // Mode slug for --trace-out / --metrics-out file tags.
  auto mode_slug = [](core::LoadBalanceMode mode) {
    switch (mode) {
      case core::LoadBalanceMode::kNone:
        return "none";
      case core::LoadBalanceMode::kUnusedHashSpace:
        return "uhs";
      case core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions:
        return "uhs_hot";
    }
    return "?";
  };

  TextTable table({"N", "None", "Unused Hash Space",
                   "Unused Hash Space + Hot Regions", "log4(N)"});
  for (const std::size_t n : node_counts) {
    const std::vector<core::LocateOp> ops = make_ops(n);
    std::vector<std::string> row = {
        TextTable::integer(static_cast<long long>(n))};
    for (const core::LoadBalanceMode mode : modes) {
      core::Meteorograph sys = bench::build_system(flags, wl, mode, n);
      (void)bench::publish_all(sys, wl);
      // Tracing covers the measured locate batch, not the corpus load.
      obs::TraceLog trace_log;
      bench::maybe_attach_tracer(sys, trace_log, flags);
      core::EpochEngine engine(sys, {.seed = flags.seed ^ n});
      (void)engine.locate(ops);
      // The printed mean comes from the exported metrics themselves: the
      // op.route_hops/op.walk_hops histograms for op=locate. Hop counts
      // are small integers, so the sums are exact and a reader re-deriving
      // the figure from a --metrics-out dump reproduces it bit-for-bit.
      namespace names = obs::names;
      const obs::Labels locate_labels{{names::kLabelOp, "locate"}};
      const obs::HistogramData* route =
          sys.metrics().find_histogram(names::kOpRouteHops, locate_labels);
      const obs::HistogramData* walk =
          sys.metrics().find_histogram(names::kOpWalkHops, locate_labels);
      const double mean =
          (route->sum + walk->sum) / static_cast<double>(route->count);
      row.push_back(TextTable::num(mean, 4));
      bench::export_observability(
          sys, trace_log, flags,
          "fig7-n" + std::to_string(n) + "-" + mode_slug(mode));
    }
    row.push_back(
        TextTable::num(std::log(static_cast<double>(n)) / std::log(4.0), 4));
    table.add_row(std::move(row));
  }
  bench::emit(table, flags.csv);

  // ---- batch throughput sweep --------------------------------------------
  if (!cli.get("batch-json").empty()) {
    bench::banner("Locate batch throughput vs worker count", flags.csv);
    const std::size_t n = node_counts.back();
    core::Meteorograph sys = bench::build_system(
        flags, wl, core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions, n);
    (void)bench::publish_all(sys, wl);
    const std::vector<core::LocateOp> ops = make_ops(n);
    const std::size_t workers[] = {1, 2, 4, 8};
    const std::vector<bench::BatchTiming> timings = bench::time_batches(
        sys, workers, ops.size(), flags.seed,
        [&](core::EpochEngine& engine) { (void)engine.locate(ops); });
    bench::emit(bench::batch_table(timings), flags.csv);
    bench::append_batch_json(cli.get("batch-json"), "fig7_locate_batch",
                             timings);
  }
  return 0;
}
