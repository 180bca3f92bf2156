/// Extension bench (§6 future work, implemented): range-search cost as a
/// function of range span. One O(log N) route plus a walk across the
/// nodes covering the range — messages ~ log N + span_fraction * N_slice.

#include <cmath>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  bench::ExperimentFlags flags = bench::read_common_flags(cli);
  flags.items = std::min<std::size_t>(flags.items, 50'000);

  bench::banner("Extension (§6): range search cost vs range span", flags.csv);

  core::SystemConfig cfg;
  cfg.node_count = flags.nodes;
  cfg.dimension = flags.keywords;
  cfg.load_balance = core::LoadBalanceMode::kNone;
  core::Meteorograph sys(cfg, {}, flags.seed);

  // One numeric attribute ("memory size"), log-scaled over 1..1024.
  const core::AttributeId attr =
      sys.register_attribute(1.0, 1024.0, core::AttributeScale::kLog);
  Rng rng(flags.seed ^ 0xa77);
  std::vector<double> values;
  values.reserve(flags.items);
  for (vsm::ItemId id = 0; id < flags.items; ++id) {
    const double v = std::exp2(rng.uniform(0.0, 10.0));
    (void)sys.publish_attribute(id, attr, v);
    values.push_back(v);
  }

  TextTable table({"range", "expected matches", "found", "route hops",
                   "walk hops", "total messages"});
  const std::pair<double, double> ranges[] = {
      {4.0, 4.5},   {2.0, 4.0},   {1.0, 8.0},
      {1.0, 32.0},  {1.0, 256.0}, {1.0, 1024.0},
  };
  for (const auto& [lo, hi] : ranges) {
    std::size_t expected = 0;
    for (const double v : values) {
      if (v >= lo && v <= hi) ++expected;
    }
    const core::RangeSearchResult r = sys.range_search(attr, lo, hi);
    std::string range = "[";
    range += TextTable::num(lo, 4);
    range += ", ";
    range += TextTable::num(hi, 4);
    range += "]";
    table.add_row({range,
                   TextTable::integer(static_cast<long long>(expected)),
                   TextTable::integer(static_cast<long long>(r.matches.size())),
                   TextTable::integer(static_cast<long long>(r.route_hops)),
                   TextTable::integer(static_cast<long long>(r.walk_hops)),
                   TextTable::integer(
                       static_cast<long long>(r.total_messages()))});
  }
  bench::emit(table, flags.csv);
  return 0;
}
