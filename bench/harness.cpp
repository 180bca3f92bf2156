#include "bench/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace meteo::bench {

void add_common_flags(CliParser& cli) {
  cli.add_flag("items", "60000", "number of items (clients)");
  cli.add_flag("keywords", "89000", "number of keywords (web objects)");
  cli.add_flag("nodes", "1000", "number of overlay nodes");
  cli.add_flag("queries", "5000", "queries per measurement");
  cli.add_flag("seed", "1", "master RNG seed");
  cli.add_flag("weights", "idf", "keyword weight scheme: idf|binary");
  cli.add_bool("paper-scale", false,
               "full paper workload (2760K items, 100K queries)");
  cli.add_bool("csv", false, "emit CSV instead of aligned tables");
  cli.add_flag("trace-out", "",
               "write per-op span traces as chrome://tracing JSON");
  cli.add_flag("metrics-out", "",
               "write the metric registry (.csv suffix = CSV, else JSON)");
}

ExperimentFlags read_common_flags(const CliParser& cli) {
  ExperimentFlags flags;
  flags.items = static_cast<std::size_t>(cli.get_int("items"));
  flags.keywords = static_cast<std::size_t>(cli.get_int("keywords"));
  flags.nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  flags.queries = static_cast<std::size_t>(cli.get_int("queries"));
  flags.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  flags.csv = cli.get_bool("csv");
  flags.weights = cli.get("weights") == "binary"
                      ? workload::WeightScheme::kBinary
                      : workload::WeightScheme::kIdf;
  flags.trace_out = cli.get("trace-out");
  flags.metrics_out = cli.get("metrics-out");
  if (cli.get_bool("paper-scale")) {
    flags.items = 2'760'000;
    flags.keywords = 89'000;
    flags.queries = 100'000;
  }
  return flags;
}

Workload build_workload(const ExperimentFlags& flags) {
  workload::TraceConfig cfg;
  cfg.num_items = flags.items;
  cfg.num_keywords = flags.keywords;
  cfg.mean_basket = 43.0;    // Table 1
  cfg.min_basket = 1;
  cfg.max_basket = 11'868;
  workload::Trace trace = workload::synthesize_trace(cfg, flags.seed);

  Workload wl{std::move(trace), {}, {}, {}};
  wl.weights = wl.trace.keyword_weights(flags.weights);
  wl.vectors.reserve(flags.items);
  for (std::size_t i = 0; i < flags.items; ++i) {
    wl.vectors.push_back(wl.trace.vector_of(i, wl.weights));
  }
  // 0.5% bootstrap sample (§3.4), deterministic stride.
  const std::size_t stride = std::max<std::size_t>(1, flags.items / 200);
  for (std::size_t i = 0; i < flags.items; i += stride) {
    wl.sample.push_back(wl.vectors[i]);
  }
  return wl;
}

core::Meteorograph build_system(const ExperimentFlags& flags,
                                const Workload& wl,
                                core::LoadBalanceMode mode, std::size_t nodes,
                                std::size_t capacity_factor,
                                std::size_t replicas, std::size_t max_retries) {
  core::SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = flags.keywords;
  cfg.load_balance = mode;
  cfg.replicas = replicas;
  cfg.overlay.retry.max_retries = max_retries;
  if (capacity_factor > 0) {
    const std::size_t c = std::max<std::size_t>(1, flags.items / nodes);
    cfg.node_capacity = capacity_factor * c;
  }
  return core::Meteorograph(cfg, wl.sample, flags.seed ^ 0x9e37u);
}

PublishStats publish_all(core::Meteorograph& sys, const Workload& wl) {
  PublishStats stats;
  double route = 0.0;
  double chain = 0.0;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    const core::PublishResult r = sys.publish(id, wl.vectors[id]);
    if (r.success) {
      ++stats.published;
    } else {
      ++stats.failures;
    }
    route += static_cast<double>(r.route_hops);
    chain += static_cast<double>(r.chain_hops);
  }
  const auto n = static_cast<double>(wl.vectors.size());
  stats.mean_route_hops = route / n;
  stats.mean_chain_hops = chain / n;
  return stats;
}

std::string mode_name(core::LoadBalanceMode mode) {
  switch (mode) {
    case core::LoadBalanceMode::kNone:
      return "None";
    case core::LoadBalanceMode::kUnusedHashSpace:
      return "Unused Hash Space";
    case core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions:
      return "Unused Hash Space + Hot Regions";
  }
  return "?";
}

void emit(const TextTable& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

void banner(const std::string& title, bool csv) {
  if (csv) return;
  std::printf("=== %s ===\n\n", title.c_str());
}

void maybe_attach_tracer(core::Meteorograph& sys, obs::TraceLog& log,
                         const ExperimentFlags& flags) {
  if (!flags.trace_out.empty()) sys.set_tracer(&log);
}

namespace {

/// "dir/metrics.json" + "fig7" -> "dir/metrics-fig7.json".
std::string with_tag(const std::string& path, const std::string& tag) {
  if (tag.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "-" + tag;
  }
  return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void export_observability(const core::Meteorograph& sys,
                          const obs::TraceLog& log,
                          const ExperimentFlags& flags,
                          const std::string& tag) {
  if (!flags.metrics_out.empty()) {
    const std::string path = with_tag(flags.metrics_out, tag);
    const std::string body = ends_with(path, ".csv")
                                 ? obs::metrics_to_csv(sys.metrics())
                                 : obs::metrics_to_json(sys.metrics());
    if (obs::write_file(path, body)) {
      std::fprintf(stderr, "metrics written to %s\n", path.c_str());
    }
  }
  if (!flags.trace_out.empty()) {
    const std::string path = with_tag(flags.trace_out, tag);
    if (obs::write_file(path, obs::trace_to_chrome_json(log))) {
      std::fprintf(stderr, "trace written to %s (%zu spans)\n", path.c_str(),
                   log.spans().size());
    }
  }
}

std::vector<vsm::KeywordId> popular_keywords(const workload::Trace& trace,
                                             std::size_t count,
                                             std::uint64_t max_df) {
  const auto& df = trace.document_frequency();
  std::vector<vsm::KeywordId> ids;
  for (vsm::KeywordId k = 0; k < df.size(); ++k) {
    if (df[k] > 0 && (max_df == 0 || df[k] <= max_df)) ids.push_back(k);
  }
  std::sort(ids.begin(), ids.end(), [&](vsm::KeywordId a, vsm::KeywordId b) {
    if (df[a] != df[b]) return df[a] > df[b];
    return a < b;
  });
  if (ids.size() > count) ids.resize(count);
  return ids;
}

std::vector<BatchTiming> time_batches(
    core::Meteorograph& sys, std::span<const std::size_t> worker_counts,
    std::size_t ops, std::uint64_t seed,
    const std::function<void(core::EpochEngine&)>& run) {
  std::vector<BatchTiming> timings;
  for (const std::size_t workers : worker_counts) {
    core::EpochEngine engine(sys, {.workers = workers, .seed = seed});
    const auto start = std::chrono::steady_clock::now();
    run(engine);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    BatchTiming t;
    t.workers = workers;
    t.seconds = elapsed.count();
    t.ops_per_second =
        t.seconds > 0.0 ? static_cast<double>(ops) / t.seconds : 0.0;
    t.speedup = timings.empty() ? 1.0 : timings.front().seconds / t.seconds;
    timings.push_back(t);
  }
  return timings;
}

TextTable batch_table(const std::vector<BatchTiming>& timings) {
  TextTable table({"workers", "seconds", "ops/s", "speedup vs 1 worker"});
  for (const BatchTiming& t : timings) {
    table.add_row({TextTable::integer(static_cast<long long>(t.workers)),
                   TextTable::num(t.seconds, 4),
                   TextTable::num(t.ops_per_second, 1),
                   TextTable::num(t.speedup, 3)});
  }
  return table;
}

void append_batch_json(const std::string& path, const std::string& bench,
                       const std::vector<BatchTiming>& timings) {
  // One record per line inside "results"; merging is a line-level rewrite
  // that drops this bench's stale records and keeps everyone else's.
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    const std::string mine = "\"bench\": \"" + bench + "\"";
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"bench\"") == std::string::npos) continue;
      if (line.find(mine) != std::string::npos) continue;
      while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
        line.pop_back();
      }
      records.push_back(line);
    }
  }
  for (const BatchTiming& t : timings) {
    std::ostringstream rec;
    rec << "    {\"bench\": \"" << bench << "\", \"workers\": " << t.workers
        << ", \"seconds\": " << t.seconds
        << ", \"ops_per_second\": " << t.ops_per_second
        << ", \"speedup\": " << t.speedup << "}";
    records.push_back(rec.str());
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace meteo::bench
