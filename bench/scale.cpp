/// Million-node scale bench (DESIGN.md §13): assembles overlays at
/// N = 10^4, 10^5, 10^6 with bulk_join(), reports the join rate, the
/// compact-layout bytes/node, and peak RSS, then drives a Table 1
/// mixed-operation workload (TraceStream baskets -> route + replica-home
/// lookups) and an event-queue churn loop against each ring. Given
/// `--out PATH`, the rows are written to PATH (BENCH_scale.json for the
/// dated snapshot: harness format plus the memory fields bytes_per_node
/// and peak_rss_bytes), which nothing gates; ScaleSmoke bounds the bytes
/// per node in tier 1.
///
/// Unlike the figure benches this one never materializes a trace or a
/// Meteorograph: at 10^6 nodes the overlay substrate itself is the
/// subject, and the workload must stream (O(basket) memory) for the
/// numbers to mean anything.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/rng.hpp"
#include "overlay/overlay.hpp"
#include "sim/event_queue.hpp"
#include "workload/stream.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set in bytes (VmHWM), 0 if /proc is unavailable.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %llu",
                  reinterpret_cast<unsigned long long*>(&kb));
      return kb * 1024;
    }
  }
  return 0;
}

struct ScaleRow {
  std::string bench;
  double seconds = 0.0;
  double ops_per_second = 0.0;
  double bytes_per_node = 0.0;
  std::uint64_t peak_rss = 0;
};

std::vector<meteo::overlay::Key> sorted_unique_keys(
    std::size_t count, meteo::overlay::Key key_space, std::uint64_t seed) {
  meteo::Rng rng(seed);
  std::vector<meteo::overlay::Key> keys;
  keys.reserve(count + count / 8);
  while (true) {
    while (keys.size() < count + count / 8) {
      keys.push_back(rng.below(key_space));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.size() >= count) {
      keys.resize(count);
      return keys;
    }
  }
}

/// Merges rows into `path`, replacing stale records with the same bench
/// names (same line-level rewrite as bench::append_batch_json).
void write_json(const std::string& path, const std::vector<ScaleRow>& rows) {
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"bench\"") == std::string::npos) continue;
      bool stale = false;
      for (const ScaleRow& row : rows) {
        if (line.find("\"bench\": \"" + row.bench + "\"") !=
            std::string::npos) {
          stale = true;
          break;
        }
      }
      if (stale) continue;
      while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
        line.pop_back();
      }
      records.push_back(line);
    }
  }
  for (const ScaleRow& row : rows) {
    std::ostringstream rec;
    rec << "    {\"bench\": \"" << row.bench << "\", \"workers\": 1"
        << ", \"seconds\": " << row.seconds
        << ", \"ops_per_second\": " << row.ops_per_second;
    if (row.bytes_per_node > 0.0) {
      rec << ", \"bytes_per_node\": " << row.bytes_per_node;
    }
    if (row.peak_rss > 0) {
      rec << ", \"peak_rss_bytes\": " << row.peak_rss;
    }
    rec << "}";
    records.push_back(rec.str());
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"hardware_concurrency\": 1,\n  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  cli.add_flag("node-counts", "10000,100000,1000000",
               "comma-separated overlay sizes");
  cli.add_flag("mixed-ops", "20000",
               "Table 1 mixed operations per overlay size");
  cli.add_flag("events", "1000000", "event-queue schedule/fire cycles");
  cli.add_flag("seed", "1", "rng seed");
  cli.add_flag("out", "", "report path (empty = print only)");
  cli.add_flag("csv", "", "unused (uniform flag surface)");
  if (!cli.parse(argc, argv)) return 1;

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
  const auto mixed_ops =
      static_cast<std::size_t>(std::stoll(cli.get("mixed-ops")));
  const auto event_cycles =
      static_cast<std::size_t>(std::stoll(cli.get("events")));
  const auto seed = static_cast<std::uint64_t>(std::stoll(cli.get("seed")));

  std::vector<ScaleRow> rows;
  std::printf("%-28s %12s %14s %12s %10s\n", "bench", "seconds", "ops/s",
              "bytes/node", "rss MiB");

  for (const std::size_t n : node_counts) {
    overlay::OverlayConfig config;
    const std::vector<overlay::Key> keys =
        sorted_unique_keys(n, config.key_space, seed);

    // --- bulk join: ring + every routing table, from sorted keys -------
    overlay::Overlay net(config);
    const auto join_start = Clock::now();
    net.bulk_join(keys);
    const double join_secs = seconds_since(join_start);
    const overlay::OverlayMemoryStats stats = net.memory_stats();

    ScaleRow join_row;
    join_row.bench = "scale_bulk_join_n" + std::to_string(n);
    join_row.seconds = join_secs;
    join_row.ops_per_second = static_cast<double>(n) / join_secs;
    join_row.bytes_per_node = stats.bytes_per_node();
    join_row.peak_rss = peak_rss_bytes();
    rows.push_back(join_row);
    std::printf("%-28s %12.3f %14.0f %12.1f %10.1f\n",
                join_row.bench.c_str(), join_row.seconds,
                join_row.ops_per_second, join_row.bytes_per_node,
                static_cast<double>(join_row.peak_rss) / (1024.0 * 1024.0));

    // --- Table 1 mixed ops: stream baskets, route + replica homes ------
    workload::TraceConfig trace_config;  // paper-shape keyword space
    trace_config.num_items = mixed_ops;
    const workload::TraceStream stream(trace_config, seed);
    Rng rng(seed + 1);
    std::vector<vsm::KeywordId> basket;
    std::vector<overlay::NodeId> homes;
    std::size_t hops = 0;
    const auto ops_start = Clock::now();
    for (std::size_t i = 0; i < mixed_ops; ++i) {
      (void)stream.basket_of(i, basket);
      // The basket's head keyword names the item's primary key; route to
      // it from a random peer and pick replica homes, as publish does.
      const overlay::Key key =
          splitmix64(basket.front()) % config.key_space;
      const overlay::NodeId from = net.random_alive(rng);
      const overlay::RouteResult route = net.route(from, key);
      hops += route.hops;
      net.closest_nodes(key, 4, homes);
    }
    const double ops_secs = seconds_since(ops_start);

    ScaleRow ops_row;
    ops_row.bench = "scale_mixed_ops_n" + std::to_string(n);
    ops_row.seconds = ops_secs;
    ops_row.ops_per_second = static_cast<double>(mixed_ops) / ops_secs;
    ops_row.peak_rss = peak_rss_bytes();
    rows.push_back(ops_row);
    std::printf("%-28s %12.3f %14.0f %12s %10.1f  (mean hops %.2f)\n",
                ops_row.bench.c_str(), ops_row.seconds,
                ops_row.ops_per_second, "-",
                static_cast<double>(ops_row.peak_rss) / (1024.0 * 1024.0),
                static_cast<double>(hops) / static_cast<double>(mixed_ops));
  }

  // --- event queue churn: schedule/fire with 25% cancellations ----------
  {
    sim::EventQueue queue;
    Rng rng(seed + 2);
    std::size_t fired = 0;
    std::vector<sim::EventId> cancelable;
    const auto ev_start = Clock::now();
    // Seed the queue, then let every fired event reschedule itself until
    // the cycle budget is spent — the steady-state pattern of a 10^8-event
    // simulation, bounded here so the bench stays seconds-scale.
    const std::size_t width = 4096;
    for (std::size_t i = 0; i < width; ++i) {
      const double when = 1.0 + static_cast<double>(rng.below(1000));
      const sim::EventId id = queue.schedule_at(when, [&] { ++fired; });
      if (i % 4 == 0) cancelable.push_back(id);
    }
    for (const sim::EventId id : cancelable) (void)queue.cancel(id);
    while (fired + cancelable.size() < event_cycles) {
      (void)queue.run_all(1);
      const double when =
          queue.now() + 1.0 + static_cast<double>(rng.below(1000));
      (void)queue.schedule_at(when, [&] { ++fired; });
    }
    const double ev_secs = seconds_since(ev_start);

    ScaleRow ev_row;
    ev_row.bench = "scale_event_queue";
    ev_row.seconds = ev_secs;
    ev_row.ops_per_second = static_cast<double>(event_cycles) / ev_secs;
    ev_row.peak_rss = peak_rss_bytes();
    rows.push_back(ev_row);
    std::printf("%-28s %12.3f %14.0f %12s %10.1f\n", ev_row.bench.c_str(),
                ev_row.seconds, ev_row.ops_per_second, "-",
                static_cast<double>(ev_row.peak_rss) / (1024.0 * 1024.0));
  }

  if (!cli.get("out").empty()) {
    write_json(cli.get("out"), rows);
    std::printf("wrote %s\n", cli.get("out").c_str());
  }
  return 0;
}
