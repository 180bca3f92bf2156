/// Sustained epoch-snapshot serving (DESIGN.md §11): an 80/20 read/write
/// request mix with churn (streamed publishes, withdrawals, and node
/// departures) is pushed through the admission-controlled Server at
/// 1/2/4/8 read workers and the sustained throughput, per-request epoch
/// latency (p50/p99), and epoch advance rate are reported. A small
/// message-drop plan keeps the timeout/deadline accounting on a live
/// path. The schedule is derived once from the seed, so every worker
/// count serves the identical request stream over an identically built
/// system. Given `--serve-json PATH`, the rows merge into PATH
/// (BENCH_serve.json for the dated snapshot, which nothing gates).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "meteorograph/server.hpp"
#include "sim/fault_plan.hpp"

namespace {

/// One measured serving round at a fixed worker count.
struct ServeTiming {
  std::size_t workers = 0;
  double seconds = 0.0;
  double ops_per_second = 0.0;
  double speedup = 1.0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double epochs_per_second = 0.0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t rejected = 0;
};

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = std::min(
      xs.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1)));
  return xs[idx];
}

/// BENCH_serve.json merge, line-for-line compatible with the harness
/// report format (rows keyed on bench/workers, plus latency and epoch
/// columns).
void append_serve_json(const std::string& path, const std::string& bench,
                       const std::vector<ServeTiming>& timings) {
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
  for (const ServeTiming& t : timings) {
    std::ostringstream rec;
    rec << "    {\"bench\": \"" << bench << "\", \"workers\": " << t.workers
        << ", \"seconds\": " << t.seconds
        << ", \"ops_per_second\": " << t.ops_per_second
        << ", \"speedup\": " << t.speedup
        << ", \"p50_latency_seconds\": " << t.p50_latency_seconds
        << ", \"p99_latency_seconds\": " << t.p99_latency_seconds
        << ", \"epochs_per_second\": " << t.epochs_per_second
        << ", \"deadline_misses\": " << t.deadline_misses
        << ", \"rejected\": " << t.rejected << "}";
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

}  // namespace

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  bench::add_common_flags(cli);
  cli.add_flag("worker-counts", "1,2,4,8", "comma-separated worker counts");
  cli.add_flag("ops-per-epoch", "64", "epoch window size (Server pump)");
  cli.add_flag("deadline", "2.0",
               "per-op simulated timeout-wait budget in seconds");
  cli.add_flag("drop-rate", "0.02", "message drop rate during serving");
  cli.add_flag("serve-json", "",
               "throughput report path (empty = skip the report)");
  if (!cli.parse(argc, argv)) return 1;
  const bench::ExperimentFlags flags = bench::read_common_flags(cli);
  const std::size_t ops_per_epoch =
      static_cast<std::size_t>(std::stoll(cli.get("ops-per-epoch")));
  const double deadline = std::stod(cli.get("deadline"));
  const double drop_rate = std::stod(cli.get("drop-rate"));

  std::vector<std::size_t> worker_counts;
  {
    const std::string spec = cli.get("worker-counts");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      worker_counts.push_back(static_cast<std::size_t>(
          std::stoll(spec.substr(pos, comma - pos))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  bench::banner(
      "Sustained epoch-snapshot serving: 80/20 read/write mix with churn",
      flags.csv);

  const bench::Workload wl = bench::build_workload(flags);
  // The corpus splits into a preloaded base and a tail the serve stream
  // publishes live; withdrawals draw from whatever is live at that point
  // in the stream.
  const std::size_t base_items = wl.vectors.size() * 9 / 10;

  // Pre-generate the request schedule once: every worker count serves the
  // exact same stream. Keyword storage backs the SearchOp spans.
  std::vector<vsm::KeywordId> kw_storage;
  kw_storage.reserve(flags.queries);
  std::vector<core::Server::Request> schedule;
  schedule.reserve(flags.queries);
  {
    Rng rng(flags.seed);
    std::vector<vsm::ItemId> live;
    live.reserve(wl.vectors.size());
    for (vsm::ItemId id = 0; id < base_items; ++id) live.push_back(id);
    vsm::ItemId next_new = base_items;
    std::size_t departs = 0;
    for (std::size_t q = 0; q < flags.queries; ++q) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 36) {  // 36% locate
        const vsm::ItemId id = live[rng.below(live.size())];
        schedule.push_back(core::LocateOp{id, &wl.vectors[id], {}});
      } else if (roll < 56) {  // 20% retrieve
        const vsm::ItemId id = rng.below(wl.vectors.size());
        schedule.push_back(core::RetrieveOp{&wl.vectors[id], 5, {}});
      } else if (roll < 72) {  // 16% similarity search
        const vsm::ItemId id = rng.below(wl.vectors.size());
        kw_storage.push_back(wl.vectors[id].entries()[0].keyword);
        schedule.push_back(core::SearchOp{{&kw_storage.back(), 1}, 4, {}});
      } else if (roll < 80) {  // 8% range scan (attribute 0, see below)
        const double lo = rng.uniform(0.0, 0.8);
        schedule.push_back(core::RangeSearchOp{0, lo, lo + 0.1, {}});
      } else if (roll < 92 && next_new < wl.vectors.size()) {  // 12% publish
        schedule.push_back(
            core::PublishOp{next_new, &wl.vectors[next_new], {}});
        live.push_back(next_new);
        ++next_new;
      } else if (roll < 99 || departs >= 8) {  // 7% withdraw
        const std::size_t wi = rng.below(live.size());
        const vsm::ItemId id = live[wi];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(wi));
        schedule.push_back(core::WithdrawOp{id, &wl.vectors[id], {}});
      } else {  // ~1% node departure, capped
        schedule.push_back(core::DepartOp{
            static_cast<overlay::NodeId>(1 + rng.below(flags.nodes - 1))});
        ++departs;
      }
    }
  }

  std::vector<ServeTiming> timings;
  for (const std::size_t workers : worker_counts) {
    core::Meteorograph sys = bench::build_system(
        flags, wl, core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions,
        flags.nodes);
    const core::AttributeId attr = sys.register_attribute(0.0, 1.0);
    for (vsm::ItemId id = 0; id < base_items; ++id) {
      (void)sys.publish(id, wl.vectors[id]);
      if (id % 16 == 0) {
        sys.publish_attribute(
            id, attr,
            static_cast<double>(id) / static_cast<double>(base_items));
      }
    }
    sim::FaultPlan plan(sim::FaultPlanConfig{.drop_rate = drop_rate},
                        flags.seed ^ 0xfa);
    if (drop_rate > 0.0 && !sys.set_fault_hook(&plan)) return 1;

    core::Server server(sys, {.queue_capacity = 4 * ops_per_epoch,
                              .ops_per_epoch = ops_per_epoch,
                              .workers = workers,
                              .seed = flags.seed,
                              .deadline_seconds = deadline});
    std::vector<double> latencies;
    latencies.reserve(schedule.size());
    std::size_t pumps = 0;
    std::size_t next = 0;
    const auto start = std::chrono::steady_clock::now();
    while (next < schedule.size() || server.queued() > 0) {
      while (next < schedule.size() && server.submit(schedule[next])) {
        ++next;
      }
      const auto pump_start = std::chrono::steady_clock::now();
      const std::size_t served = server.pump([](const auto&) {});
      const std::chrono::duration<double> pump_elapsed =
          std::chrono::steady_clock::now() - pump_start;
      if (served > 0) {
        ++pumps;
        // Every request served by this window shares its seal latency.
        latencies.insert(latencies.end(), served, pump_elapsed.count());
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    ServeTiming t;
    t.workers = workers;
    t.seconds = elapsed.count();
    t.ops_per_second =
        t.seconds > 0.0
            ? static_cast<double>(server.served()) / t.seconds
            : 0.0;
    t.speedup = timings.empty() ? 1.0 : timings.front().seconds / t.seconds;
    t.p50_latency_seconds = percentile(latencies, 0.50);
    t.p99_latency_seconds = percentile(latencies, 0.99);
    t.epochs_per_second =
        t.seconds > 0.0 ? static_cast<double>(pumps) / t.seconds : 0.0;
    t.deadline_misses = server.deadline_misses();
    t.rejected = server.rejected();
    timings.push_back(t);
  }

  TextTable table({"workers", "seconds", "ops/s", "speedup", "p50 (s)",
                   "p99 (s)", "epochs/s", "deadline misses", "rejected"});
  for (const ServeTiming& t : timings) {
    table.add_row({TextTable::integer(static_cast<long long>(t.workers)),
                   TextTable::num(t.seconds, 4),
                   TextTable::num(t.ops_per_second, 1),
                   TextTable::num(t.speedup, 3),
                   TextTable::num(t.p50_latency_seconds, 6),
                   TextTable::num(t.p99_latency_seconds, 6),
                   TextTable::num(t.epochs_per_second, 1),
                   TextTable::integer(static_cast<long long>(
                       t.deadline_misses)),
                   TextTable::integer(static_cast<long long>(t.rejected))});
  }
  bench::emit(table, flags.csv);

  if (!cli.get("serve-json").empty()) {
    append_serve_json(cli.get("serve-json"), "serve_mixed", timings);
  }
  return 0;
}
