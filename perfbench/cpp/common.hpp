#pragma once

/// \file common.hpp
/// What the three workloads share: the fixed Fig. 10 setting, seed
/// derivation, the timed set-up, the report, and the probe inputs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "bench_math.hpp"
#include "span_log.hpp"

namespace perfbench {

namespace core = meteo::core;
namespace vsm = meteo::vsm;
namespace overlay = meteo::overlay;
namespace bench = meteo::bench;

// --- the shared setting (paper Fig. 10, Table 1 corpus) ----------------------

inline constexpr std::size_t kItems = 60'000;
inline constexpr std::size_t kKeywords = 89'000;
inline constexpr std::size_t kNodes = 10'000;
inline constexpr std::size_t kCapacityFactor = 8;  ///< node capacity = 8c
/// Worker threads of every engine. Two, not four: on a 4-vCPU host shared
/// with other machines, 4-worker batches swung by 1.5x between runs
/// whenever outside load took a core, while 2-worker runs held within 2%.
inline constexpr std::size_t kWorkers = 2;
/// Per-hop retries under message faults (only serve injects any).
inline constexpr std::size_t kMaxRetries = 5;
/// Set-ups per untraced run; setup_s is their median.
inline constexpr std::size_t kSetupRepetitions = 3;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The Table 1 corpus and the system built over it are one fixed setting:
/// seed 1, the default of every bench/ binary. A corpus drawn per run
/// would move set-up time and message counts by up to 2x between seeds,
/// far beyond any bound a regression check could hold.
inline constexpr std::uint64_t kCorpusSeed = 1;

/// Every random stream of a run: the fixed corpus seed, and the op
/// inputs, engine substreams and fault fates derived from --seed.
struct Seeds {
  std::uint64_t corpus = kCorpusSeed;  ///< build_workload and the system
  std::uint64_t engine = 0;  ///< BatchEngine / EpochEngine / Server root
  std::uint64_t faults = 0;  ///< sim::FaultPlan
  std::uint64_t inputs = 0;  ///< the workload's op schedule
  std::uint64_t probe = 0;   ///< the traced run's probe sample

  [[nodiscard]] static Seeds from(std::uint64_t seed);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report_path;  ///< full JSON report (provenance, checks, ...)
  std::string spans_path;   ///< traced run: span dump
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::vector<std::string> argv;
};

// --- set-up ------------------------------------------------------------------

struct SetupTiming {
  double workload_s = 0.0;  ///< bench::build_workload (corpus synthesis)
  double build_s = 0.0;     ///< the Meteorograph constructor
  double preload_s = 0.0;   ///< the workload's preload through the facade
  [[nodiscard]] double total() const noexcept {
    return workload_s + build_s + preload_s;
  }
};

/// A corpus and a system over it, built and preloaded.
struct Loaded {
  bench::Workload wl;
  std::optional<core::Meteorograph> sys;
  SetupTiming timing;
  std::size_t preload_failures = 0;
};

/// Publishes the workload's preloaded part through the facade; returns the
/// number of failed publishes.
using Preload = std::function<std::size_t(core::Meteorograph&,
                                          const bench::Workload&)>;

/// Synthesizes the Table 1 corpus (60k items, 89k keywords, IDF weights)
/// and builds N = 10^4 nodes at 8c capacity under
/// kUnusedHashSpacePlusHotRegions, then runs `preload`; every phase timed.
[[nodiscard]] Loaded set_up(const Seeds& seeds, const Preload& preload);

/// Every preload publish succeeded.
[[nodiscard]] Check check_preload(const Loaded& loaded);

// --- the report --------------------------------------------------------------

/// Collects one run's numbers and checks and writes them out. `metric`
/// records the names BENCHMARK.json lists (end-to-end or per-layer);
/// `detail` records the finer per-workload figures printed above them.
class Report {
 public:
  explicit Report(const Options& options);

  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void provenance(const std::string& key, const std::string& value);
  /// Records a failed check and prints it at once.
  void check(const Check& c);

  [[nodiscard]] bool correct() const noexcept { return violations_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints every metric and detail, then writes the JSON report to
  /// options.report_path. False when the file cannot be written.
  bool finish() const;

 private:
  struct Value {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  const Options& options_;
  std::vector<Value> metrics_;
  std::vector<Value> details_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<Violation> violations_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

// --- the traced run's probe pass ---------------------------------------------

/// The workload's own op inputs, sampled for the single-threaded probe
/// pass (isolated facade calls and direct lower-layer calls).
struct ProbeInputs {
  std::vector<vsm::ItemId> locate_items;  ///< live items
  std::vector<const vsm::SparseVector*> retrieve_queries;
  std::size_t retrieve_amount = 10;
  std::vector<core::SearchOp> searches;
  std::vector<core::RangeSearchOp> ranges;  ///< empty: no attribute
  /// Mean chain hops of the measured phase's publishes, when it had any;
  /// otherwise the probe's own publishes give the figure.
  std::optional<double> publish_chain_hops;
};

/// Mean isolated facade time per op kind, in seconds (0 = not probed).
struct FacadeCosts {
  double locate = 0.0;
  double retrieve = 0.0;
  double search = 0.0;
  double range = 0.0;
  double publish = 0.0;
  double withdraw = 0.0;
  double depart = 0.0;
};

/// Runs the probe pass on `loaded` after the measured phase, records the
/// per-layer metrics of the naming, overlay, vsm, epoch and meteorograph
/// layers, and returns the facade costs. Detaches any fault hook first:
/// probes measure fault-free layer costs. Leaves the system mutated
/// (probe publishes, withdrawals and departures).
FacadeCosts probe_layers(Loaded& loaded, const ProbeInputs& inputs,
                         const Seeds& seeds, SpanLog& spans, Report& report);

/// Records the set-up and trace-accounting per-layer metrics every
/// workload shares.
void record_common_layers(const SetupTiming& setup, const SpanLog& spans,
                          double trace_overhead, Report& report);

/// Per-layer metrics of a layer this workload never calls: recorded as 0
/// so every workload reports the same metric set.
void record_unexercised(std::initializer_list<const char*> names,
                        Report& report);

/// Keywords for the Fig. 10 searches: the `count` most popular keywords
/// with document frequency at most N.
[[nodiscard]] std::vector<vsm::KeywordId> search_keywords(
    const bench::Workload& wl, std::size_t count);

/// Times traced and untraced units of one kind alternately; the
/// trace overhead is Σ traced / Σ untraced - 1 over complete pairs,
/// skipping the first (warm-up) pair.
class OverheadPairs {
 public:
  void add(bool traced, double seconds);
  [[nodiscard]] double overhead() const;

 private:
  double traced_ = 0.0;
  double untraced_ = 0.0;
  std::optional<double> pending_;  ///< an untraced unit awaiting its pair
  bool warm_ = false;
};

/// The sim.* per-layer metrics: fault.{retries,timeouts,reroutes}
/// registry totals (summed over op labels) between two snapshots,
/// divided by ops.
struct FaultTotals {
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reroutes = 0;
  [[nodiscard]] static FaultTotals of(const core::Meteorograph& sys);
};
void record_fault_layers(const FaultTotals& before, const FaultTotals& after,
                         std::uint64_t ops, Report& report);

}  // namespace perfbench
