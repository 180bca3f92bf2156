#pragma once

/// \file harness.hpp
/// Shared experiment harness for the figure/table benches.
///
/// Every bench binary accepts the same scale flags. Defaults run the whole
/// suite in well under a minute at 1/10-ish of the paper's scale;
/// --paper-scale switches to the full 2,760K-item / 89K-keyword workload
/// (needs ~6 GB RAM and minutes per bench). --csv emits machine-readable
/// series for plotting.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "meteorograph/epoch.hpp"
#include "meteorograph/meteorograph.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "workload/trace.hpp"

namespace meteo::bench {

struct ExperimentFlags {
  std::size_t items = 60'000;
  std::size_t keywords = 89'000;
  std::size_t nodes = 1'000;
  std::size_t queries = 5'000;
  std::uint64_t seed = 1;
  bool csv = false;
  workload::WeightScheme weights = workload::WeightScheme::kIdf;
  std::string trace_out;    ///< chrome-trace JSON path; empty = tracing off
  std::string metrics_out;  ///< metric dump path (.csv -> CSV, else JSON)
};

/// Declares the shared flags on `cli`. Call before cli.parse().
void add_common_flags(CliParser& cli);

/// Extracts the shared flags after a successful parse (applies
/// --paper-scale overrides last).
[[nodiscard]] ExperimentFlags read_common_flags(const CliParser& cli);

/// The synthesized workload plus everything derived from it that the
/// benches need: per-item vectors and the 0.5% bootstrap sample.
struct Workload {
  workload::Trace trace;
  std::vector<double> weights;
  std::vector<vsm::SparseVector> vectors;  // index == ItemId
  std::vector<vsm::SparseVector> sample;   // ~0.5% of vectors
};

[[nodiscard]] Workload build_workload(const ExperimentFlags& flags);

/// Builds a Meteorograph system over `wl` with `nodes` peers.
/// capacity_factor: node capacity = factor * (items / nodes); 0 = infinite.
/// max_retries: per-hop retry budget under message faults (0 disables
/// retransmission; only alternate-finger rerouting remains).
[[nodiscard]] core::Meteorograph build_system(
    const ExperimentFlags& flags, const Workload& wl,
    core::LoadBalanceMode mode, std::size_t nodes,
    std::size_t capacity_factor = 0, std::size_t replicas = 1,
    std::size_t max_retries = 3);

struct PublishStats {
  std::size_t published = 0;
  std::size_t failures = 0;
  double mean_route_hops = 0.0;
  double mean_chain_hops = 0.0;
};

/// Publishes every workload item into `sys`.
PublishStats publish_all(core::Meteorograph& sys, const Workload& wl);

/// Human-readable name of a load-balance mode (paper's legend labels).
[[nodiscard]] std::string mode_name(core::LoadBalanceMode mode);

/// Prints the table as text or CSV per the flag.
void emit(const TextTable& table, bool csv);

/// Section header printed before each experiment's output (text mode).
void banner(const std::string& title, bool csv);

/// Keywords ranked by popularity among those with document frequency at
/// most `max_df` (0 = unbounded). Returns keyword ids, most popular first.
[[nodiscard]] std::vector<vsm::KeywordId> popular_keywords(
    const workload::Trace& trace, std::size_t count, std::uint64_t max_df);

// --- observability export (--trace-out / --metrics-out) ---------------------

/// Attaches `log` as `sys`'s tracer iff --trace-out was given. Call before
/// the measured operations; `log` must outlive them.
void maybe_attach_tracer(core::Meteorograph& sys, obs::TraceLog& log,
                         const ExperimentFlags& flags);

/// Writes the system's metric registry (and, when tracing was attached,
/// the span log as chrome://tracing JSON) to the paths in `flags`. `tag`
/// is inserted before the extension ("m.json" + "fig7" -> "m-fig7.json")
/// so one bench binary can dump several experiments without clobbering.
/// Empty paths are skipped; does nothing when neither flag was given.
void export_observability(const core::Meteorograph& sys,
                          const obs::TraceLog& log,
                          const ExperimentFlags& flags,
                          const std::string& tag = "");

// --- batch throughput (BENCH_batch.json) -----------------------------------

/// One wall-clock measurement of a batch at a fixed worker count.
struct BatchTiming {
  std::size_t workers = 0;
  double seconds = 0.0;
  double ops_per_second = 0.0;
  double speedup = 1.0;  ///< vs the first (1-worker) measurement
};

/// Times `run` once per entry of `worker_counts`, each with a fresh
/// EpochEngine over `sys` seeded identically — so every measurement
/// executes the exact same deterministic batch. `run` must be read-only
/// (locate/retrieve/search batches): the system is shared across rounds.
/// `ops` is the batch size, used for the ops/s column.
[[nodiscard]] std::vector<BatchTiming> time_batches(
    core::Meteorograph& sys, std::span<const std::size_t> worker_counts,
    std::size_t ops, std::uint64_t seed,
    const std::function<void(core::EpochEngine&)>& run);

/// Renders timings as a table (workers / seconds / ops/s / speedup).
[[nodiscard]] TextTable batch_table(const std::vector<BatchTiming>& timings);

/// Merges `timings` into the JSON report at `path` under `bench` (replacing
/// any previous records with the same bench name, keeping the rest). The
/// report also records hardware_concurrency: on a single-core host the
/// speedup column is expected to hover around 1.0.
void append_batch_json(const std::string& path, const std::string& bench,
                       const std::vector<BatchTiming>& timings);

}  // namespace meteo::bench
