/// The `ingest` workload: fault-free and write-only. A seeded half of the
/// corpus is preloaded through the facade; the measured phase publishes
/// the other half through BatchEngine::publish in 1024-op batches, then
/// withdraws a seeded sample of live items through BatchEngine::withdraw
/// in 4-op batches until the run's time is up. Publish and withdraw are
/// timed apart: today they differ by about 10^4x per op. A withdraw's cost
/// depends on its item's directory node, so its rate is every withdraw
/// over their summed batch time (at least 12 batches): a median of 4-op
/// batch rates swung by 0.22 between seeds.

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPublishBatch = 1024;
constexpr std::size_t kWithdrawBatch = 4;
/// Counted metrics and the run digest cover the publish phase and this
/// many withdraw batches.
constexpr std::size_t kPrefixWithdrawBatches = 12;
/// Publish batches replayed on a second, identically built system.
constexpr std::size_t kReplayPublishBatches = 2;
constexpr std::size_t kMaxWithdraws = 4096;
constexpr std::size_t kProbeSearches = 64;
constexpr std::size_t kSearchK = 16;

struct Inputs {
  std::vector<vsm::ItemId> preload;  ///< facade-published at set-up
  std::vector<core::PublishOp> publishes;
  std::vector<core::WithdrawOp> withdraws;  ///< order to withdraw in
};

Inputs make_inputs(const bench::Workload& wl, const Seeds& seeds) {
  meteo::Rng rng(seeds.inputs);
  std::vector<vsm::ItemId> ids(wl.vectors.size());
  std::iota(ids.begin(), ids.end(), vsm::ItemId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  Inputs in;
  const std::size_t half = ids.size() / 2;
  in.preload.assign(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(half));
  for (std::size_t i = half; i < ids.size(); ++i) {
    in.publishes.push_back({ids[i], &wl.vectors[ids[i]], {}});
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < kMaxWithdraws; ++i) {
    in.withdraws.push_back({ids[i], &wl.vectors[ids[i]], {}});
  }
  return in;
}

struct IngestRun {
  std::size_t published = 0;  ///< successful BatchEngine publishes
  std::size_t removed = 0;
  std::size_t withdrawn = 0;  ///< withdraw ops issued
  double publish_s = 0.0;     ///< summed publish batch wall time
  std::vector<double> publish_batch_s;
  std::vector<double> withdraw_batch_s;
  std::uint64_t prefix_ops = 0;
  std::uint64_t prefix_messages = 0;
  std::uint64_t prefix_failed = 0;
  std::uint64_t chain_hops = 0;
  std::uint64_t replay_digest = 0;
  std::uint64_t prefix_digest = 0;
  double trace_overhead = 0.0;
};

struct IngestConfig {
  std::size_t publish_batches = ~std::size_t{0};  ///< cap (replay)
  bool withdraw = true;
  double seconds = 0.0;
  SpanLog* spans = nullptr;  ///< traced run: every other batch traced
};

IngestRun ingest(Loaded& loaded, const Inputs& in, const Seeds& seeds,
                 const IngestConfig& cfg, Report& report) {
  core::BatchEngine engine(*loaded.sys,
                           {.workers = kWorkers, .seed = seeds.engine});
  SpanLog unused;
  SpanLog& spans = cfg.spans != nullptr ? *cfg.spans : unused;
  OverheadPairs pairs;
  Digest digest;
  IngestRun run;
  const Clock::time_point start = Clock::now();

  const std::size_t batches = std::min(
      cfg.publish_batches,
      (in.publishes.size() + kPublishBatch - 1) / kPublishBatch);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t lo = b * kPublishBatch;
    const std::size_t n = std::min(kPublishBatch, in.publishes.size() - lo);
    const bool traced = cfg.spans != nullptr && b % 2 == 1;
    spans.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    std::vector<core::PublishResult> results;
    {
      auto unit = spans.open("bench.unit", static_cast<std::int64_t>(b));
      auto call = spans.open("batch.publish", static_cast<std::int64_t>(b));
      results = engine.publish(std::span(in.publishes).subspan(lo, n));
    }
    const double wall = seconds_since(t0);
    spans.set_enabled(false);
    pairs.add(traced, wall);
    run.publish_s += wall;
    run.publish_batch_s.push_back(wall);
    for (const core::PublishResult& r : results) {
      run.published += r.success ? 1U : 0U;
      if (failed(r)) {
        ++report.failed;
        ++run.prefix_failed;
      }
      run.prefix_messages += messages(r);
      run.chain_hops += r.chain_hops;
      digest.add(r);
    }
    run.prefix_ops += n;
    report.attempted += n;
    if (b + 1 == kReplayPublishBatches) run.replay_digest = digest.value();
  }

  for (std::size_t b = 0; cfg.withdraw; ++b) {
    const std::size_t lo = b * kWithdrawBatch;
    if (lo >= in.withdraws.size()) break;
    if (b >= kPrefixWithdrawBatches && seconds_since(start) >= cfg.seconds) {
      break;
    }
    const std::size_t n = std::min(kWithdrawBatch, in.withdraws.size() - lo);
    const bool traced = cfg.spans != nullptr && b % 2 == 1;
    spans.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    std::vector<core::WithdrawResult> results;
    {
      auto unit = spans.open("bench.unit", static_cast<std::int64_t>(b));
      auto call = spans.open("batch.withdraw", static_cast<std::int64_t>(b));
      results = engine.withdraw(std::span(in.withdraws).subspan(lo, n));
    }
    const double wall = seconds_since(t0);
    spans.set_enabled(false);
    pairs.add(traced, wall);
    run.withdraw_batch_s.push_back(wall);
    run.withdrawn += n;
    report.attempted += n;
    const bool prefix = b < kPrefixWithdrawBatches;
    for (const core::WithdrawResult& r : results) {
      run.removed += r.removed ? 1U : 0U;
      if (failed(r, true)) {
        ++report.failed;
        run.prefix_failed += prefix ? 1U : 0U;
      }
      if (prefix) {
        run.prefix_messages += messages(r);
        digest.add(r);
      }
    }
    if (prefix) run.prefix_ops += n;
    if (b + 1 == kPrefixWithdrawBatches) run.prefix_digest = digest.value();
  }
  run.trace_overhead = pairs.overhead();
  return run;
}

/// After the measured phase: the store holds exactly the successful
/// publishes minus the removed items, and no withdrawn item can be found.
void check_end_state(Loaded& loaded, const Inputs& in, const IngestRun& run,
                     const Seeds& seeds, Report& report) {
  report.check(check_stored_count(loaded.sys->stored_item_count(),
                                  in.preload.size() - loaded.preload_failures +
                                      run.published,
                                  run.removed));
  std::vector<core::LocateOp> gone;
  for (std::size_t i = 0; i < run.withdrawn; ++i) {
    gone.push_back({in.withdraws[i].item, in.withdraws[i].vector, {}});
  }
  core::BatchEngine engine(*loaded.sys,
                           {.workers = kWorkers, .seed = seeds.engine ^ 1});
  const std::vector<core::LocateResult> found = engine.locate(gone);
  for (std::size_t i = 0; i < found.size(); ++i) {
    report.check(check_withdrawn(found[i], gone[i].item));
  }
}

Preload preload_half(const Seeds& seeds) {
  return [seeds](core::Meteorograph& sys, const bench::Workload& wl) {
    std::size_t failures = 0;
    for (const vsm::ItemId id : make_inputs(wl, seeds).preload) {
      failures += sys.publish(id, wl.vectors[id]).success ? 0U : 1U;
    }
    return failures;
  };
}

}  // namespace

void run_ingest(const Options& options, Report& report) {
  const Seeds seeds = Seeds::from(options.seed);

  if (options.trace) {
    Loaded loaded = set_up(seeds, preload_half(seeds));
    report.check(check_preload(loaded));
    const Inputs in = make_inputs(loaded.wl, seeds);
    SpanLog spans;
    const IngestRun run = ingest(
        loaded, in, seeds, {.seconds = options.seconds, .spans = &spans},
        report);
    check_end_state(loaded, in, run, seeds, report);

    ProbeInputs probe;
    meteo::Rng rng(seeds.probe ^ 0x19);
    for (std::size_t i = run.withdrawn;
         i < std::min(run.withdrawn + 1024, in.withdraws.size()); ++i) {
      probe.locate_items.push_back(in.withdraws[i].item);  // still live
    }
    for (std::size_t i = 0; i < 256; ++i) {
      probe.retrieve_queries.push_back(
          &loaded.wl.vectors[rng.below(loaded.wl.vectors.size())]);
    }
    const std::vector<vsm::KeywordId> pool = search_keywords(loaded.wl, 256);
    std::vector<vsm::KeywordId> keywords;
    keywords.reserve(kProbeSearches);  // the spans below point into it
    for (std::size_t i = 0; i < kProbeSearches; ++i) {
      keywords.push_back(pool[rng.below(pool.size())]);
      probe.searches.push_back(
          {{&keywords.back(), 1}, i % 2 == 0 ? 0 : kSearchK, {}});
    }
    probe.publish_chain_hops = static_cast<double>(run.chain_hops) /
                               static_cast<double>(in.publishes.size());
    const FacadeCosts cost = probe_layers(loaded, probe, seeds, spans, report);
    report.metric("batch.publish_eff",
                  static_cast<double>(in.publishes.size()) * cost.publish /
                      (static_cast<double>(kWorkers) * run.publish_s),
                  "ratio");
    record_unexercised({"batch.locate_eff", "batch.retrieve_eff",
                        "batch.search_eff", "server.pump_ms_p50",
                        "server.pump_ms_p90", "server.submit_us",
                        "server.queue_depth", "server.deadline_misses",
                        "epoch.engine_frac"},
                       report);
    const FaultTotals faults = FaultTotals::of(*loaded.sys);
    record_fault_layers(faults, faults, report.attempted, report);
    record_common_layers(loaded.timing, spans, run.trace_overhead, report);
    if (!options.spans_path.empty()) (void)spans.write_json(options.spans_path);
    return;
  }

  std::vector<double> setups;
  std::uint64_t replay_digest = 0;
  std::optional<Loaded> measured;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    Loaded loaded = set_up(seeds, preload_half(seeds));
    report.check(check_preload(loaded));
    setups.push_back(loaded.timing.total());
    if (rep == 0) {
      Report scratch(options);
      replay_digest =
          ingest(loaded, make_inputs(loaded.wl, seeds), seeds,
                 {.publish_batches = kReplayPublishBatches, .withdraw = false},
                 scratch)
              .replay_digest;
    }
    if (rep + 1 == kSetupRepetitions) measured.emplace(std::move(loaded));
  }
  const Inputs in = make_inputs(measured->wl, seeds);
  const IngestRun run =
      ingest(*measured, in, seeds, {.seconds = options.seconds}, report);
  check_end_state(*measured, in, run, seeds, report);
  report.check(check_digest(
      "ingest: the first 2 publish batches on a second system",
      replay_digest, run.replay_digest));
  report.provenance("run_digest", std::to_string(run.prefix_digest));
  report.provenance("withdraw_batches",
                    std::to_string(run.withdraw_batch_s.size()));

  const double publish_rate =
      static_cast<double>(in.publishes.size()) / run.publish_s;
  double withdraw_s = 0.0;
  for (const double s : run.withdraw_batch_s) withdraw_s += s;
  const double withdraw_rate = static_cast<double>(run.withdrawn) / withdraw_s;
  report.detail("ingest_publish_per_s", publish_rate, "ops/s");
  report.detail("ingest_withdraw_per_s", withdraw_rate, "ops/s",
                std::to_string(run.withdrawn) + " withdraws");
  report.detail("failed_frac",
                static_cast<double>(run.prefix_failed) /
                    static_cast<double>(run.prefix_ops),
                "ratio", "publish phase + first 12 withdraw batches");

  const double per_kind[] = {publish_rate, withdraw_rate};
  report.metric("setup_s", median(setups).value, "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  report.metric("ops_per_s", geomean(per_kind), "ops/s");
  report.metric("msgs_per_op",
                static_cast<double>(run.prefix_messages) /
                    static_cast<double>(run.prefix_ops),
                "msgs/op");
}

}  // namespace perfbench
