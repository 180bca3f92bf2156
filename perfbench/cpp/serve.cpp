/// The `serve` workload: a closed loop over core::Server. After every
/// pump() the loop refills the admission queue until submit() refuses
/// (the caller backs off and pumps), so 256 requests stay outstanding;
/// each pump serves one 64-op epoch window at 2 read workers. The request
/// mix is bench/serve_mixed's, under a seeded 2% message-drop FaultPlan,
/// over a system preloaded with 90% of the corpus.
///
/// The Server runs without a deadline: a request past its deadline counts
/// as a failed op, and the benchmark's workloads are chosen so that no op
/// fails. The loop instead counts the requests whose simulated timeout
/// wait exceeds serve_mixed's 2.0 s budget (server.deadline_misses).
/// Five retries per hop (set_up's kMaxRetries) make a message lost on
/// every attempt, which would degrade its op, about 6e-11 likely.

#include <array>
#include <deque>

#include "common/rng.hpp"
#include "sim/fault_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWindow = 64;
constexpr std::size_t kQueueCapacity = 256;
/// serve_mixed's per-op budget of simulated timeout wait, in seconds.
constexpr double kDeadlineSeconds = 2.0;
constexpr double kDropRate = 0.02;
/// Counted metrics and the run digest cover this deterministic prefix.
constexpr std::size_t kPrefixWindows = 40;
/// Windows replayed on a second, identically built system.
constexpr std::size_t kReplayWindows = 4;
/// The initial fill admits 4 windows at once; their latencies are not
/// steady-state samples.
constexpr std::size_t kWarmupWindows = kQueueCapacity / kWindow;
/// The traced run serves enough windows for 100 steady-state pump
/// samples: the fewest that put 10 samples beyond a nearest-rank p90.
constexpr std::size_t kTracedWindows = kWarmupWindows + 100;
constexpr std::size_t kMaxDeparts = 8;
constexpr std::size_t kAttributeStride = 16;
constexpr std::size_t kRetrieveAmount = 5;
constexpr std::size_t kSearchK = 4;
constexpr std::size_t kProbeSearches = 64;
constexpr std::size_t kProbeRanges = 64;

/// The serve_mixed request stream, generated on demand: 36% locate, 20%
/// retrieve top-5, 16% single-keyword search (k = 4), 8% range scan, 12%
/// publish of a not-yet-published item, 7% withdraw, ~1% depart (at most
/// 8). Requests fill 64-op windows in order, so the generator knows which
/// items a window's reads see: those live before the window began.
class Schedule {
 public:
  struct Next {
    core::Server::Request request;
    bool live = false;  ///< locate/withdraw target visible to the op
  };

  Schedule(const bench::Workload& wl, core::AttributeId attribute,
           std::size_t preloaded, std::uint64_t seed)
      : wl_(wl), attribute_(attribute), rng_(seed), next_new_(preloaded),
        departed_(kNodes, false) {
    for (vsm::ItemId id = 0; id < preloaded; ++id) live_.push_back(id);
  }

  Next next() {
    if (issued_ > 0 && issued_ % kWindow == 0) {
      live_.insert(live_.end(), published_.begin(), published_.end());
      published_.clear();
    }
    ++issued_;
    const std::size_t items = wl_.vectors.size();
    const std::uint64_t roll = rng_.below(100);
    if (roll < 36) {
      const vsm::ItemId id = live_[rng_.below(live_.size())];
      return {core::LocateOp{id, &wl_.vectors[id], {}}, true};
    }
    if (roll < 56) {
      const vsm::ItemId id = rng_.below(items);
      return {core::RetrieveOp{&wl_.vectors[id], kRetrieveAmount, {}}};
    }
    if (roll < 72) {
      const vsm::ItemId id = rng_.below(items);
      keywords_.push_back(wl_.vectors[id].entries()[0].keyword);
      return {core::SearchOp{{&keywords_.back(), 1}, kSearchK, {}}};
    }
    if (roll < 80) {
      const double lo = rng_.uniform(0.0, 0.8);
      return {core::RangeSearchOp{attribute_, lo, lo + 0.1, {}}};
    }
    if (roll < 92 && next_new_ < items) {
      published_.push_back(next_new_);
      const vsm::ItemId id = next_new_++;
      return {core::PublishOp{id, &wl_.vectors[id], {}}};
    }
    if (roll < 99 || departs_ >= kMaxDeparts) {
      const std::size_t at = rng_.below(live_.size());
      const vsm::ItemId id = live_[at];
      live_[at] = live_.back();
      live_.pop_back();
      return {core::WithdrawOp{id, &wl_.vectors[id], {}}, true};
    }
    overlay::NodeId node = 0;
    do {
      node = static_cast<overlay::NodeId>(1 + rng_.below(kNodes - 1));
    } while (departed_[node]);
    departed_[node] = true;
    ++departs_;
    return {core::DepartOp{node}};
  }

  [[nodiscard]] const std::vector<vsm::ItemId>& live() const noexcept {
    return live_;
  }

 private:
  const bench::Workload& wl_;
  core::AttributeId attribute_;
  meteo::Rng rng_;
  std::vector<vsm::ItemId> live_;       ///< visible to this window's reads
  std::vector<vsm::ItemId> published_;  ///< published in this window
  std::deque<vsm::KeywordId> keywords_;  ///< backs the SearchOp spans
  vsm::ItemId next_new_;
  std::vector<bool> departed_;
  std::size_t departs_ = 0;
  std::size_t issued_ = 0;
};

/// Attaches a fault plan for one serve loop and always detaches it.
class FaultScope {
 public:
  FaultScope(core::Meteorograph& sys, overlay::FaultHook* hook) : sys_(sys) {
    attached_ = sys_.set_fault_hook(hook);
  }
  ~FaultScope() { (void)sys_.set_fault_hook(nullptr); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  [[nodiscard]] bool attached() const noexcept { return attached_; }

 private:
  core::Meteorograph& sys_;
  bool attached_ = false;
};

struct ServeRun {
  std::size_t timed_served = 0;
  double timed_seconds = 0.0;
  std::uint64_t completions = 0;
  std::uint64_t failures = 0;
  std::vector<double> latencies;    ///< per steady-state window, seconds
  std::vector<double> pump_seconds;  ///< per timed window
  std::vector<double> queue_depths;  ///< queued() before each timed pump
  /// Per op kind (EpochEngine::OpResult index), timed windows only.
  std::array<std::size_t, std::variant_size_v<core::EpochEngine::OpResult>>
      kinds{};
  // The deterministic prefix (first kPrefixWindows windows).
  std::uint64_t prefix_ops = 0;
  std::uint64_t prefix_messages = 0;
  std::uint64_t prefix_failed = 0;
  std::uint64_t prefix_deadline_misses = 0;
  std::uint64_t prefix_publishes = 0;
  std::uint64_t prefix_chain_hops = 0;
  std::vector<double> window_msgs_per_op;  ///< prefix windows
  std::uint64_t replay_digest = 0;  ///< first kReplayWindows windows
  std::uint64_t prefix_digest = 0;
  FaultTotals faults_before;
  FaultTotals faults_after_prefix;
  double trace_overhead = 0.0;
  std::vector<vsm::ItemId> live_at_end;
};

struct ServeConfig {
  std::size_t min_windows = kPrefixWindows;
  double seconds = 0.0;
  bool drain = true;         ///< serve every admitted request at the end
  SpanLog* spans = nullptr;  ///< traced run: every other window traced
};

ServeRun serve(Loaded& loaded, core::AttributeId attribute,
               std::size_t preloaded, const Seeds& seeds,
               const ServeConfig& cfg, Report& report) {
  core::Meteorograph& sys = *loaded.sys;
  ServeRun run;
  meteo::sim::FaultPlan plan(
      meteo::sim::FaultPlanConfig{.drop_rate = kDropRate}, seeds.faults);
  FaultScope faults(sys, &plan);
  if (!faults.attached()) {
    report.check(Violation{"serve.fault_hook", "set_fault_hook refused"});
    return run;
  }
  run.faults_before = FaultTotals::of(sys);
  Schedule schedule(loaded.wl, attribute, preloaded, seeds.inputs);
  core::Server server(sys, {.queue_capacity = kQueueCapacity,
                            .ops_per_epoch = kWindow,
                            .workers = kWorkers,
                            .seed = seeds.engine,
                            .deadline_seconds = 0.0});
  AdmissionOrder order;
  struct Inflight {
    Clock::time_point admitted;
    bool live = false;
  };
  std::deque<Inflight> inflight;
  std::optional<Schedule::Next> held;  // refused by submit(), retried next
  Digest digest;
  OverheadPairs overhead;
  SpanLog unused;
  SpanLog& spans = cfg.spans != nullptr ? *cfg.spans : unused;

  bool timed = true;  // refilling; false while draining
  std::size_t windows = 0;
  std::vector<Clock::time_point> window_admits;
  std::uint64_t window_start_messages = 0;
  const Clock::time_point start = Clock::now();
  const auto on_complete = [&](const core::Server::Completion& c) {
    report.check(order.complete(c.ticket));
    if (inflight.empty()) return;  // a completion nobody admitted
    const Inflight op = inflight.front();
    inflight.pop_front();
    window_admits.push_back(op.admitted);
    const bool bad = failed(c, op.live);
    ++run.completions;
    run.failures += bad ? 1U : 0U;
    if (timed) ++run.kinds[c.result.index()];
    if (windows < kPrefixWindows) {
      ++run.prefix_ops;
      run.prefix_messages += messages(c.result);
      run.prefix_failed += bad ? 1U : 0U;
      run.prefix_deadline_misses += c.timeout_cost > kDeadlineSeconds ? 1U : 0U;
      if (const auto* p = std::get_if<core::PublishResult>(&c.result)) {
        ++run.prefix_publishes;
        run.prefix_chain_hops += p->chain_hops;
      }
      digest.add(c.result);
      digest.add(c.timeout_cost);
    }
  };

  while (timed || server.queued() > 0) {
    const bool traced = cfg.spans != nullptr && timed && windows % 2 == 1;
    spans.set_enabled(traced);
    const Clock::time_point unit_start = Clock::now();
    double pump_s = 0.0;
    {
      auto unit = spans.open("bench.unit", static_cast<std::int64_t>(windows));
      while (timed) {
        if (!held) held = schedule.next();
        std::optional<core::Server::Ticket> ticket;
        {
          auto call = spans.open("server.submit");
          ticket = server.submit(held->request);
        }
        if (!ticket) break;
        order.admit(*ticket);
        inflight.push_back({Clock::now(), held->live});
        held.reset();
      }
      if (timed) {
        run.queue_depths.push_back(static_cast<double>(server.queued()));
      }
      window_admits.clear();
      auto call = spans.open("server.pump", static_cast<std::int64_t>(windows));
      const Clock::time_point pump_start = Clock::now();
      (void)server.pump(on_complete);
      pump_s = seconds_since(pump_start);
    }
    const Clock::time_point done = Clock::now();
    if (timed) {
      overhead.add(traced, seconds_since(unit_start));
      run.pump_seconds.push_back(pump_s);
      run.timed_served += window_admits.size();
      if (windows >= kWarmupWindows) {
        double wait = 0.0;
        for (const Clock::time_point t : window_admits) {
          wait += std::chrono::duration<double>(done - t).count();
        }
        run.latencies.push_back(wait /
                                static_cast<double>(window_admits.size()));
      }
    }
    if (windows < kPrefixWindows) {
      run.window_msgs_per_op.push_back(
          static_cast<double>(run.prefix_messages - window_start_messages) /
          static_cast<double>(kWindow));
    }
    window_start_messages = run.prefix_messages;
    ++windows;
    if (windows == kReplayWindows) run.replay_digest = digest.value();
    if (windows == kPrefixWindows) {
      run.prefix_digest = digest.value();
      run.faults_after_prefix = FaultTotals::of(sys);
    }
    if (timed && windows >= cfg.min_windows &&
        seconds_since(start) >= cfg.seconds) {
      run.timed_seconds = seconds_since(start);
      timed = false;
      if (!cfg.drain) break;
    }
  }
  spans.set_enabled(false);
  if (cfg.drain) report.check(order.finish());
  run.trace_overhead = overhead.overhead();
  run.live_at_end = schedule.live();
  return run;
}

std::size_t preload(core::Meteorograph& sys, const bench::Workload& wl,
                    std::size_t count, core::AttributeId& attribute) {
  attribute = sys.register_attribute(0.0, 1.0);
  std::size_t failures = 0;
  for (vsm::ItemId id = 0; id < count; ++id) {
    failures += sys.publish(id, wl.vectors[id]).success ? 0U : 1U;
    if (id % kAttributeStride == 0) {
      sys.publish_attribute(
          id, attribute, static_cast<double>(id) / static_cast<double>(count));
    }
  }
  return failures;
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const Seeds seeds = Seeds::from(options.seed);
  const std::size_t preloaded = kItems * 9 / 10;
  core::AttributeId attribute = 0;
  const Preload load = [&](core::Meteorograph& sys, const bench::Workload& wl) {
    return preload(sys, wl, preloaded, attribute);
  };

  if (options.trace) {
    Loaded loaded = set_up(seeds, load);
    report.check(check_preload(loaded));
    SpanLog spans;
    const ServeRun run = serve(loaded, attribute, preloaded, seeds,
                               {.min_windows = kTracedWindows,
                                .seconds = options.seconds,
                                .spans = &spans},
                               report);
    report.attempted = run.completions;
    report.failed = run.failures;

    ProbeInputs in;
    meteo::Rng rng(seeds.probe ^ 0x5e);
    std::deque<vsm::KeywordId> keywords;
    for (std::size_t i = 0; i < 1024; ++i) {
      in.locate_items.push_back(
          run.live_at_end[rng.below(run.live_at_end.size())]);
    }
    for (std::size_t i = 0; i < 256; ++i) {
      in.retrieve_queries.push_back(
          &loaded.wl.vectors[rng.below(loaded.wl.vectors.size())]);
    }
    in.retrieve_amount = kRetrieveAmount;
    for (std::size_t i = 0; i < kProbeSearches; ++i) {
      const vsm::ItemId id = rng.below(loaded.wl.vectors.size());
      keywords.push_back(loaded.wl.vectors[id].entries()[0].keyword);
      in.searches.push_back(
          core::SearchOp{{&keywords.back(), 1}, kSearchK, {}});
    }
    for (std::size_t i = 0; i < kProbeRanges; ++i) {
      const double lo = rng.uniform(0.0, 0.8);
      in.ranges.push_back(core::RangeSearchOp{attribute, lo, lo + 0.1, {}});
    }
    if (run.prefix_publishes > 0) {
      in.publish_chain_hops = static_cast<double>(run.prefix_chain_hops) /
                              static_cast<double>(run.prefix_publishes);
    }
    const FacadeCosts cost = probe_layers(loaded, in, seeds, spans, report);

    // Every timed window's pump, traced or not, after the warm-up fill.
    const std::span<const double> pumps =
        std::span(run.pump_seconds).subspan(kWarmupWindows);
    const Quantile pump_tail = tail(pumps);
    report.metric("server.pump_ms_p50", median(pumps).value * 1e3, "ms");
    report.metric("server.pump_ms_p90", pump_tail.value * 1e3, "ms");
    report.detail("server.pump_ms_tail_percentile", pump_tail.percentile,
                  "quantile", std::to_string(pumps.size()) + " pumps");
    report.metric("server.submit_us",
                  spans.total_seconds("server.submit") /
                      static_cast<double>(spans.total_calls("server.submit")) *
                      1e6,
                  "us");
    double depth = 0.0;
    for (const double d : run.queue_depths) depth += d;
    report.metric("server.queue_depth",
                  depth / static_cast<double>(run.queue_depths.size()),
                  "requests");
    report.metric("server.deadline_misses",
                  static_cast<double>(run.prefix_deadline_misses), "count");
    // Isolated facade time of the timed windows' ops, by kind, against the
    // time the pumps took: the rest is the engine's own work (arm, gc and
    // directory reindex, fold, pool dispatch). Withdraw counts as engine
    // work: the facade withdraw reindexes the directory on the spot (about
    // 10^5 times a publish), where the engine defers that to the seal's gc.
    const std::array<double, 7> per_kind = {cost.retrieve, cost.locate,
                                            cost.search,   cost.range,
                                            cost.publish,  0.0,
                                            cost.depart};
    double isolated = 0.0;
    double pumped = 0.0;
    for (std::size_t k = 0; k < per_kind.size(); ++k) {
      isolated += static_cast<double>(run.kinds[k]) * per_kind[k];
    }
    for (const double p : run.pump_seconds) pumped += p;
    report.metric("epoch.engine_frac", 1.0 - isolated / pumped, "ratio");
    record_unexercised({"batch.locate_eff", "batch.retrieve_eff",
                        "batch.search_eff", "batch.publish_eff"},
                       report);
    record_fault_layers(run.faults_before, run.faults_after_prefix,
                        run.prefix_ops, report);
    record_common_layers(loaded.timing, spans, run.trace_overhead, report);
    if (!options.spans_path.empty()) (void)spans.write_json(options.spans_path);
    return;
  }

  // Untraced: set up kSetupRepetitions times; the first system replays the
  // opening windows for the determinism check, the last one is measured.
  std::vector<double> setups;
  std::uint64_t replay_digest = 0;
  std::optional<Loaded> measured;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    Loaded loaded = set_up(seeds, load);
    report.check(check_preload(loaded));
    setups.push_back(loaded.timing.total());
    if (rep == 0) {
      replay_digest =
          serve(loaded, attribute, preloaded, seeds,
                {.min_windows = kReplayWindows, .drain = false}, report)
              .replay_digest;
    }
    if (rep + 1 == kSetupRepetitions) measured.emplace(std::move(loaded));
  }
  const ServeRun run = serve(*measured, attribute, preloaded, seeds,
                             {.seconds = options.seconds}, report);
  report.check(check_digest("serve: the first 4 windows on a second system",
                            replay_digest, run.replay_digest));
  report.attempted = run.completions;
  report.failed = run.failures;
  report.provenance("run_digest", std::to_string(run.prefix_digest));
  report.provenance("windows_timed", std::to_string(run.pump_seconds.size()));

  const double ops_per_s =
      static_cast<double>(run.timed_served) / run.timed_seconds;
  const Quantile p50 = median(run.latencies);
  const Quantile p90 = tail(run.latencies);
  const std::string samples =
      std::to_string(run.latencies.size()) + " window samples";
  report.detail("serve_ops_per_s", ops_per_s, "ops/s");
  report.detail("serve_latency_p50_ms", p50.value * 1e3, "ms", samples);
  report.detail("serve_latency_p90_ms", p90.value * 1e3, "ms",
                "nearest-rank p" + std::to_string(p90.percentile * 100.0) +
                    ", " + samples);
  report.detail("msgs_per_op_mean",
                static_cast<double>(run.prefix_messages) /
                    static_cast<double>(run.prefix_ops),
                "msgs/op", "first 40 windows");
  report.detail("failed_frac",
                static_cast<double>(run.prefix_failed) /
                    static_cast<double>(run.prefix_ops),
                "ratio", "first 40 windows");
  report.detail("over_budget_requests",
                static_cast<double>(run.prefix_deadline_misses), "count",
                "first 40 windows, simulated timeout wait > 2.0 s");

  report.metric("setup_s", median(setups).value, "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  report.metric("ops_per_s", ops_per_s, "ops/s");
  // A few far walks (a retrieve or k=4 search for a rare term) move the
  // plain mean by 2x between seeds; the median window holds.
  report.metric("msgs_per_op", median(run.window_msgs_per_op).value,
                "msgs/op");
}

}  // namespace perfbench
