/// The `read` workload: fault-free, read-only BatchEngine batches at 4
/// workers over the fully loaded system. One round is a locate batch
/// (uniform corpus items), a retrieve batch (top 10 for corpus vectors)
/// and a search batch (single keywords from the 256 most popular with
/// df <= N; half discover-all, half k = 16). Every round repeats the
/// same inputs, so every round must reproduce the first one's digest.

#include <unordered_map>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLocates = 20'000;
constexpr std::size_t kRetrieves = 2'048;
constexpr std::size_t kSearches = 256;
constexpr std::size_t kRetrieveAmount = 10;
constexpr std::size_t kSearchK = 16;
constexpr std::size_t kSearchKeywords = 256;
constexpr std::size_t kMinRounds = 3;

struct Inputs {
  std::vector<core::LocateOp> locates;
  std::vector<core::RetrieveOp> retrieves;
  std::vector<core::SearchOp> searches;
  std::vector<vsm::KeywordId> keywords;  ///< backs the SearchOp spans
  /// Brute force over the generated corpus: the items holding each
  /// searched keyword, ascending.
  std::unordered_map<vsm::KeywordId, std::vector<vsm::ItemId>> expected;
};

Inputs make_inputs(const bench::Workload& wl, const Seeds& seeds) {
  Inputs in;
  meteo::Rng rng(seeds.inputs);
  const std::size_t items = wl.vectors.size();
  for (std::size_t i = 0; i < kLocates; ++i) {
    const vsm::ItemId id = rng.below(items);
    in.locates.push_back({id, &wl.vectors[id], {}});
  }
  for (std::size_t i = 0; i < kRetrieves; ++i) {
    in.retrieves.push_back(
        {&wl.vectors[rng.below(items)], kRetrieveAmount, {}});
  }
  const std::vector<vsm::KeywordId> pool = search_keywords(wl, kSearchKeywords);
  in.keywords.reserve(kSearches);  // the spans below point into it
  for (std::size_t i = 0; i < kSearches; ++i) {
    in.keywords.push_back(pool[rng.below(pool.size())]);
    in.expected.emplace(in.keywords.back(), std::vector<vsm::ItemId>{});
    in.searches.push_back(
        {{&in.keywords.back(), 1}, i % 2 == 0 ? 0 : kSearchK, {}});
  }
  for (vsm::ItemId id = 0; id < items; ++id) {
    for (const vsm::Entry& e : wl.vectors[id].entries()) {
      const auto it = in.expected.find(e.keyword);
      if (it != in.expected.end()) it->second.push_back(id);
    }
  }
  return in;
}

struct Round {
  std::vector<core::LocateResult> locates;
  std::vector<core::RetrieveResult> retrieves;
  std::vector<core::SearchResult> searches;
  double locate_s = 0.0;
  double retrieve_s = 0.0;
  double search_s = 0.0;

  [[nodiscard]] std::uint64_t digest() const {
    Digest d;
    for (const auto& r : locates) d.add(r);
    for (const auto& r : retrieves) d.add(r);
    for (const auto& r : searches) d.add(r);
    return d.value();
  }
  [[nodiscard]] std::uint64_t ops() const {
    return locates.size() + retrieves.size() + searches.size();
  }
  [[nodiscard]] std::uint64_t failures() const {
    std::uint64_t n = 0;
    for (const auto& r : locates) n += failed(r, true) ? 1U : 0U;
    for (const auto& r : retrieves) n += failed(r) ? 1U : 0U;
    for (const auto& r : searches) n += failed(r) ? 1U : 0U;
    return n;
  }
};

Round run_round(core::BatchEngine& engine, const Inputs& in, SpanLog& spans,
                std::size_t index) {
  Round round;
  auto unit = spans.open("bench.unit", static_cast<std::int64_t>(index));
  Clock::time_point t0 = Clock::now();
  {
    auto call = spans.open("batch.locate");
    round.locates = engine.locate(in.locates);
  }
  round.locate_s = seconds_since(t0);
  t0 = Clock::now();
  {
    auto call = spans.open("batch.retrieve");
    round.retrieves = engine.retrieve(in.retrieves);
  }
  round.retrieve_s = seconds_since(t0);
  t0 = Clock::now();
  {
    auto call = spans.open("batch.search");
    round.searches = engine.similarity_search(in.searches);
  }
  round.search_s = seconds_since(t0);
  return round;
}

/// The read checks on one round's results (see perfbench/README.md).
void check_round(const Round& round, const Inputs& in, Report& report) {
  for (std::size_t i = 0; i < round.locates.size(); ++i) {
    report.check(check_located(round.locates[i], in.locates[i].item));
  }
  for (const core::RetrieveResult& r : round.retrieves) {
    report.check(check_descending(r));
  }
  for (std::size_t i = 0; i < round.searches.size(); ++i) {
    const core::SearchOp& op = in.searches[i];
    const std::vector<vsm::ItemId>& expected =
        in.expected.at(op.keywords.front());
    report.check(op.k == 0 ? check_discover_all(round.searches[i].items,
                                                expected)
                           : check_top_k_subset(round.searches[i].items,
                                                expected, op.k));
  }
}

std::size_t preload_all(core::Meteorograph& sys, const bench::Workload& wl) {
  std::size_t failures = 0;
  for (vsm::ItemId id = 0; id < wl.vectors.size(); ++id) {
    failures += sys.publish(id, wl.vectors[id]).success ? 0U : 1U;
  }
  return failures;
}

struct Rates {
  double locate = 0.0;
  double retrieve = 0.0;
  double search = 0.0;
  double msgs_per_op = 0.0;  ///< first round
  std::vector<double> locate_s, retrieve_s, search_s;
};

/// Rounds until `seconds` have passed (at least kMinRounds). Checks the
/// first round in full and every later one against its digest.
Rates measure(Loaded& loaded, const Inputs& in, const Seeds& seeds,
              double seconds, SpanLog* traced, std::uint64_t& first_digest,
              double& overhead, Report& report) {
  core::BatchEngine engine(*loaded.sys,
                           {.workers = kWorkers, .seed = seeds.engine});
  SpanLog unused;
  SpanLog& spans = traced != nullptr ? *traced : unused;
  OverheadPairs pairs;
  Rates rates;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kMinRounds || seconds_since(start) < seconds;
       ++i) {
    const bool trace_this = traced != nullptr && i % 2 == 1;
    spans.set_enabled(trace_this);
    const Clock::time_point unit_start = Clock::now();
    const Round round = run_round(engine, in, spans, i);
    pairs.add(trace_this, seconds_since(unit_start));
    spans.set_enabled(false);
    rates.locate_s.push_back(round.locate_s);
    rates.retrieve_s.push_back(round.retrieve_s);
    rates.search_s.push_back(round.search_s);
    report.attempted += round.ops();
    report.failed += round.failures();
    const std::uint64_t digest = round.digest();
    if (i == 0) {
      first_digest = digest;
      check_round(round, in, report);
      std::uint64_t messages_total = 0;
      std::uint64_t locate_hops = 0;
      std::uint64_t search_messages = 0;
      std::uint64_t search_items = 0;
      for (const auto& r : round.locates) {
        messages_total += messages(r);
        locate_hops += r.total_hops();
      }
      for (const auto& r : round.retrieves) messages_total += messages(r);
      for (const auto& r : round.searches) {
        messages_total += messages(r);
        search_messages += messages(r);
        search_items += r.items.size();
      }
      const auto ops = static_cast<double>(round.ops());
      report.detail("failed_frac",
                    static_cast<double>(round.failures()) / ops, "ratio",
                    "first round");
      report.detail("read_locate_hops",
                    static_cast<double>(locate_hops) /
                        static_cast<double>(round.locates.size()),
                    "hops");
      report.detail("read_search_msgs_per_item",
                    static_cast<double>(search_messages) /
                        static_cast<double>(search_items),
                    "msgs/item");
      rates.msgs_per_op = static_cast<double>(messages_total) / ops;
    } else {
      report.check(check_digest("read: a repeated round", first_digest,
                                digest));
    }
  }
  rates.locate = static_cast<double>(kLocates) / median(rates.locate_s).value;
  rates.retrieve =
      static_cast<double>(kRetrieves) / median(rates.retrieve_s).value;
  rates.search = static_cast<double>(kSearches) / median(rates.search_s).value;
  report.provenance("rounds", std::to_string(rates.locate_s.size()));
  overhead = pairs.overhead();
  return rates;
}

}  // namespace

void run_read(const Options& options, Report& report) {
  const Seeds seeds = Seeds::from(options.seed);

  if (options.trace) {
    Loaded loaded = set_up(seeds, preload_all);
    report.check(check_preload(loaded));
    const Inputs in = make_inputs(loaded.wl, seeds);
    SpanLog spans;
    std::uint64_t digest = 0;
    double overhead = 0.0;
    const Rates rates = measure(loaded, in, seeds, options.seconds, &spans,
                                digest, overhead, report);
    ProbeInputs probe;
    for (std::size_t i = 0; i < 1024; ++i) {
      probe.locate_items.push_back(in.locates[i].item);
    }
    for (std::size_t i = 0; i < 256; ++i) {
      probe.retrieve_queries.push_back(in.retrieves[i].query);
    }
    probe.searches = in.searches;  // all of them: their costs vary widely
    const FacadeCosts cost = probe_layers(loaded, probe, seeds, spans, report);
    // Isolated op time against workers x batch wall time, per kind.
    const auto eff = [](double ops, double iso, double wall) {
      return ops * iso / (static_cast<double>(kWorkers) * wall);
    };
    report.metric("batch.locate_eff",
                  eff(kLocates, cost.locate, median(rates.locate_s).value),
                  "ratio");
    report.metric(
        "batch.retrieve_eff",
        eff(kRetrieves, cost.retrieve, median(rates.retrieve_s).value),
        "ratio");
    report.metric("batch.search_eff",
                  eff(kSearches, cost.search, median(rates.search_s).value),
                  "ratio");
    record_unexercised({"batch.publish_eff"}, report);
    record_unexercised({"server.pump_ms_p50", "server.pump_ms_p90",
                        "server.submit_us", "server.queue_depth",
                        "server.deadline_misses", "epoch.engine_frac"},
                       report);
    const FaultTotals faults = FaultTotals::of(*loaded.sys);
    record_fault_layers(faults, faults, report.attempted, report);
    record_common_layers(loaded.timing, spans, overhead, report);
    if (!options.spans_path.empty()) (void)spans.write_json(options.spans_path);
    return;
  }

  std::vector<double> setups;
  std::uint64_t replay_digest = 0;
  std::optional<Loaded> measured;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    Loaded loaded = set_up(seeds, preload_all);
    report.check(check_preload(loaded));
    setups.push_back(loaded.timing.total());
    if (rep == 0) {
      const Inputs in = make_inputs(loaded.wl, seeds);
      core::BatchEngine engine(*loaded.sys,
                               {.workers = kWorkers, .seed = seeds.engine});
      SpanLog off;
      replay_digest = run_round(engine, in, off, 0).digest();
    }
    if (rep + 1 == kSetupRepetitions) measured.emplace(std::move(loaded));
  }
  const Inputs in = make_inputs(measured->wl, seeds);
  std::uint64_t digest = 0;
  double overhead = 0.0;
  const Rates rates = measure(*measured, in, seeds, options.seconds, nullptr,
                              digest, overhead, report);
  report.check(check_digest("read: the first round on a second system",
                            replay_digest, digest));
  report.provenance("run_digest", std::to_string(digest));

  report.detail("read_locate_per_s", rates.locate, "ops/s");
  report.detail("read_retrieve_per_s", rates.retrieve, "ops/s");
  report.detail("read_search_per_s", rates.search, "ops/s");


  const double per_kind[] = {rates.locate, rates.retrieve, rates.search};
  report.metric("setup_s", median(setups).value, "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  report.metric("ops_per_s", geomean(per_kind), "ops/s");
  report.metric("msgs_per_op", rates.msgs_per_op, "msgs/op");
}

}  // namespace perfbench
