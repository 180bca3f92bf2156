#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/rng.hpp"

namespace perfbench {

Seeds Seeds::from(std::uint64_t seed) {
  using meteo::splitmix64;
  return Seeds{.corpus = kCorpusSeed,
               .engine = splitmix64(seed ^ 0x656e67696e65ULL),
               .faults = splitmix64(seed ^ 0xfa),
               .inputs = splitmix64(seed ^ 0x696e70757473ULL),
               .probe = splitmix64(seed ^ 0x70726f6265ULL)};
}

Loaded set_up(const Seeds& seeds, const Preload& preload) {
  bench::ExperimentFlags flags;
  flags.items = kItems;
  flags.keywords = kKeywords;
  flags.nodes = kNodes;
  flags.seed = seeds.corpus;

  Clock::time_point t0 = Clock::now();
  bench::Workload wl = bench::build_workload(flags);
  const double workload_s = seconds_since(t0);

  Loaded out{std::move(wl), std::nullopt, {}, 0};
  out.timing.workload_s = workload_s;
  t0 = Clock::now();
  out.sys.emplace(bench::build_system(
      flags, out.wl, core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions,
      kNodes, kCapacityFactor, /*replicas=*/1, kMaxRetries));
  out.timing.build_s = seconds_since(t0);
  t0 = Clock::now();
  out.preload_failures = preload(*out.sys, out.wl);
  out.timing.preload_s = seconds_since(t0);
  return out;
}

Check check_preload(const Loaded& loaded) {
  if (loaded.preload_failures == 0) return std::nullopt;
  return Violation{"setup.preload",
                   std::to_string(loaded.preload_failures) +
                       " preload publishes failed"};
}

// --- the report --------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision: a measured value keeps all its digits.
std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

Report::Report(const Options& options) : options_(options) {
  std::string argv;
  for (const std::string& a : options.argv) {
    argv += (argv.empty() ? "" : " ") + a;
  }
  provenance("argv", argv);
  provenance("workload", options.workload);
  provenance("seed", std::to_string(options.seed));
  provenance("seconds", json_number(options.seconds));
  provenance("trace", options.trace ? "1" : "0");
  provenance("commit", options.commit);
  provenance("source_digest", options.source_digest);
  provenance("build_type", PERFBENCH_BUILD_TYPE);
  provenance("compiler", std::string("g++/clang ") + __VERSION__);
  provenance("cpu_model", cpu_model());
  provenance("nproc", std::to_string(std::thread::hardware_concurrency()));
  provenance("workers", std::to_string(kWorkers));
  provenance("setup_repetitions",
             std::to_string(options.trace ? 1 : kSetupRepetitions));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, ""});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  details_.push_back({name, value, unit, note});
}

void Report::provenance(const std::string& key, const std::string& value) {
  provenance_.emplace_back(key, value);
}

void Report::check(const Check& c) {
  if (!c) return;
  std::printf("CHECK FAILED %s: %s\n", c->check.c_str(), c->detail.c_str());
  std::fflush(stdout);
  violations_.push_back(*c);
}

bool Report::finish() const {
  for (const auto& [key, value] : provenance_) {
    std::printf("config  %-18s %s\n", key.c_str(), value.c_str());
  }
  for (const Value& d : details_) {
    std::printf("detail  %-34s %14.6g %s%s%s\n", d.name.c_str(), d.value,
                d.unit.c_str(), d.note.empty() ? "" : "  # ",
                d.note.c_str());
  }
  for (const Value& m : metrics_) {
    std::printf("metric  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("ops     attempted %llu, failed %llu; checks %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct() ? "passed" : "FAILED");
  std::fflush(stdout);

  std::ostringstream out;
  out << "{\n  \"correct\": " << (correct() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"config\": {";
  for (std::size_t i = 0; i < provenance_.size(); ++i) {
    out << (i ? ", " : "") << json_string(provenance_[i].first) << ": "
        << json_string(provenance_[i].second);
  }
  const auto values = [&out](const char* key, const std::vector<Value>& vs) {
    out << "},\n  \"" << key << "\": {";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out << (i ? ",\n    " : "\n    ") << json_string(vs[i].name)
          << ": {\"value\": " << json_number(vs[i].value)
          << ", \"unit\": " << json_string(vs[i].unit);
      if (!vs[i].note.empty()) out << ", \"note\": " << json_string(vs[i].note);
      out << "}";
    }
  };
  values("metrics", metrics_);
  values("details", details_);
  out << "},\n  \"violations\": [";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    out << (i ? ", " : "") << "{\"check\": "
        << json_string(violations_[i].check)
        << ", \"detail\": " << json_string(violations_[i].detail) << "}";
  }
  out << "]\n}\n";

  if (options_.report_path.empty()) return true;
  std::ofstream file(options_.report_path, std::ios::trunc);
  file << out.str();
  return static_cast<bool>(file);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- shared per-layer metrics ------------------------------------------------

void record_common_layers(const SetupTiming& setup, const SpanLog& spans,
                          double trace_overhead, Report& report) {
  report.metric("workload.build_s", setup.workload_s, "s");
  report.metric("meteorograph.build_s", setup.build_s, "s");
  report.metric("meteorograph.preload_s", setup.preload_s, "s");
  report.metric("obs.trace_overhead_frac", trace_overhead, "ratio");
  report.metric("obs.unattributed_frac",
                spans.unattributed_fraction("bench.unit"), "ratio");
}

namespace {

/// Units of the per-layer metrics record_unexercised may zero.
const char* layer_unit(const std::string& name) {
  if (name.ends_with("_ms_p50") || name.ends_with("_ms_p90")) return "ms";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_eff") || name.ends_with("_frac")) return "ratio";
  if (name == "server.queue_depth") return "requests";
  return "count";
}

}  // namespace

void record_unexercised(std::initializer_list<const char*> names,
                        Report& report) {
  for (const char* name : names) report.metric(name, 0.0, layer_unit(name));
}

std::vector<vsm::KeywordId> search_keywords(const bench::Workload& wl,
                                            std::size_t count) {
  return bench::popular_keywords(wl.trace, count, kNodes);
}

void OverheadPairs::add(bool traced, double seconds) {
  if (!traced) {
    pending_ = seconds;
    return;
  }
  if (!pending_) return;
  if (!warm_) {  // the first pair runs on cold caches
    warm_ = true;
    pending_.reset();
    return;
  }
  untraced_ += *pending_;
  traced_ += seconds;
  pending_.reset();
}

double OverheadPairs::overhead() const {
  return untraced_ > 0.0 ? traced_ / untraced_ - 1.0 : 0.0;
}

FaultTotals FaultTotals::of(const core::Meteorograph& sys) {
  const meteo::obs::MetricRegistry& m = sys.metrics();
  return {m.counter_total("fault.retries"), m.counter_total("fault.timeouts"),
          m.counter_total("fault.reroutes")};
}

void record_fault_layers(const FaultTotals& before, const FaultTotals& after,
                         std::uint64_t ops, Report& report) {
  const auto per_op = [ops](std::uint64_t a, std::uint64_t b) {
    return ops == 0 ? 0.0
                    : static_cast<double>(b - a) / static_cast<double>(ops);
  };
  report.metric("sim.retries_per_op", per_op(before.retries, after.retries),
                "count/op");
  report.metric("sim.timeouts_per_op",
                per_op(before.timeouts, after.timeouts), "count/op");
  report.metric("sim.reroutes_per_op",
                per_op(before.reroutes, after.reroutes), "count/op");
}

}  // namespace perfbench
