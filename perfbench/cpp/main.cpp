/// perfbench: runs one workload of the repository benchmark and writes its
/// report. Normally started by perfbench/run.py, which builds it, adds
/// the source provenance and prints the one-line result.
///
///   perfbench --workload serve|read|ingest --seed N --seconds S
///             --trace 0|1 [--report PATH] [--spans PATH]
///             [--commit SHA] [--source-digest HEX]
///
/// Exit status: 0 when every check passed, 3 when a check failed (the
/// report still lists the metrics and names the failed checks), 2 on a
/// usage error, 1 when the report cannot be written.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|read|ingest "
               "--seed N --seconds S --trace 0|1 [--report PATH] "
               "[--spans PATH] [--commit SHA] [--source-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 0; i < argc; ++i) options.argv.emplace_back(argv[i]);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--report") {
      options.report_path = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report(options);
  if (options.workload == "serve") {
    perfbench::run_serve(options, report);
  } else if (options.workload == "read") {
    perfbench::run_read(options, report);
  } else if (options.workload == "ingest") {
    perfbench::run_ingest(options, report);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!report.finish()) return 1;
  return report.correct() ? 0 : 3;
}
