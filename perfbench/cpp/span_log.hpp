#pragma once

/// \file span_log.hpp
/// The traced run's span recorder. The benchmark opens a span around every
/// call it makes into a library layer (and one root span per unit of
/// workload work); spans stay in memory and are written out when the run
/// ends. A span's self time is its duration minus the time its direct
/// children cover. All spans are opened from the benchmark's main thread, so
/// children nest strictly inside their parent.
///
///   SpanLog log;
///   log.set_enabled(true);
///   {
///     auto unit = log.open("bench.unit", op);
///     auto call = log.open("server.pump", op);  // child of bench.unit
///   }

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";   ///< static string: the layer call
    std::int64_t start_ns = 0;  ///< since the log was created
    std::int64_t end_ns = -1;   ///< -1 while open
    std::int32_t parent = -1;   ///< index into spans(), -1 for a root
    std::int64_t op = -1;       ///< workload op / unit index, -1 if none
    std::uint64_t calls = 1;    ///< layer calls the span covers

    [[nodiscard]] double seconds() const noexcept {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  /// Closes its span on destruction (a no-op when the log was disabled at
  /// open time).
  class Scope {
   public:
    Scope(SpanLog* log, std::int32_t index) : log_(log), index_(index) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept : log_(other.log_), index_(other.index_) {
      other.log_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;

    /// Sets how many layer calls the span covers (per-call time =
    /// duration / calls).
    void set_calls(std::uint64_t calls);
    void close();

   private:
    SpanLog* log_;
    std::int32_t index_;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Spans are recorded only while enabled.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] Scope open(const char* name, std::int64_t op = -1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Durations in seconds of every closed span named `name`, per call
  /// (duration / calls).
  [[nodiscard]] std::vector<double> per_call_seconds(
      const std::string& name) const;
  /// Total duration in seconds of the closed spans named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// Sum of calls over the closed spans named `name`.
  [[nodiscard]] std::uint64_t total_calls(const std::string& name) const;

  /// Self time of every closed span: duration minus its direct children.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Share of the time of root spans named `root` that no child span
  /// covers: time the benchmark's own loop spent outside every layer call.
  [[nodiscard]] double unattributed_fraction(const std::string& root) const;

  /// Writes every span as JSON ({"spans": [...]}, times in ns); false on
  /// I/O failure.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;  ///< innermost open span
  bool enabled_ = false;
};

}  // namespace perfbench
