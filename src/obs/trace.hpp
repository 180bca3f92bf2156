#pragma once

/// \file trace.hpp
/// Span/event tracing for the message path.
///
/// Every core operation (publish, retrieve, locate, similarity search,
/// range publish/search, withdraw, subscribe, depart) opens one **span**;
/// each overlay hop, neighbor-walk step, overflow-chain leg, retry,
/// backoff, timeout, reroute, and fault-hook verdict appends one typed
/// **event** carrying a logical timestamp, the endpoints, and the key of
/// the leg being serviced.
///
/// Determinism contract (DESIGN.md §8): events are recorded into a
/// per-op SpanRecorder that lives inside the op's private OpTrace buffer;
/// logical timestamps count events *within that span*, so no cross-op
/// ordering leaks into the record. Finished spans are appended to the
/// shared TraceLog only by record_* on the coordinating thread, in
/// op-index (commit) order — the same discipline the batch engine uses
/// for metrics — so a dump is bit-identical at any worker count.
///
/// Tracing is off by default: when no TraceLog is attached the recorder
/// stays inactive and every call degrades to one predicted branch.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "overlay/key_space.hpp"

namespace meteo::obs {

/// The operation a span describes. String forms double as the `op`
/// metric-label values (names.hpp).
enum class OpKind : std::uint8_t {
  kPublish,
  kRetrieve,
  kLocate,
  kSimilaritySearch,
  kRangePublish,
  kRangeSearch,
  kWithdraw,
  kSubscribe,
  kDepart,
};

/// What happened at one point of the message path.
enum class EventKind : std::uint8_t {
  kRouteHop,      ///< one greedy DHT hop landed; detail = hop index in leg
  kWalkHop,       ///< one neighbor-walk step landed
  kChainHop,      ///< one publish overflow-chain leg landed
  kFaultVerdict,  ///< fault hook consulted; detail = MessageFate value
  kTimeout,       ///< a timeout elapsed; cost = simulated seconds waited
  kRetry,         ///< hop retransmitted; detail = attempt number (1-based)
  kBackoff,       ///< retry backoff armed; cost = next timeout in seconds
  kReroute,       ///< hop abandoned, rerouting via an alternate finger
};

[[nodiscard]] const char* to_string(OpKind kind);
[[nodiscard]] const char* to_string(EventKind kind);

struct TraceEvent {
  EventKind kind = EventKind::kRouteHop;
  std::uint64_t ts = 0;  ///< logical timestamp: event index within the span
  overlay::NodeId from = overlay::kInvalidNode;
  overlay::NodeId to = overlay::kInvalidNode;
  overlay::Key key = 0;       ///< key of the leg being serviced
  std::uint64_t detail = 0;   ///< kind-specific (see EventKind)
  double cost = 0.0;          ///< kind-specific (see EventKind)

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) = default;
};

struct Span {
  std::uint64_t id = 0;  ///< commit order; assigned by TraceLog::append
  OpKind op = OpKind::kRetrieve;
  overlay::NodeId source = overlay::kInvalidNode;
  overlay::Key key = 0;  ///< the op's primary key (0 when keyless, e.g. depart)
  /// Epoch the op executed against (DESIGN.md §11): the epoch a sealed
  /// window's reads observed, the commit epoch for its writes. 0 for
  /// facade ops and typed engine calls.
  std::uint64_t epoch = 0;
  std::string outcome;   ///< "ok", "partial", "degraded", "blocked", "failed"
  /// Naming-strategy attribute ("range", "lsh"). Empty — and omitted by
  /// the exporters — under the default angle strategy, keeping its traces
  /// byte-identical to the pre-strategy baseline (DESIGN.md §12).
  std::string naming;
  std::vector<TraceEvent> events;
};

/// Append-only log of finished spans. Single-threaded by contract: only
/// the coordinating thread appends, in commit order.
class TraceLog {
 public:
  /// Takes ownership of the span and stamps its commit-order id.
  void append(Span span) {
    span.id = static_cast<std::uint64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] bool empty() const { return spans_.empty(); }
  void clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// Per-op event buffer. Default-constructed recorders are inactive and
/// every member call is a cheap early-out — the disabled-tracing cost the
/// hot path pays is the `active()` branch.
class SpanRecorder {
 public:
  SpanRecorder() = default;

  /// Arm the recorder for one operation. Until open() the recorder
  /// swallows everything.
  void open(OpKind op, overlay::NodeId source, overlay::Key key) {
    active_ = true;
    span_ = Span{};
    span_.op = op;
    span_.source = source;
    span_.key = key;
    leg_key_ = key;
  }

  [[nodiscard]] bool active() const { return active_; }

  /// Tag subsequent events with the key of the current leg (replica
  /// legs, chase lookups, walk targets differ from the span key).
  void set_leg_key(overlay::Key key) {
    if (active_) leg_key_ = key;
  }

  /// Stamp the span's execution epoch (EpochEngine coordinator only;
  /// facade spans keep the default 0). Call any time before finish().
  void set_epoch(std::uint64_t epoch) {
    if (active_) span_.epoch = epoch;
  }

  /// Stamp the naming-strategy attribute (non-default strategies only;
  /// see Span::naming). Call any time before finish().
  void set_naming(const char* strategy) {
    if (active_) span_.naming = strategy;
  }

  void event(EventKind kind, overlay::NodeId from, overlay::NodeId to,
             std::uint64_t detail = 0, double cost = 0.0) {
    if (!active_) return;
    TraceEvent e;
    e.kind = kind;
    e.ts = static_cast<std::uint64_t>(span_.events.size());
    e.from = from;
    e.to = to;
    e.key = leg_key_;
    e.detail = detail;
    e.cost = cost;
    span_.events.push_back(e);
  }

  /// Close the span and move it into `log` (commit point). The recorder
  /// returns to the inactive state.
  void finish(std::string outcome, TraceLog& log) {
    if (!active_) return;
    span_.outcome = std::move(outcome);
    log.append(std::move(span_));
    span_ = Span{};
    active_ = false;
  }

  /// Drop a span without committing it (op abandoned before recording).
  void abandon() {
    span_ = Span{};
    active_ = false;
  }

 private:
  bool active_ = false;
  overlay::Key leg_key_ = 0;
  Span span_;
};

}  // namespace meteo::obs
