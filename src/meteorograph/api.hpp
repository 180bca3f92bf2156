#pragma once

/// \file api.hpp
/// The cross-cutting operation API vocabulary: the OpCost/Degradation
/// result bases every op result inherits and the per-operation options
/// structs (built for designated initializers). The facade header
/// (meteorograph.hpp) documents the facade; this header is what op result
/// structs, the epoch engine, and benches actually share.

#include <cstddef>
#include <optional>

#include "overlay/key_space.hpp"

namespace meteo::core {

/// Shared hop/message accounting, inherited by every operation result.
/// `route_hops` counts greedy-routing messages ("Closest" series of
/// Fig. 9); `walk_hops` counts neighbor-walk steps ("Neighbors" series).
/// Results with extra traffic classes (PublishResult, SearchResult)
/// shadow total_messages() with their richer sum.
struct OpCost {
  std::size_t route_hops = 0;
  std::size_t walk_hops = 0;
  [[nodiscard]] std::size_t total_hops() const noexcept {
    return route_hops + walk_hops;
  }
  [[nodiscard]] std::size_t total_messages() const noexcept {
    return route_hops + walk_hops;
  }
};

/// Shared fault-degradation flags, inherited by every operation result.
/// All three stay false on perfect links; which flag an operation sets is
/// documented per result struct.
struct Degradation {
  /// Message loss cut the operation short; the result may be incomplete.
  bool partial = false;
  /// The operation finished but some side effect was lost (e.g. a publish
  /// whose replica or pointer placement legs never arrived).
  bool degraded = false;
  /// Message loss ended the search before the target was ruled out; a
  /// negative answer may be a false negative.
  bool fault_blocked = false;
};

/// The `outcome` metric-label value for a result's degradation flags:
/// "blocked", "partial", "degraded", or "ok" (docs/OBSERVABILITY.md).
[[nodiscard]] const char* outcome_label(const Degradation& d) noexcept;

// --- per-operation options ---------------------------------------------------
// Built for designated initializers: sys.locate(id, v, {.walk_limit = 16}).
// An unset `from` defaults to a uniformly random alive node; a pinned one
// draws nothing from the rng.

struct PublishOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
};

struct RetrieveOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
};

struct WithdrawOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
};

struct LocateOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
  std::size_t walk_limit = 0;  ///< 0 = config default (whole ring)
};

struct SearchOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
};

struct RangeSearchOptions {
  std::optional<overlay::NodeId> from = std::nullopt;
};

struct SubscribeOptions {
  std::size_t horizon = 8;  ///< consecutive directory nodes to plant on
};

}  // namespace meteo::core
