#pragma once

/// \file fault_hook.hpp
/// The message-level fault injection point of the overlay.
///
/// Every point-to-point message the overlay sends (routing hops, neighbor
/// walk steps, replica legs) passes through Overlay::deliver(), which
/// consults an optional FaultHook to decide the message's fate. The hook
/// is the seam between the overlay (which knows how to retry, back off,
/// and reroute) and the simulation layer (which knows *which* messages a
/// scenario drops, delays, or duplicates — see sim::FaultPlan).
///
/// The hook also models unresponsive processes: is_stalled() marks nodes
/// that silently ignore traffic (a crash the rest of the overlay has not
/// yet observed). Crashes scheduled inside the hook are surfaced through
/// take_due_crashes() so the owning system can apply them to the overlay
/// membership at a safe operation boundary instead of mid-route.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "overlay/key_space.hpp"

namespace meteo::overlay {

/// What happens to one transmission of one message.
enum class MessageFate {
  kDeliver,    ///< arrives normally
  kDrop,       ///< lost; the sender times out
  kDelay,      ///< arrives, but only after the sender's timeout fires
  kDuplicate,  ///< arrives twice (one extra transmission on the wire)
};

/// Identifies one transmission for the hook's decision.
struct MessageContext {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// 0 on the first transmission, k on the k-th retry of the same hop.
  std::size_t attempt = 0;
};

/// Cost accounting for the fault handling of one logical operation:
/// retries, timeouts and reroutes accumulated across its messages.
struct HopStats {
  /// Transmissions on the wire, including retries and duplicate copies.
  std::size_t messages = 0;
  std::size_t retries = 0;   ///< retransmissions after a timeout
  std::size_t timeouts = 0;  ///< timer expirations waited out
  std::size_t reroutes = 0;  ///< alternate pointers tried after repeated loss
  /// Virtual time spent waiting on timeouts (exponential backoff units).
  double timeout_cost = 0.0;

  HopStats& operator+=(const HopStats& o) noexcept {
    messages += o.messages;
    retries += o.retries;
    timeouts += o.timeouts;
    reroutes += o.reroutes;
    timeout_cost += o.timeout_cost;
    return *this;
  }

  [[nodiscard]] bool any_faults() const noexcept {
    return retries != 0 || timeouts != 0 || reroutes != 0;
  }
};

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Decides the fate of one transmission. Called once per transmission,
  /// retries included, in deterministic order.
  virtual MessageFate on_message(const MessageContext& context) = 0;

  /// True when `node` is unresponsive (stalled or crashed-but-unobserved):
  /// every message to it behaves as dropped, whatever on_message said.
  [[nodiscard]] virtual bool is_stalled(NodeId node) const = 0;

  /// Drains crash events that became due; the caller applies them to the
  /// overlay membership (Overlay::fail) at an operation boundary. Each
  /// scheduled crash is returned exactly once.
  virtual std::vector<NodeId> take_due_crashes() { return {}; }

  // --- parallel execution (DESIGN.md §11) ------------------------------------
  /// A hook that supports per-operation fate scopes lets the execution
  /// engine run operations concurrently: inside a scope, fates come from
  /// a substream keyed by (scope salt, in-scope message index) on the
  /// calling thread instead of any hook-global counter, so an operation's
  /// fates are independent of how workers interleave. Hooks that return
  /// false are driven single-threaded by the engine instead.
  [[nodiscard]] virtual bool supports_op_scopes() const { return false; }

  /// Enters a per-operation fate scope on the calling thread; `salt`
  /// selects the substream.
  virtual void begin_op_scope(std::uint64_t salt) { (void)salt; }

  /// Leaves the scope, folding its tallies into the hook's totals.
  virtual void end_op_scope() {}
};

}  // namespace meteo::overlay
