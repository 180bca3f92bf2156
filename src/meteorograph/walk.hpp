#pragma once

/// \file walk.hpp
/// The closest-neighbor walk shared by retrieval, item location, and the
/// directory-space scan: starting from a node, expand outward along the
/// linear node order, always advancing the frontier whose next node is
/// closer to the target key. Each advance is one overlay hop (and one
/// message, sent through the overlay's fault-aware deliver()). The walk
/// traverses live overlay membership and reads live stores: it walks
/// whatever neighbors are alive when the op runs, and a sealed window
/// runs every read before its first write (DESIGN.md §11), so neither
/// changes under a read. It observes only *live* leaf pointers, so after
/// unrepaired failures it stops at the first dead neighbor on a side —
/// exactly the reachability loss the paper's §4.3 measures. Under message
/// faults a side whose next neighbor exhausted its retries is likewise
/// closed (faulted() reports it, so callers can flag the operation's
/// result as partial).
///
/// The walk itself performs no heap allocation — all state is a handful
/// of scalars — which is what keeps the warm read path allocation-free
/// end to end (DESIGN.md §9, tests/meteorograph/read_path_alloc_test.cpp).

#include "overlay/overlay.hpp"

namespace meteo::core {

class NeighborWalk {
 public:
  /// `rec` (optional) receives one kWalkHop event per advance plus the
  /// per-message fault events from deliver().
  NeighborWalk(const overlay::Overlay& net, overlay::NodeId start,
               overlay::Key target, obs::SpanRecorder* rec = nullptr)
      : net_(net),
        rec_(rec),
        target_(target),
        current_(start),
        low_(start),
        high_(start) {}

  [[nodiscard]] overlay::NodeId current() const noexcept { return current_; }
  [[nodiscard]] std::size_t hops() const noexcept { return hops_; }
  /// Retry/timeout accounting for the walk's messages so far.
  [[nodiscard]] const overlay::HopStats& stats() const noexcept {
    return stats_;
  }
  /// True when message loss closed at least one direction: nodes past the
  /// unreachable neighbor were never consulted, so results may be partial.
  [[nodiscard]] bool faulted() const noexcept { return faulted_; }

  /// Moves to the nearest unvisited neighbor (one hop); false when both
  /// directions are exhausted (space edge, dead neighbor, or a neighbor
  /// unreachable through message loss).
  bool advance() {
    while (true) {
      const overlay::NodeId down =
          low_blocked_ ? overlay::kInvalidNode : net_.predecessor(low_);
      const overlay::NodeId up =
          high_blocked_ ? overlay::kInvalidNode : net_.successor(high_);
      if (down == overlay::kInvalidNode && up == overlay::kInvalidNode) {
        return false;
      }
      bool take_down;
      if (down != overlay::kInvalidNode && up != overlay::kInvalidNode) {
        take_down = overlay::strictly_closer(net_.key_of(down),
                                             net_.key_of(up), target_);
      } else {
        take_down = down != overlay::kInvalidNode;
      }
      const overlay::NodeId next = take_down ? down : up;
      if (!net_.deliver(current_, next, stats_, rec_)) {
        // Lost past recovery: the linear walk cannot step over the silent
        // neighbor, so this direction is done; try the other one.
        faulted_ = true;
        (take_down ? low_blocked_ : high_blocked_) = true;
        continue;
      }
      if (rec_ != nullptr) {
        rec_->event(obs::EventKind::kWalkHop, current_, next, hops_);
      }
      if (take_down) {
        low_ = next;
      } else {
        high_ = next;
      }
      current_ = next;
      ++hops_;
      return true;
    }
  }

 private:
  const overlay::Overlay& net_;
  obs::SpanRecorder* rec_ = nullptr;
  overlay::Key target_;
  overlay::NodeId current_;
  overlay::NodeId low_;   // lowest-key node visited
  overlay::NodeId high_;  // highest-key node visited
  bool low_blocked_ = false;
  bool high_blocked_ = false;
  bool faulted_ = false;
  std::size_t hops_ = 0;
  overlay::HopStats stats_;
};

}  // namespace meteo::core
