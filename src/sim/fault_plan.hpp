#pragma once

/// \file fault_plan.hpp
/// Deterministic, replayable message-fault scenarios.
///
/// A FaultPlan implements the overlay's FaultHook: it decides, per
/// transmission, whether the message is delivered, dropped, delayed past
/// the sender's timeout, or duplicated, and it can make nodes crash or
/// stall (stop answering) when the plan's global message counter reaches a
/// chosen value.
///
/// Determinism and replay: the fate of transmission #i is a pure function
/// of (seed, i) — a splitmix64 hash, not a shared RNG stream — so a run is
/// byte-for-byte reproducible from the seed regardless of how decisions
/// interleave with other random draws, and a failing scenario replays
/// exactly from (seed, config, schedule). With all rates zero and an empty
/// schedule the plan is a no-op: behaviour is identical to running without
/// a hook.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "overlay/fault_hook.hpp"

namespace meteo::sim {

struct FaultPlanConfig {
  /// Probability a transmission is lost (sender times out). [0, 1]
  double drop_rate = 0.0;
  /// Probability a transmission arrives after the sender's timeout fired.
  double delay_rate = 0.0;
  /// Probability a transmission is duplicated on the wire.
  double duplicate_rate = 0.0;
};

class FaultPlan final : public overlay::FaultHook {
 public:
  /// \pre all rates in [0, 1] and their sum <= 1
  explicit FaultPlan(FaultPlanConfig config = {}, std::uint64_t seed = 0);

  // --- scheduled node faults (by global message count) ----------------------
  /// Crashes `node` once `at_message` transmissions have been observed: it
  /// stops answering immediately, and the crash is surfaced through
  /// take_due_crashes() for the owner to apply to the overlay membership.
  /// \pre at_message >= messages_seen()
  void crash_at(std::size_t at_message, overlay::NodeId node);

  /// Like crash_at, but transient: the node ignores traffic until a
  /// matching resume_at fires. \pre at_message >= messages_seen()
  void stall_at(std::size_t at_message, overlay::NodeId node);

  /// Ends a stall scheduled with stall_at. \pre at_message >= messages_seen()
  void resume_at(std::size_t at_message, overlay::NodeId node);

  // --- FaultHook -------------------------------------------------------------
  overlay::MessageFate on_message(const overlay::MessageContext& ctx) override;
  [[nodiscard]] bool is_stalled(overlay::NodeId node) const override;
  std::vector<overlay::NodeId> take_due_crashes() override;

  // --- parallel execution (per-operation fate scopes) ------------------------
  /// Inside a scope, fates come from the (seed, salt, in-scope index)
  /// substream on the calling thread; totals fold in at end_op_scope so
  /// they are order-independent sums. Scheduled node events do NOT fire
  /// mid-scope — the engine applies them at window boundaries via
  /// take_due_crashes().
  [[nodiscard]] bool supports_op_scopes() const override { return true; }
  void begin_op_scope(std::uint64_t salt) override;
  void end_op_scope() override;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const FaultPlanConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t messages_seen() const noexcept {
    // meteo-lint: relaxed(metric total; read after join/commit barrier)
    return messages_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t dropped() const noexcept {
    // meteo-lint: relaxed(metric total; read after join/commit barrier)
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t delayed() const noexcept {
    // meteo-lint: relaxed(metric total; read after join/commit barrier)
    return delayed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t duplicated() const noexcept {
    // meteo-lint: relaxed(metric total; read after join/commit barrier)
    return duplicated_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeEvent {
    enum class Kind { kCrash, kStall, kResume };
    std::size_t at;
    overlay::NodeId node;
    Kind kind;
  };

  /// Per-thread scope state while the engine drives this plan. One
  /// thread works one operation at a time, so a single slot suffices; the
  /// tallies are private to the thread until end_op_scope folds them into
  /// the atomic totals.
  struct OpScope {
    bool active = false;
    std::uint64_t salt = 0;
    std::uint64_t index = 0;
    std::size_t messages = 0;
    std::size_t dropped = 0;
    std::size_t delayed = 0;
    std::size_t duplicated = 0;
  };

  /// Pure fate of transmission `index` under this seed.
  [[nodiscard]] overlay::MessageFate decide(std::uint64_t index) const;
  /// Applies every scheduled event with at <= messages_seen().
  void fire_due_events();
  void add_event(NodeEvent event);

  // meteo-lint: scoped(per-thread op-fate window; one thread drives one op at a time, tallies fold into order-independent atomic sums at end_op_scope — fates stay pure functions of seed, salt and index)
  static thread_local OpScope scope_;

  FaultPlanConfig config_;
  std::uint64_t seed_;
  std::atomic<std::size_t> messages_ = 0;
  std::vector<NodeEvent> schedule_;  // sorted by `at`, stable
  std::size_t next_event_ = 0;
  std::vector<overlay::NodeId> stalled_;
  std::vector<overlay::NodeId> due_crashes_;
  std::atomic<std::size_t> dropped_ = 0;
  std::atomic<std::size_t> delayed_ = 0;
  std::atomic<std::size_t> duplicated_ = 0;
};

}  // namespace meteo::sim
