#include "sim/fault_plan.hpp"

#include <algorithm>

namespace meteo::sim {

// meteo-lint: scoped(definition of the per-thread op-fate window declared in fault_plan.hpp; see the charter note there)
thread_local FaultPlan::OpScope FaultPlan::scope_;

FaultPlan::FaultPlan(FaultPlanConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  METEO_EXPECTS(config_.drop_rate >= 0.0 && config_.drop_rate <= 1.0);
  METEO_EXPECTS(config_.delay_rate >= 0.0 && config_.delay_rate <= 1.0);
  METEO_EXPECTS(config_.duplicate_rate >= 0.0 &&
                config_.duplicate_rate <= 1.0);
  METEO_EXPECTS(config_.drop_rate + config_.delay_rate +
                    config_.duplicate_rate <=
                1.0);
}

void FaultPlan::add_event(NodeEvent event) {
  METEO_EXPECTS(event.at >= messages_seen());
  // Keep the schedule sorted by trigger count; equal triggers fire in
  // insertion order (stable upper_bound insert).
  const auto it = std::upper_bound(
      schedule_.begin() + static_cast<std::ptrdiff_t>(next_event_),
      schedule_.end(), event.at,
      [](std::size_t at, const NodeEvent& e) { return at < e.at; });
  schedule_.insert(it, event);
}

void FaultPlan::crash_at(std::size_t at_message, overlay::NodeId node) {
  add_event(NodeEvent{at_message, node, NodeEvent::Kind::kCrash});
}

void FaultPlan::stall_at(std::size_t at_message, overlay::NodeId node) {
  add_event(NodeEvent{at_message, node, NodeEvent::Kind::kStall});
}

void FaultPlan::resume_at(std::size_t at_message, overlay::NodeId node) {
  add_event(NodeEvent{at_message, node, NodeEvent::Kind::kResume});
}

void FaultPlan::fire_due_events() {
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].at <= messages_seen()) {
    const NodeEvent& e = schedule_[next_event_];
    switch (e.kind) {
      case NodeEvent::Kind::kCrash:
        due_crashes_.push_back(e.node);
        [[fallthrough]];  // a crashed node also stops answering
      case NodeEvent::Kind::kStall:
        if (std::find(stalled_.begin(), stalled_.end(), e.node) ==
            stalled_.end()) {
          stalled_.push_back(e.node);
        }
        break;
      case NodeEvent::Kind::kResume:
        stalled_.erase(std::remove(stalled_.begin(), stalled_.end(), e.node),
                       stalled_.end());
        break;
    }
    ++next_event_;
  }
}

overlay::MessageFate FaultPlan::decide(std::uint64_t index) const {
  // Stateless hash of (seed, index): decorrelated across indices, and the
  // whole fate sequence is fixed by the seed alone.
  const std::uint64_t h = splitmix64(seed_ ^ splitmix64(index));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < config_.drop_rate) return overlay::MessageFate::kDrop;
  if (u < config_.drop_rate + config_.delay_rate) {
    return overlay::MessageFate::kDelay;
  }
  if (u < config_.drop_rate + config_.delay_rate + config_.duplicate_rate) {
    return overlay::MessageFate::kDuplicate;
  }
  return overlay::MessageFate::kDeliver;
}

overlay::MessageFate FaultPlan::on_message(
    const overlay::MessageContext& ctx) {
  (void)ctx;  // fate depends only on the transmission index
  if (scope_.active) {
    // Scoped mode: fates come from the (salt, in-scope index) substream,
    // tallies stay thread-private until end_op_scope. Scheduled events do
    // not fire here — the engine applies them at window boundaries.
    const overlay::MessageFate fate =
        decide(splitmix64(scope_.salt) + scope_.index);
    ++scope_.index;
    ++scope_.messages;
    switch (fate) {
      case overlay::MessageFate::kDrop:
        ++scope_.dropped;
        break;
      case overlay::MessageFate::kDelay:
        ++scope_.delayed;
        break;
      case overlay::MessageFate::kDuplicate:
        ++scope_.duplicated;
        break;
      case overlay::MessageFate::kDeliver:
        break;
    }
    return fate;
  }
  fire_due_events();
  const overlay::MessageFate fate = decide(messages_.load(
      // meteo-lint: relaxed(unscoped path is single-threaded; engine workers use OpScope)
      std::memory_order_relaxed));
  // meteo-lint: relaxed(metric total; read after join/commit barrier)
  messages_.fetch_add(1, std::memory_order_relaxed);
  switch (fate) {
    case overlay::MessageFate::kDrop:
      // meteo-lint: relaxed(metric total; read after join/commit barrier)
      dropped_.fetch_add(1, std::memory_order_relaxed);
      break;
    case overlay::MessageFate::kDelay:
      // meteo-lint: relaxed(metric total; read after join/commit barrier)
      delayed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case overlay::MessageFate::kDuplicate:
      // meteo-lint: relaxed(metric total; read after join/commit barrier)
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      break;
    case overlay::MessageFate::kDeliver:
      break;
  }
  return fate;
}

void FaultPlan::begin_op_scope(std::uint64_t salt) {
  scope_ = OpScope{};
  scope_.active = true;
  scope_.salt = salt;
}

void FaultPlan::end_op_scope() {
  // meteo-lint: relaxed(metric total; read after join/commit barrier)
  messages_.fetch_add(scope_.messages, std::memory_order_relaxed);
  // meteo-lint: relaxed(metric total; read after join/commit barrier)
  dropped_.fetch_add(scope_.dropped, std::memory_order_relaxed);
  // meteo-lint: relaxed(metric total; read after join/commit barrier)
  delayed_.fetch_add(scope_.delayed, std::memory_order_relaxed);
  // meteo-lint: relaxed(metric total; read after join/commit barrier)
  duplicated_.fetch_add(scope_.duplicated, std::memory_order_relaxed);
  scope_ = OpScope{};
}

bool FaultPlan::is_stalled(overlay::NodeId node) const {
  return std::find(stalled_.begin(), stalled_.end(), node) != stalled_.end();
}

std::vector<overlay::NodeId> FaultPlan::take_due_crashes() {
  fire_due_events();
  std::vector<overlay::NodeId> out;
  out.swap(due_crashes_);
  return out;
}

}  // namespace meteo::sim
