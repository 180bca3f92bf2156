/// Range-search operations of the Meteorograph facade (paper §6 future
/// work): attribute registration, value publication, and [lo, hi] range
/// queries over the order-preserving attribute key slices.

#include <algorithm>

#include "common/assert.hpp"
#include "meteorograph/meteorograph.hpp"
#include "obs/profile.hpp"

namespace meteo::core {

AttributeId Meteorograph::register_attribute(double lo, double hi,
                                             AttributeScale scale) {
  return attributes_.register_attribute(lo, hi, scale);
}

RangePublishResult Meteorograph::publish_attribute(
    vsm::ItemId id, AttributeId attribute, double value,
    const PublishOptions& options) {
  begin_operation();
  const AttributeSpace& space = attributes_.space(attribute);
  const overlay::Key key = space.key_of(value);
  const overlay::NodeId source = source_node(options.from, rng_);
  obs::SpanRecorder span;
  if (tracer_ != nullptr) span.open(obs::OpKind::kRangePublish, source, key);
  const overlay::RouteResult route =
      overlay_.route(source, key, span.active() ? &span : nullptr);

  RangePublishResult result;
  result.node = route.destination;
  result.route_hops = route.hops;
  node_data_[route.destination].attributes[attribute].emplace(value, id);

  record_fault_stats(obs::OpKind::kRangePublish, route.stats);
  ++op_count(obs::OpKind::kRangePublish, "ok");
  op_messages(obs::OpKind::kRangePublish) += route.hops;
  op_route_hops(obs::OpKind::kRangePublish)
      .observe(static_cast<double>(route.hops));
  if (tracer_ != nullptr) span.finish("ok", *tracer_);
  return result;
}

RangeSearchResult Meteorograph::range_search_op(
    AttributeId attribute, double lo, double hi,
    const RangeSearchOptions& options, Rng& rng, OpTrace& trace) const {
  METEO_EXPECTS(lo <= hi);

  METEO_ZONE("op.range");
  RangeSearchResult result;
  overlay::HopStats& fault_stats = trace.route;
  const AttributeSpace& space = attributes_.space(attribute);
  const overlay::Key key_lo = space.key_of(lo);
  const overlay::Key key_hi = space.key_of(hi);

  const overlay::NodeId source = source_node(options.from, rng);
  if (tracer_ != nullptr) {
    trace.span.open(obs::OpKind::kRangeSearch, source, key_lo);
  }
  obs::SpanRecorder* const rec = trace.span.active() ? &trace.span : nullptr;
  const overlay::RouteResult route = [&] {
    METEO_ZONE("range.route");
    return overlay_.route(source, key_lo, rec);
  }();
  result.route_hops = route.hops;
  fault_stats += route.stats;
  if (route.blocked) result.partial = true;

  // A record with key k lives on the node *closest* to k, which may sit
  // just below key_lo or just above key_hi — start one node early and
  // stop one node late. Every step is a message; one lost past retries
  // truncates the scan (reported as partial).
  METEO_ZONE("range.walk");
  overlay::NodeId cur = route.destination;
  if (const overlay::NodeId pred = overlay_.predecessor(cur);
      pred != overlay::kInvalidNode) {
    if (overlay_.deliver(cur, pred, fault_stats, rec)) {
      if (rec != nullptr) {
        rec->event(obs::EventKind::kWalkHop, cur, pred, result.walk_hops);
      }
      cur = pred;
      ++result.walk_hops;
    } else {
      result.partial = true;  // records just below key_lo stay unseen
    }
  }
  bool past_hi = false;
  while (cur != overlay::kInvalidNode) {
    ++result.nodes_visited;
    const auto& per_node = node_data_[cur].attributes;
    if (const auto it = per_node.find(attribute); it != per_node.end()) {
      for (auto match = it->second.lower_bound(lo);
           match != it->second.end() && match->first <= hi; ++match) {
        result.matches.push_back(RangeMatch{match->first, match->second});
      }
    }
    if (past_hi) break;
    if (overlay_.key_of(cur) > key_hi) past_hi = true;  // one-node margin
    const overlay::NodeId next = overlay_.successor(cur);
    if (next == overlay::kInvalidNode) break;
    if (!overlay_.deliver(cur, next, fault_stats, rec)) {
      if (!past_hi) result.partial = true;  // the rest of the range is cut off
      break;
    }
    if (rec != nullptr) {
      rec->event(obs::EventKind::kWalkHop, cur, next, result.walk_hops);
    }
    cur = next;
    ++result.walk_hops;
  }

  std::sort(result.matches.begin(), result.matches.end(),
            [](const RangeMatch& a, const RangeMatch& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.item < b.item;
            });

  return result;
}

void Meteorograph::record_range_search(const RangeSearchResult& result,
                                       OpTrace& trace) {
  record_fault_stats(obs::OpKind::kRangeSearch, trace.route);
  ++op_count(obs::OpKind::kRangeSearch, outcome_label(result));
  op_messages(obs::OpKind::kRangeSearch) += result.total_messages();
  op_route_hops(obs::OpKind::kRangeSearch)
      .observe(static_cast<double>(result.route_hops));
  op_walk_hops(obs::OpKind::kRangeSearch)
      .observe(static_cast<double>(result.walk_hops));
  if (tracer_ != nullptr) trace.span.finish(outcome_label(result), *tracer_);
}

RangeSearchResult Meteorograph::range_search(AttributeId attribute, double lo,
                                             double hi,
                                             const RangeSearchOptions& options) {
  begin_operation();
  OpTrace trace;
  const RangeSearchResult result =
      range_search_op(attribute, lo, hi, options, rng_, trace);
  record_range_search(result, trace);
  return result;
}

}  // namespace meteo::core
