#include <algorithm>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/alloc_probe.hpp"
#include "common/assert.hpp"
#include "meteorograph/meteorograph.hpp"
#include "meteorograph/op_scratch.hpp"
#include "meteorograph/walk.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"

namespace meteo::core {

namespace {

namespace names = obs::names;

/// Spill distance: an item displaced by overflow chaining sits a few nodes
/// from its key's home; lookups walk at most this many extra neighbors.
constexpr std::size_t kLookupSpillLimit = 16;

}  // namespace

SearchResult Meteorograph::search_op(std::span<const vsm::KeywordId> keywords,
                                     std::size_t k,
                                     const SearchOptions& options, Rng& rng,
                                     OpTrace& trace, ReadView view) const {
  METEO_EXPECTS(!keywords.empty());

  METEO_ZONE("op.search");
  OpScratch& scratch = op_scratch();
  scratch.begin_op();
  const AllocProbe::ReadScope read_scope;

  std::vector<vsm::KeywordId>& query = scratch.query;
  query.assign(keywords.begin(), keywords.end());
  std::sort(query.begin(), query.end());
  query.erase(std::unique(query.begin(), query.end()), query.end());

  SearchResult result;

  // §3.5.1 first hop: start at the smallest matching sample key; fall back
  // to the raw key of the query — computed straight from the deduped
  // keyword set, bit-identical to binarizing it (DESIGN.md §9).
  const overlay::Key fallback = strategy_->directory_key(
      std::span<const vsm::KeywordId>(query.data(), query.size()));
  const overlay::Key start_key =
      first_hop_.smallest_matching_key(query).value_or(fallback);

  const overlay::NodeId source =
      options.from.value_or(overlay_.random_alive(rng));
  if (tracer_ != nullptr) {
    trace.span.open(obs::OpKind::kSimilaritySearch, source, start_key);
  }
  obs::SpanRecorder* const rec = trace.span.active() ? &trace.span : nullptr;
  const overlay::RouteResult route = [&] {
    METEO_ZONE("search.route");
    return overlay_.route(source, start_key, rec);
  }();
  result.route_hops = route.hops;
  overlay::HopStats& fault_stats = trace.route;
  fault_stats = route.stats;
  if (route.blocked) result.partial = true;

  // Per-op dedup set on the op arena: rehashes become bump allocations
  // that reset() reclaims wholesale at the next op's entry.
  std::pmr::unordered_set<vsm::ItemId> seen(&scratch.arena);
  auto add_item = [&](vsm::ItemId id, std::size_t hops) {
    if (!seen.insert(id).second) return false;
    const AllocProbe::OutputScope output_scope;
    result.items.push_back(id);
    result.discovery_hops.push_back(hops);
    return true;
  };
  auto satisfied = [&] { return k > 0 && result.items.size() >= k; };

  // Per-op harvest memo: pointer chases spill across overlapping neighbor
  // bands, so the same node is often visited by several legs of one
  // search. Stores are frozen for the op (search_op is const against the
  // batch snapshot), so the node's match set is computed once. Map and
  // per-node item lists live on the op arena; the returned span stays
  // valid across rehashes because a moved pmr::vector's heap storage is
  // what the map element carries.
  std::pmr::unordered_map<overlay::NodeId, std::pmr::vector<vsm::ItemId>>
      harvested(&scratch.arena);
  auto harvest = [&](overlay::NodeId node) -> std::span<const vsm::ItemId> {
    METEO_ZONE("search.harvest");
    const NodeData& data = node_data_[node];
    if (data.items.empty_at(view.epoch)) return {};
    const auto it = harvested.find(node);
    if (it != harvested.end()) return it->second;
    data.items.match_all_at(query, view.epoch, scratch.harvest);
    // Memoize only nodes that matched: a walk visits thousands of nodes
    // whose stores miss the query entirely, and re-running the index's
    // early-out there is cheaper than churning map entries for them.
    if (scratch.harvest.empty()) return {};
    const auto pos = harvested.try_emplace(node).first;
    pos->second.assign(scratch.harvest.begin(), scratch.harvest.end());
    return pos->second;
  };

  // Chase one directory pointer: route to the item's key, harvesting every
  // matching item at each visited node (the paper's k'-batched replies),
  // walking past overflow spill until the pointed-to item is found. A
  // lookup whose request dies en route is counted as failed instead of
  // silently returning nothing.
  auto chase = [&](overlay::NodeId origin, const DirectoryPointer& pointer) {
    METEO_ZONE("search.chase");
    if (rec != nullptr) rec->set_leg_key(pointer.item_key);
    const overlay::RouteResult leg =
        overlay_.route(origin, pointer.item_key, rec);
    fault_stats += leg.stats;
    result.lookup_messages += leg.hops + 1;  // request legs + reply
    if (leg.blocked) {
      ++result.lookups_failed;
      result.partial = true;
      if (rec != nullptr) rec->set_leg_key(start_key);
      return;
    }
    NeighborWalk spill(overlay_, leg.destination, pointer.item_key, rec);
    bool found_target = false;
    while (true) {
      const NodeData& data = node_data_[spill.current()];
      for (const vsm::ItemId id : harvest(spill.current())) {
        add_item(id, leg.hops + spill.hops());
      }
      found_target =
          found_target || data.items.contains_at(pointer.item, view.epoch);
      if (found_target || spill.hops() >= kLookupSpillLimit) break;
      if (!spill.advance()) break;
      ++result.lookup_messages;
    }
    fault_stats += spill.stats();
    if (spill.faulted() && !found_target) result.partial = true;
    if (rec != nullptr) rec->set_leg_key(start_key);
  };

  // Walk the directory (raw-key) space outward from the start node.
  const std::size_t walk_limit = config_.max_walk_nodes > 0
                                     ? config_.max_walk_nodes
                                     : overlay_.alive_count();
  METEO_ZONE("search.walk");
  NeighborWalk walk(overlay_, route.destination, start_key, rec);
  while (true) {
    const overlay::NodeId cur = walk.current();
    const NodeData& data = node_data_[cur];
    ++result.nodes_visited;

    // Local search on stored items (§3.5.2 searches items and pointers).
    // Items found on a walked node cost one marginal neighbor step (the
    // walk itself is accounted in walk_hops); items on the start node are
    // free riders of the initial route.
    for (const vsm::ItemId id : harvest(cur)) {
      add_item(id, walk.hops() > 0 ? 1 : 0);
    }
    // Chase matching pointers, one lookup at a time, stopping at k. A
    // pointer matching the whole conjunction necessarily carries the
    // query's first keyword, so only that bucket is consulted — in
    // publication order, the same relative order the full scan used.
    for (const std::size_t pi : data.directory.candidates(query.front())) {
      if (satisfied()) break;
      if (!data.directory.visible_at(pi, view.epoch)) continue;
      const DirectoryPointer& pointer = data.directory.at(pi);
      if (!pointer.matches(query) || seen.contains(pointer.item)) continue;
      chase(cur, pointer);
    }

    if (satisfied() || result.nodes_visited >= walk_limit) break;
    if (!walk.advance()) break;
  }
  result.walk_hops = walk.hops();
  fault_stats += walk.stats();
  // A directory walk cut short by an unreachable neighbor may have missed
  // pointer regions entirely — only a fully satisfied k excuses it.
  if (walk.faulted() && !satisfied()) result.partial = true;

  return result;
}

void Meteorograph::record_search(const SearchResult& result, OpTrace& trace) {
  record_fault_stats(obs::OpKind::kSimilaritySearch, trace.route);
  ++op_count(obs::OpKind::kSimilaritySearch, outcome_label(result));
  op_messages(obs::OpKind::kSimilaritySearch) += result.total_messages();
  op_route_hops(obs::OpKind::kSimilaritySearch)
      .observe(static_cast<double>(result.route_hops));
  op_walk_hops(obs::OpKind::kSimilaritySearch)
      .observe(static_cast<double>(result.walk_hops));
  if (!search_items_.has_value()) {
    search_items_.emplace(
        metrics_.histogram(names::kSearchItems, obs::count_buckets()));
  }
  search_items_->observe(static_cast<double>(result.items.size()));
  if (result.lookups_failed != 0) {
    metrics_.counter(names::kSearchLookupsFailed) += result.lookups_failed;
  }
  if (tracer_ != nullptr) trace.span.finish(outcome_label(result), *tracer_);
}

SearchResult Meteorograph::similarity_search(
    std::span<const vsm::KeywordId> keywords, std::size_t k,
    const SearchOptions& options) {
  begin_operation();
  OpTrace trace;
  const SearchResult result = search_op(keywords, k, options, rng_, trace);
  record_search(result, trace);
  return result;
}

}  // namespace meteo::core
