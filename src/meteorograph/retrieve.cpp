#include <algorithm>
#include <memory_resource>
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
}  // namespace

RetrieveResult Meteorograph::retrieve_op(const vsm::SparseVector& query,
                                         std::size_t amount,
                                         const RetrieveOptions& options,
                                         Rng& rng, OpTrace& trace,
                                         ReadView view) const {
  METEO_EXPECTS(!query.empty());
  METEO_EXPECTS(amount > 0);

  METEO_ZONE("op.retrieve");
  OpScratch& scratch = op_scratch();
  scratch.begin_op();
  const AllocProbe::ReadScope read_scope;

  RetrieveResult result;
  // Probe plan (DESIGN.md §12): one key under single-key strategies — the
  // loop below then runs the pre-strategy sequence exactly — or the g
  // base buckets plus multi-probe perturbations under LSH.
  std::vector<overlay::Key>& probes = scratch.probes;
  probes.clear();
  strategy_->probe_keys(query, probes);
  const overlay::NodeId source =
      options.from.value_or(overlay_.random_alive(rng));
  if (tracer_ != nullptr) {
    trace.span.open(obs::OpKind::kRetrieve, source, probes.front());
    if (strategy_->records_naming()) trace.span.set_naming(strategy_->name());
  }
  obs::SpanRecorder* const rec = trace.span.active() ? &trace.span : nullptr;
  if (strategy_->records_naming()) trace.naming_probes = probes.size();

  // Fig. 2 _retrieve: harvest locally, then consult closest neighbors
  // until the requested amount is satisfied. The first probe keeps the
  // op's own walk budget; each extra probe walks at most
  // config_.naming.probe_walk nodes around its bucket.
  const std::size_t walk_limit = config_.max_walk_nodes > 0
                                     ? config_.max_walk_nodes
                                     : overlay_.alive_count();
  std::size_t remaining = amount;
  // Per-op dedup set lives on the op arena: capacity is op-dependent, so
  // a reusable plain container would still rehash; the arena makes those
  // rehashes bump-allocations that reset() reclaims wholesale.
  std::pmr::unordered_set<vsm::ItemId> seen(&scratch.arena);
  // One result buffer for the whole walk: the per-node top_k refills it
  // in place, so the loop stops reallocating a vector per node visit
  // (this op may run inside an EpochEngine worker's tight per-op loop).
  std::vector<vsm::ScoredItem>& local = scratch.local;
  local.clear();
  bool blocked = false;
  bool faulted = false;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const overlay::Key key = probes[p];
    if (p > 0 && rec != nullptr) rec->set_leg_key(key);
    const overlay::RouteResult route = [&] {
      METEO_ZONE("retrieve.route");
      return overlay_.route(source, key, rec);
    }();
    trace.route += route.stats;
    result.route_hops += route.hops;
    blocked = blocked || route.blocked;

    const std::size_t budget = p == 0 ? walk_limit : config_.naming.probe_walk;
    METEO_ZONE("retrieve.walk");
    NeighborWalk walk(overlay_, route.destination, key, rec);
    std::size_t visited = 0;
    while (true) {
      const NodeData& data = node_data_[walk.current()];
      ++result.nodes_visited;
      ++visited;
      if (config_.local_ranking == LocalRanking::kLsi) {
        // meteo-lint: epoch_ok(EpochEngine's ctor rejects LSI ranking, so live == pinned wherever this branch runs)
        local = data.items.top_k_lsi(query, remaining, config_.lsi_rank,
                                     config_.node_count /*stable seed*/);
      } else {
        data.items.top_k_at(query, remaining, view.epoch, local);
      }
      for (const vsm::ScoredItem& hit : local) {
        if (hit.score <= 0.0) continue;  // no (latent) overlap: not a match
        if (!seen.insert(hit.id).second) continue;
        const AllocProbe::OutputScope output_scope;
        result.items.push_back(hit);
        --remaining;
      }
      // Replica copies answer too (§3.6 failover: after the primary's host
      // dies, the numerically-closest surviving home serves the item).
      data.replicas.for_each_at(
          view.epoch, [&](vsm::ItemId id, const vsm::SparseVector& vector) {
            if (remaining == 0) return false;
            if (seen.contains(id)) return true;
            const double score = vsm::cosine_similarity(query, vector);
            if (score <= 0.0) return true;
            seen.insert(id);
            const AllocProbe::OutputScope output_scope;
            result.items.push_back(vsm::ScoredItem{id, score});
            --remaining;
            return true;
          });
      if (remaining == 0 || visited >= budget) break;
      if (!walk.advance()) break;
    }
    result.walk_hops += walk.hops();
    trace.walk += walk.stats();
    faulted = faulted || walk.faulted();
    if (remaining == 0) break;
  }

  // Degradation is explicit: a shortfall caused by message loss (a blocked
  // route or a walk direction closed by an unreachable neighbor) is
  // reported, not silently returned as a thin result set.
  if (remaining > 0 && (blocked || faulted)) {
    result.partial = true;
    result.items_missed = remaining;
  }

  // Final ranking across all visited nodes (and probes).
  std::sort(result.items.begin(), result.items.end(),
            [](const vsm::ScoredItem& a, const vsm::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return result;
}

void Meteorograph::record_retrieve(const RetrieveResult& result,
                                   OpTrace& trace) {
  record_fault_stats(obs::OpKind::kRetrieve, trace.route);
  record_fault_stats(obs::OpKind::kRetrieve, trace.walk);
  ++op_count(obs::OpKind::kRetrieve, outcome_label(result));
  op_messages(obs::OpKind::kRetrieve) += result.total_messages();
  op_route_hops(obs::OpKind::kRetrieve)
      .observe(static_cast<double>(result.route_hops));
  op_walk_hops(obs::OpKind::kRetrieve)
      .observe(static_cast<double>(result.walk_hops));
  // Zero outside multi-key strategies, so angle-strategy dumps keep the
  // pre-strategy series set exactly.
  if (trace.naming_probes != 0) {
    op_naming_probes(obs::OpKind::kRetrieve)
        .observe(static_cast<double>(trace.naming_probes));
  }
  if (result.partial) {
    metrics_.histogram(names::kRetrieveItemsMissed, obs::count_buckets())
        .observe(static_cast<double>(result.items_missed));
  }
  if (tracer_ != nullptr) trace.span.finish(outcome_label(result), *tracer_);
}

RetrieveResult Meteorograph::retrieve(const vsm::SparseVector& query,
                                      std::size_t amount,
                                      const RetrieveOptions& options) {
  begin_operation();
  OpTrace trace;
  const RetrieveResult result = retrieve_op(query, amount, options, rng_, trace);
  record_retrieve(result, trace);
  return result;
}

LocateResult Meteorograph::locate_op(vsm::ItemId id,
                                     const vsm::SparseVector& vector,
                                     const LocateOptions& options, Rng& rng,
                                     OpTrace& trace, ReadView view) const {
  METEO_EXPECTS(!vector.empty());

  METEO_ZONE("op.locate");
  OpScratch& scratch = op_scratch();
  scratch.begin_op();
  const AllocProbe::ReadScope read_scope;

  LocateResult result;
  // The item may live under any of the strategy's publish keys; probe
  // them in plan order until one bucket answers.
  std::vector<overlay::Key>& probes = scratch.probes;
  probes.clear();
  strategy_->probe_keys(vector, probes);
  const overlay::NodeId source =
      options.from.value_or(overlay_.random_alive(rng));
  if (tracer_ != nullptr) {
    trace.span.open(obs::OpKind::kLocate, source, probes.front());
    if (strategy_->records_naming()) trace.span.set_naming(strategy_->name());
  }
  obs::SpanRecorder* const rec = trace.span.active() ? &trace.span : nullptr;
  if (strategy_->records_naming()) trace.naming_probes = probes.size();

  std::size_t walk_limit = options.walk_limit;
  if (walk_limit == 0) {
    walk_limit = config_.max_walk_nodes > 0 ? config_.max_walk_nodes
                                            : overlay_.alive_count();
  }

  bool blocked = false;
  bool faulted = false;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const overlay::Key key = probes[p];
    if (p > 0 && rec != nullptr) rec->set_leg_key(key);
    const overlay::RouteResult route = [&] {
      METEO_ZONE("locate.route");
      return overlay_.route(source, key, rec);
    }();
    trace.route += route.stats;
    result.route_hops += route.hops;
    blocked = blocked || route.blocked;

    const std::size_t budget = p == 0 ? walk_limit : config_.naming.probe_walk;
    METEO_ZONE("locate.walk");
    NeighborWalk walk(overlay_, route.destination, key, rec);
    std::size_t visited = 0;
    while (true) {
      const overlay::NodeId cur = walk.current();
      const NodeData& data = node_data_[cur];
      ++visited;
      if (data.items.contains_at(id, view.epoch)) {
        result.found = true;
        result.node = cur;
        break;
      }
      if (data.replicas.contains_at(id, view.epoch)) {
        result.found = true;
        result.node = cur;
        result.via_replica = true;
        break;
      }
      if (visited >= budget || !walk.advance()) break;
    }
    result.walk_hops += walk.hops();
    trace.walk += walk.stats();
    faulted = faulted || walk.faulted();
    if (result.found) break;
  }
  result.fault_blocked = !result.found && (blocked || faulted);
  return result;
}

void Meteorograph::record_locate(const LocateResult& result, OpTrace& trace) {
  record_fault_stats(obs::OpKind::kLocate, trace.route);
  record_fault_stats(obs::OpKind::kLocate, trace.walk);
  ++op_count(obs::OpKind::kLocate, outcome_label(result));
  op_messages(obs::OpKind::kLocate) += result.total_messages();
  if (result.found) {
    if (!locate_found_.has_value()) {
      locate_found_.emplace(metrics_.counter(names::kLocateFound));
    }
    ++*locate_found_;
  }
  op_route_hops(obs::OpKind::kLocate)
      .observe(static_cast<double>(result.route_hops));
  op_walk_hops(obs::OpKind::kLocate)
      .observe(static_cast<double>(result.walk_hops));
  if (trace.naming_probes != 0) {
    op_naming_probes(obs::OpKind::kLocate)
        .observe(static_cast<double>(trace.naming_probes));
  }
  if (tracer_ != nullptr) trace.span.finish(outcome_label(result), *tracer_);
}

LocateResult Meteorograph::locate(vsm::ItemId id,
                                  const vsm::SparseVector& vector,
                                  const LocateOptions& options) {
  begin_operation();
  OpTrace trace;
  const LocateResult result = locate_op(id, vector, options, rng_, trace);
  record_locate(result, trace);
  return result;
}

}  // namespace meteo::core
