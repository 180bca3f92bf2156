#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "meteorograph/meteorograph.hpp"
#include "meteorograph/op_scratch.hpp"
#include "meteorograph/walk.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"

namespace meteo::core {

namespace {

namespace names = obs::names;

std::vector<vsm::KeywordId> keyword_list(const vsm::SparseVector& v) {
  std::vector<vsm::KeywordId> out;
  out.reserve(v.nnz());
  for (const vsm::Entry& e : v.entries()) out.push_back(e.keyword);
  return out;  // entries are keyword-sorted already
}

}  // namespace

Meteorograph::PublishPlan Meteorograph::plan_publish(
    const vsm::SparseVector& vector, const PublishOptions& options,
    Rng& rng) const {
  METEO_EXPECTS(!vector.empty());

  PublishPlan plan;
  plan.raw = strategy_->directory_key(vector);
  if (strategy_->multi_key()) {
    std::vector<overlay::Key> keys;
    strategy_->publish_keys(vector, keys);
    plan.key = keys.front();
    plan.extra_keys.assign(keys.begin() + 1, keys.end());
  } else {
    plan.key = strategy_->primary_key(vector);
  }

  // Step 1-2 (Fig. 2): route the publish request to the node whose key is
  // closest to the item's (primary) hash key.
  plan.source = source_node(options.from, rng);
  if (tracer_ != nullptr) {
    plan.span.open(obs::OpKind::kPublish, plan.source, plan.key);
    if (strategy_->records_naming()) plan.span.set_naming(strategy_->name());
  }
  obs::SpanRecorder* const rec = plan.span.active() ? &plan.span : nullptr;
  METEO_ZONE("publish.route");
  plan.route = overlay_.route(plan.source, plan.key, rec);

  // Extra strategy keys route in the plan phase too: routing is read-only
  // against the frozen batch snapshot, so multi-key publishes stay
  // parallel-plannable (DESIGN.md §8).
  plan.extra_routes.reserve(plan.extra_keys.size());
  for (const overlay::Key key : plan.extra_keys) {
    if (rec != nullptr) rec->set_leg_key(key);
    plan.extra_routes.push_back(overlay_.route(plan.source, key, rec));
  }
  return plan;
}

bool Meteorograph::chain_store(StoredEntry entry, overlay::NodeId start,
                               std::size_t hop_budget, obs::SpanRecorder* rec,
                               std::size_t& chain_hops,
                               overlay::NodeId& stored_at) {
  // Step 3: store, overflow-chaining through closest neighbors when full.
  // The displaced item always moves toward the side of the band it belongs
  // to, which keeps the global angle (or bucket) order intact. Every store
  // change lands in stored_items_, so an item dropped at the hop limit
  // leaves the count exact.
  overlay::NodeId cur = start;
  while (true) {
    NodeData& data = node_data_[cur];
    const std::size_t capacity = node_capacity_[cur];
    if (capacity == 0 || data.items.size() < capacity) {
      if (data.items.insert(std::move(entry))) ++stored_items_;
      stored_at = cur;
      return true;
    }
    Eviction evicted = data.items.evict(entry, config_.eviction);
    // The eviction took one item out; a replace-insert puts none back.
    if (!data.items.insert(std::move(entry))) --stored_items_;
    overlay::NodeId next = evicted.side == EvictSide::kLow
                               ? overlay_.predecessor(cur)
                               : overlay_.successor(cur);
    if (next == overlay::kInvalidNode) {
      // Edge of the key space: chain back the other way.
      next = evicted.side == EvictSide::kLow ? overlay_.successor(cur)
                                             : overlay_.predecessor(cur);
    }
    if (next == overlay::kInvalidNode) return false;  // single node, full
    entry = std::move(evicted.entry);
    if (rec != nullptr) {
      rec->event(obs::EventKind::kChainHop, cur, next, chain_hops);
    }
    cur = next;
    ++chain_hops;
    if (chain_hops >= hop_budget) return false;  // hop count exhausted
  }
}

PublishResult Meteorograph::commit_publish(vsm::ItemId id,
                                           const vsm::SparseVector& vector,
                                           PublishPlan& plan) {
  PublishResult result;
  obs::SpanRecorder* const rec = plan.span.active() ? &plan.span : nullptr;
  plan.span.set_epoch(span_epoch_);
  overlay::HopStats fault_stats = plan.route.stats;
  result.home = plan.route.destination;
  result.route_hops = plan.route.hops;
  // A blocked publish route still stores at the closest *reachable* node,
  // but the item may be mis-homed relative to its key: flag it.
  result.degraded = plan.route.blocked;

  // Step 3: the primary copy. Its store-order key is the strategy's
  // choice — the Eq. 5 raw angle key (plan.raw, already computed) under
  // single-key strategies, the bucket key for LSH — so each node's
  // AngleStore stays ordered by the coordinate the strategy clusters on.
  const overlay::Key order_key =
      strategy_->multi_key() ? strategy_->store_order_key(vector, plan.key)
                             : plan.raw;
  const std::size_t hop_budget =
      config_.publish_hop_limit > 0
          ? config_.publish_hop_limit
          : 16 * std::max<std::size_t>(overlay_.alive_count(), 1);
  {
    METEO_ZONE("publish.chain");
    result.success =
        chain_store(StoredEntry{id, order_key, vector}, plan.route.destination,
                    hop_budget, rec, result.chain_hops, result.stored_at);
  }

  if (!result.success) {
    record_fault_stats(obs::OpKind::kPublish, fault_stats);
    ++op_count(obs::OpKind::kPublish, "failed");
    if (tracer_ != nullptr) plan.span.finish("failed", *tracer_);
    return result;
  }

  // Multi-key publication: one copy per extra strategy key, stored with
  // the same overflow-chain discipline at the planned route's target. A
  // blocked leg loses that bucket's copy (degraded, like a replica miss);
  // the item stays reachable through the keys that landed.
  for (std::size_t i = 0; i < plan.extra_keys.size(); ++i) {
    const overlay::Key key = plan.extra_keys[i];
    const overlay::RouteResult& leg = plan.extra_routes[i];
    fault_stats += leg.stats;
    result.naming_key_messages += std::max<std::size_t>(leg.hops, 1);
    if (leg.blocked) {
      result.degraded = true;
      continue;
    }
    if (rec != nullptr) rec->set_leg_key(key);
    std::size_t copy_chain = 0;
    overlay::NodeId copy_at = overlay::kInvalidNode;
    if (chain_store(StoredEntry{id, strategy_->store_order_key(vector, key),
                                vector},
                    leg.destination, hop_budget, rec, copy_chain, copy_at)) {
      result.naming_key_messages += copy_chain;
    } else {
      result.naming_key_messages += copy_chain;
      result.degraded = true;
    }
  }
  if (strategy_->records_naming()) {
    op_naming_keys(obs::OpKind::kPublish)
        .observe(static_cast<double>(1 + plan.extra_keys.size()));
  }

  // §3.6: place k-1 replicas on the nodes numerically closest to the key.
  // A replica leg that cannot reach its home (message loss past retries)
  // leaves that copy missing; the shortfall is reported, and soft-state
  // maintenance restores it on the next republish cycle.
  if (config_.replicas > 1) {
    METEO_ZONE("publish.replicas");
    std::size_t placed = 0;
    std::vector<overlay::NodeId>& homes = op_scratch().homes;
    overlay_.closest_nodes(plan.key, config_.replicas, homes);
    for (const overlay::NodeId home : homes) {
      if (home == result.home) continue;
      if (rec != nullptr) rec->set_leg_key(overlay_.key_of(home));
      const overlay::RouteResult leg =
          overlay_.route(result.home, overlay_.key_of(home), rec);
      fault_stats += leg.stats;
      result.replica_messages += std::max<std::size_t>(leg.hops, 1);
      if (leg.blocked) {
        ++result.replicas_missed;
        result.degraded = true;
      } else {
        node_data_[home].replicas.insert_or_assign(id, vector);
      }
      if (++placed + 1 >= config_.replicas) break;
    }
  }

  // §3.5.2: publish the directory pointer at the item's *raw* key, where
  // pointers of similar items aggregate.
  if (config_.directory_pointers) {
    METEO_ZONE("publish.pointer");
    if (rec != nullptr) rec->set_leg_key(plan.raw);
    const overlay::RouteResult leg = overlay_.route(result.home, plan.raw, rec);
    fault_stats += leg.stats;
    result.pointer_messages = leg.hops;
    if (leg.blocked) {
      // The pointer publication died en route: the item stays findable by
      // similarity walk, but keyword search will not discover it until the
      // owner republishes.
      result.pointer_missed = true;
      result.degraded = true;
    } else {
      node_data_[leg.destination].directory.add(
          DirectoryPointer{id, plan.key, keyword_list(vector)});
      // §6 notifications: standing interests planted on this directory node
      // fire as the pointer arrives.
      result.notify_messages =
          deliver_notifications(leg.destination, id, vector, rec);
    }
  }

  record_fault_stats(obs::OpKind::kPublish, fault_stats);
  ++op_count(obs::OpKind::kPublish, outcome_label(result));
  op_messages(obs::OpKind::kPublish) += result.total_messages();
  op_route_hops(obs::OpKind::kPublish)
      .observe(static_cast<double>(result.route_hops));
  if (!publish_chain_hops_.has_value()) {
    publish_chain_hops_.emplace(
        metrics_.histogram(names::kPublishChainHops, obs::hop_buckets()));
  }
  publish_chain_hops_->observe(static_cast<double>(result.chain_hops));
  if (result.degraded) {
    metrics_.histogram(names::kPublishReplicasMissed, obs::count_buckets())
        .observe(static_cast<double>(result.replicas_missed));
  }
  if (tracer_ != nullptr) plan.span.finish(outcome_label(result), *tracer_);
  return result;
}

PublishResult Meteorograph::publish(vsm::ItemId id,
                                    const vsm::SparseVector& vector,
                                    const PublishOptions& options) {
  begin_operation();
  PublishPlan plan = plan_publish(vector, options, rng_);
  return commit_publish(id, vector, plan);
}

WithdrawResult Meteorograph::withdraw_with(vsm::ItemId id,
                                           const vsm::SparseVector& vector,
                                           const WithdrawOptions& options,
                                           Rng& rng) {
  METEO_EXPECTS(!vector.empty());

  WithdrawResult result;
  const overlay::Key key = strategy_->primary_key(vector);
  // The withdraw span covers the directory-pointer cleanup below; the
  // embedded locate opens (and commits) its own nested span first, so a
  // traced withdraw appears as a locate span followed by a withdraw span.
  obs::SpanRecorder span;
  if (tracer_ != nullptr) {
    span.open(obs::OpKind::kWithdraw,
              options.from.value_or(overlay::kInvalidNode), key);
  }
  obs::SpanRecorder* const rec = span.active() ? &span : nullptr;
  span.set_epoch(span_epoch_);

  // Primary copy: find it the same way a query would, then erase. The
  // nested locate is part of the write, so its span carries the commit
  // epoch too.
  OpTrace locate_trace;
  const LocateResult located = [&] {
    METEO_ZONE("withdraw.locate");
    return locate_op(id, vector, {.from = options.from}, rng, locate_trace);
  }();
  locate_trace.span.set_epoch(span_epoch_);
  record_locate(located, locate_trace);
  result.messages += located.route_hops + located.walk_hops;
  if (located.found && !located.via_replica) {
    METEO_ZONE("withdraw.item");
    if (node_data_[located.node].items.erase(id)) --stored_items_;
    result.removed = true;
  } else if (located.found) {
    node_data_[located.node].replicas.erase(id);
    ++result.replicas_removed;
  }

  // Replicas at the key's current closest homes (best-effort: the homes
  // at publish time; churn may have moved them, in which case the copies
  // expire with their hosts).
  {
    METEO_ZONE("withdraw.replicas");
    std::vector<overlay::NodeId>& homes = op_scratch().homes;
    overlay_.closest_nodes(key, config_.replicas + 4, homes);
    for (const overlay::NodeId home : homes) {
      if (node_data_[home].replicas.erase(id) > 0) {
        ++result.replicas_removed;
        ++result.messages;
      }
    }
  }

  // Multi-key strategies: erase the copies published under the extra
  // strategy keys (each lives in a node's item store near its bucket).
  if (strategy_->multi_key()) {
    METEO_ZONE("withdraw.item");
    std::vector<overlay::Key> keys;
    strategy_->publish_keys(vector, keys);
    for (std::size_t i = 1; i < keys.size(); ++i) {
      const overlay::NodeId start = overlay_.closest_alive(keys[i]);
      if (rec != nullptr) rec->set_leg_key(keys[i]);
      NeighborWalk walk(overlay_, start, keys[i], rec);
      for (std::size_t step = 0; step < config_.naming.probe_walk; ++step) {
        if (node_data_[walk.current()].items.erase(id)) {
          --stored_items_;
          ++result.replicas_removed;
          break;
        }
        if (!walk.advance()) break;
        ++result.messages;
      }
      record_fault_stats(obs::OpKind::kWithdraw, walk.stats());
    }
  }

  // Directory pointer at the raw key (walk a small horizon: the pointer
  // sits on or next to the closest node).
  if (config_.directory_pointers && overlay_.alive_count() > 0) {
    METEO_ZONE("withdraw.pointer");
    const overlay::Key raw = strategy_->directory_key(vector);
    const overlay::NodeId start = overlay_.closest_alive(raw);
    if (rec != nullptr) rec->set_leg_key(raw);
    NeighborWalk walk(overlay_, start, raw, rec);
    for (int step = 0; step < 8; ++step) {
      if (node_data_[walk.current()].directory.remove(id)) {
        result.pointer_removed = true;
        break;
      }
      if (!walk.advance()) break;
      ++result.messages;
    }
    record_fault_stats(obs::OpKind::kWithdraw, walk.stats());
  }

  ++op_count(obs::OpKind::kWithdraw, result.removed ? "ok" : "failed");
  op_messages(obs::OpKind::kWithdraw) += result.messages;
  if (tracer_ != nullptr) {
    span.finish(result.removed ? "ok" : "failed", *tracer_);
  }
  return result;
}

WithdrawResult Meteorograph::withdraw(vsm::ItemId id,
                                      const vsm::SparseVector& vector,
                                      const WithdrawOptions& options) {
  begin_operation();
  return withdraw_with(id, vector, options, rng_);
}

}  // namespace meteo::core
