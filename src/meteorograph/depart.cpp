/// Graceful node departure with data handoff. Tornado-style storage
/// overlays migrate a leaver's state to the nodes that become responsible
/// for its key range; without this, only crash failures (and replicas)
/// would exist and every planned shutdown would lose data.

#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "meteorograph/meteorograph.hpp"
#include "meteorograph/op_scratch.hpp"

namespace meteo::core {

DepartResult Meteorograph::depart_node(overlay::NodeId node) {
  METEO_EXPECTS(overlay_.is_alive(node));
  METEO_EXPECTS(overlay_.alive_count() > 1);
  return commit_depart(node);
}

DepartResult Meteorograph::commit_depart(overlay::NodeId node) {
  begin_operation();
  // Checked after the due crashes land: one of them may be this node.
  if (node >= overlay_.size() || !overlay_.is_alive(node) ||
      overlay_.alive_count() < 2) {
    return DepartResult{};
  }

  obs::SpanRecorder span;
  if (tracer_ != nullptr) {
    // Capture the leaver's key before leave() forgets it.
    span.open(obs::OpKind::kDepart, node, overlay_.key_of(node));
    span.set_epoch(span_epoch_);
  }

  DepartResult result;
  result.departed = true;
  // Take the node's state, then leave the overlay so routing and
  // closest-key decisions already reflect the departure when re-homing.
  NodeData state = std::move(node_data_[node]);
  node_data_[node] = NodeData{};
  overlay_.leave(node);

  // Items: re-insert through the publish overflow path at the node now
  // closest to each item's key (capacity is respected; an item may chain).
  std::vector<StoredEntry> entries;
  state.items.for_each([&](const StoredEntry& e) { entries.push_back(e); });
  for (StoredEntry& entry : entries) {
    // Bucket migration: each copy re-homes where the strategy says it
    // belongs — the recomputed primary key under single-key strategies,
    // the copy's own bucket key (entry.raw_key) under LSH.
    const overlay::Key key = strategy_->migration_key(entry);
    overlay::NodeId cur = overlay_.closest_alive(key);
    ++result.messages;  // the handoff transfer itself
    StoredEntry moving = std::move(entry);
    bool placed = false;
    for (std::size_t guard = 0; guard < overlay_.alive_count(); ++guard) {
      NodeData& data = node_data_[cur];
      const std::size_t capacity = node_capacity_[cur];
      if (capacity == 0 || data.items.size() < capacity) {
        data.items.insert(std::move(moving));
        placed = true;
        break;
      }
      Eviction evicted = data.items.evict(moving, config_.eviction);
      data.items.insert(std::move(moving));
      overlay::NodeId next = evicted.side == EvictSide::kLow
                                 ? overlay_.predecessor(cur)
                                 : overlay_.successor(cur);
      if (next == overlay::kInvalidNode) {
        next = evicted.side == EvictSide::kLow ? overlay_.successor(cur)
                                               : overlay_.predecessor(cur);
      }
      if (next == overlay::kInvalidNode) break;
      moving = std::move(evicted.entry);
      cur = next;
      ++result.messages;
    }
    if (placed) ++result.items_transferred;
  }

  // Replicas: re-home on the now-closest node holding no copy yet.
  std::vector<overlay::NodeId>& homes = op_scratch().homes;
  for (auto& [id, vector] : state.replicas) {
    const overlay::Key key = strategy_->primary_key(vector);
    overlay_.closest_nodes(key, config_.replicas + 2, homes);
    for (const overlay::NodeId home : homes) {
      if (node_data_[home].items.contains(id) ||
          node_data_[home].replicas.contains(id)) {
        continue;
      }
      node_data_[home].replicas.emplace(id, std::move(vector));
      ++result.replicas_transferred;
      ++result.messages;
      break;
    }
  }

  // Directory pointers: move to the node now closest to each raw key.
  for (DirectoryPointer& pointer : state.directory.take_all()) {
    const auto v = vsm::SparseVector::binary(pointer.keywords);
    const overlay::Key raw = strategy_->directory_key(v);
    node_data_[overlay_.closest_alive(raw)].directory.add(std::move(pointer));
    ++result.pointers_transferred;
    ++result.messages;
  }

  // Subscriptions: re-plant and fix the home registry.
  for (Subscription& sub : state.subscriptions) {
    const auto v = vsm::SparseVector::binary(sub.keywords);
    const overlay::Key raw = strategy_->directory_key(v);
    const overlay::NodeId home = overlay_.closest_alive(raw);
    auto& sub_homes = subscription_homes_[sub.id];
    for (overlay::NodeId& h : sub_homes) {
      if (h == node) h = home;
    }
    node_data_[home].subscriptions.push_back(std::move(sub));
    ++result.subscriptions_transferred;
    ++result.messages;
  }

  // Attribute records: re-home per value key.
  for (auto& [attribute, records] : state.attributes) {
    const AttributeSpace& space = attributes_.space(attribute);
    for (const auto& [value, id] : records) {
      const overlay::NodeId home = overlay_.closest_alive(space.key_of(value));
      node_data_[home].attributes[attribute].emplace(value, id);
      ++result.attribute_records_transferred;
      ++result.messages;
    }
  }

  ++op_count(obs::OpKind::kDepart, "ok");
  op_messages(obs::OpKind::kDepart) += result.messages;
  if (tracer_ != nullptr) span.finish("ok", *tracer_);
  return result;
}

}  // namespace meteo::core
