#include "meteorograph/storage.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "vsm/lsi.hpp"

namespace meteo::core {

void AngleStore::insert(StoredEntry entry) {
  erase(entry.id);
  const vsm::ItemId id = entry.id;
  const auto it = by_key_.emplace(entry.raw_key, id);
  meta_.emplace(id, Meta{it, next_order_++});
  index_.insert(id, std::move(entry.vector));
}

const vsm::SparseVector* AngleStore::vector_of(vsm::ItemId id) const {
  return index_.vector_of(id);
}

void AngleStore::detach(vsm::ItemId id) {
  const auto it = meta_.find(id);
  METEO_ASSERT(it != meta_.end());
  by_key_.erase(it->second.pos);
  meta_.erase(it);
}

bool AngleStore::erase(vsm::ItemId id) {
  if (!index_.erase(id)) return false;
  detach(id);
  return true;
}

Eviction AngleStore::evict(const StoredEntry& incoming,
                           EvictionPolicy policy) {
  METEO_EXPECTS(!empty());
  vsm::ItemId victim = 0;
  switch (policy) {
    case EvictionPolicy::kFarthestAngle: {
      const auto lo = by_key_.begin();
      const auto hi = std::prev(by_key_.end());
      const overlay::Key dist_lo =
          overlay::key_distance(lo->first, incoming.raw_key);
      const overlay::Key dist_hi =
          overlay::key_distance(hi->first, incoming.raw_key);
      victim = dist_lo >= dist_hi ? lo->second : hi->second;
      break;
    }
    case EvictionPolicy::kLeastSimilarCosine:
      victim = *index_.least_similar(incoming.vector);
      break;
    case EvictionPolicy::kFifo: {
      std::uint64_t oldest = ~std::uint64_t{0};
      // meteo-lint: order-insensitive(min over unique insertion counters)
      for (const auto& [id, meta] : meta_) {
        if (meta.order < oldest) {
          oldest = meta.order;
          victim = id;
        }
      }
      break;
    }
  }

  Eviction out;
  out.entry.id = victim;
  out.entry.raw_key = meta_.at(victim).pos->first;
  out.entry.vector = std::move(index_.take(victim)->vector);
  out.side = out.entry.raw_key <= incoming.raw_key ? EvictSide::kLow
                                                   : EvictSide::kHigh;
  detach(victim);
  return out;
}

std::vector<vsm::ScoredItem> AngleStore::top_k_lsi(
    const vsm::SparseVector& query, std::size_t k, std::size_t rank,
    std::uint64_t seed) const {
  if (index_.empty() || k == 0) return {};
  std::vector<vsm::StoredItem> docs;
  docs.reserve(index_.size());
  for (const auto& [key, id] : by_key_) {
    docs.push_back(vsm::StoredItem{id, *index_.vector_of(id)});
  }
  Rng rng(seed);
  return vsm::LsiModel::build(docs, rank, rng).top_k(query, k);
}

void AngleStore::top_k(const vsm::SparseVector& query, std::size_t k,
                       std::vector<vsm::ScoredItem>& out) const {
  index_.top_k(query, k, out);
}

std::vector<vsm::ScoredItem> AngleStore::top_k(const vsm::SparseVector& query,
                                               std::size_t k) const {
  return index_.top_k(query, k);
}

void AngleStore::match_all(std::span<const vsm::KeywordId> keywords,
                           std::vector<vsm::ItemId>& out) const {
  index_.match_all(keywords, out);
}

std::vector<vsm::ItemId> AngleStore::match_all(
    std::span<const vsm::KeywordId> keywords) const {
  return index_.match_all(keywords);
}

overlay::Key AngleStore::min_raw_key() const {
  METEO_EXPECTS(!empty());
  return by_key_.begin()->first;
}

overlay::Key AngleStore::max_raw_key() const {
  METEO_EXPECTS(!empty());
  return std::prev(by_key_.end())->first;
}

}  // namespace meteo::core
