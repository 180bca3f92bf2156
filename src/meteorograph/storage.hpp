#pragma once

/// \file storage.hpp
/// Per-node item storage ordered by raw angle key, supporting the three
/// eviction policies of the publish overflow path (Fig. 2 step 3).
///
/// Keeping items sorted by their raw (Eq. 5) key makes the default
/// farthest-angle eviction O(log c) and gives the walk-based retrieval a
/// natural invariant: after any publish sequence every node holds a
/// contiguous band of the global angle order (its own band plus overflow
/// spill from neighbors).
///
/// The vectors themselves live in an embedded `vsm::LocalIndex` — the
/// inverted postings engine of DESIGN.md §9 — so the similarity kernels
/// (`top_k`, `match_all`) run sub-linearly in the store size and the
/// key-ordered multimap only carries item ids, never a second copy of
/// the vectors.

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "meteorograph/config.hpp"
#include "overlay/key_space.hpp"
#include "vsm/local_index.hpp"
#include "vsm/sparse_vector.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

struct StoredEntry {
  vsm::ItemId id = 0;
  overlay::Key raw_key = 0;  // Eq. 5 key (angle order)
  vsm::SparseVector vector;
};

/// Which side of the node's band an eviction came from — the direction the
/// evicted item should chain toward.
enum class EvictSide {
  kLow,   // toward the predecessor (smaller keys)
  kHigh,  // toward the successor (larger keys)
};

struct Eviction {
  StoredEntry entry;
  EvictSide side = EvictSide::kHigh;
};

class AngleStore {
 public:
  /// Inserts an entry (replaces an existing item with the same id).
  /// Returns true when the store grew: false for a replace.
  bool insert(StoredEntry entry);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }
  [[nodiscard]] bool contains(vsm::ItemId id) const noexcept {
    return index_.contains(id);
  }

  /// The stored vector of `id`, or nullptr.
  [[nodiscard]] const vsm::SparseVector* vector_of(vsm::ItemId id) const;

  bool erase(vsm::ItemId id);

  /// Removes one entry according to `policy`:
  ///  - kFarthestAngle: the end of the key-sorted band farther from
  ///    `incoming`'s raw key; side reports which end.
  ///  - kLeastSimilarCosine: lowest cosine to `incoming`'s vector; side is
  ///    the evictee's position relative to `incoming`'s raw key.
  ///  - kFifo: oldest insertion; side relative to `incoming`'s raw key.
  /// \pre !empty()
  [[nodiscard]] Eviction evict(const StoredEntry& incoming,
                               EvictionPolicy policy);

  /// Top-k by cosine to `query`, descending (score ties toward smaller id).
  [[nodiscard]] std::vector<vsm::ScoredItem> top_k(
      const vsm::SparseVector& query, std::size_t k) const;

  /// Caller-buffer overload (clears and refills `out`, reusing capacity).
  void top_k(const vsm::SparseVector& query, std::size_t k,
             std::vector<vsm::ScoredItem>& out) const;

  /// Top-k by latent-space cosine (§3.3's LSI option). Each call builds
  /// the node's LSI model from its current items and caches nothing, so
  /// concurrent readers of one node share no state; `seed` makes the
  /// randomized SVD deterministic.
  [[nodiscard]] std::vector<vsm::ScoredItem> top_k_lsi(
      const vsm::SparseVector& query, std::size_t k, std::size_t rank,
      std::uint64_t seed) const;

  /// Items containing every keyword of `keywords`, ascending id.
  [[nodiscard]] std::vector<vsm::ItemId> match_all(
      std::span<const vsm::KeywordId> keywords) const;
  void match_all(std::span<const vsm::KeywordId> keywords,
                 std::vector<vsm::ItemId>& out) const;

  /// Iterates all entries (angle order). The StoredEntry passed to `fn`
  /// is a per-call temporary (its vector is copied out of the index).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, id] : by_key_) {
      fn(StoredEntry{id, key, *index_.vector_of(id)});
    }
  }

  /// Smallest/largest raw key stored. \pre !empty()
  [[nodiscard]] overlay::Key min_raw_key() const;
  [[nodiscard]] overlay::Key max_raw_key() const;

 private:
  using KeyMap = std::multimap<overlay::Key, vsm::ItemId>;

  struct Meta {
    KeyMap::iterator pos;        ///< the item's slot in angle order
    std::uint64_t order = 0;     ///< insertion sequence (kFifo)
  };

  /// Removes `id` from the key map and metadata (not the vector index).
  void detach(vsm::ItemId id);

  KeyMap by_key_;
  std::unordered_map<vsm::ItemId, Meta> meta_;
  vsm::LocalIndex index_;  ///< owns the vectors + inverted postings
  std::uint64_t next_order_ = 0;
};

}  // namespace meteo::core
