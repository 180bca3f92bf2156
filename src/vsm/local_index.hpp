#pragma once

/// \file local_index.hpp
/// Per-node item store with VSM ranking (paper §3.3: "nodes may further
/// implement the vector space model (VSM) or the latent semantic indexing
/// (LSI) to manipulate the items stored locally").
///
/// This is the VSM flavour: exact cosine ranking over the node's items.
/// It also provides the primitive the publish algorithm's replacement
/// policy needs — removing the stored item *least similar* to an incoming
/// one (Fig. 2, `_publish` overflow branch).
///
/// Since PR 4 the index is inverted (DESIGN.md §9): every kernel walks
/// only the postings of the query's own terms instead of scanning the
/// whole store, while returning results bit-identical to a naive scan —
/// same floating-point summation order, same tie-breaks, same ordering.
/// The FP inner loops (accumulation, cosine finalize) live in
/// vsm/kernels.hpp, which also carries the AVX2 scoring variant proven
/// bit-identical to the scalar reference.

#include <cstddef>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "vsm/sparse_vector.hpp"
#include "vsm/types.hpp"

namespace meteo::vsm {

namespace detail {
struct ScoreScratch;  // reusable per-thread accumulator (local_index.cpp)
}  // namespace detail

struct StoredItem {
  ItemId id = 0;
  SparseVector vector;
};

/// An item with its retrieval score (cosine similarity to the query).
struct ScoredItem {
  ItemId id = 0;
  double score = 0.0;
};

class LocalIndex {
 public:
  /// Inserts (or replaces) an item. A replace rewrites the item's posting
  /// lists in place (old terms removed, new terms added) so stale matches
  /// are impossible. \pre !vector.empty()
  void insert(ItemId id, SparseVector vector);

  /// Removes an item; returns false if absent.
  bool erase(ItemId id);

  /// Removes an item and returns it (vector moved out), or nullopt.
  std::optional<StoredItem> take(ItemId id);

  [[nodiscard]] bool contains(ItemId id) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  /// The stored vector of `id`, or nullptr if absent.
  [[nodiscard]] const SparseVector* vector_of(ItemId id) const noexcept;

  /// The stored item with the lowest cosine similarity to `reference`
  /// (ties broken toward the smallest item id), without removing it.
  /// Returns nullopt when the index is empty.
  [[nodiscard]] std::optional<ItemId> least_similar(
      const SparseVector& reference) const;

  /// Removes and returns the stored item with the lowest cosine similarity
  /// to `reference` (ties broken toward the smallest item id so eviction is
  /// deterministic). Returns nullopt when the index is empty.
  std::optional<StoredItem> evict_least_similar(const SparseVector& reference);

  /// The k most similar items to `query`, scored by cosine, descending.
  /// Fewer than k are returned if the index is smaller.
  [[nodiscard]] std::vector<ScoredItem> top_k(const SparseVector& query,
                                              std::size_t k) const;

  /// Caller-buffer overload: clears `out` and fills it with the top-k
  /// result, reusing `out`'s capacity (no per-call allocation once warm).
  void top_k(const SparseVector& query, std::size_t k,
             std::vector<ScoredItem>& out) const;

  /// All items whose vectors contain *every* keyword in `keywords`
  /// (conjunctive multi-keyword match, the query type from §1).
  [[nodiscard]] std::vector<ItemId> match_all(
      std::span<const KeywordId> keywords) const;
  void match_all(std::span<const KeywordId> keywords,
                 std::vector<ItemId>& out) const;

  /// All items containing *at least one* of `keywords`.
  [[nodiscard]] std::vector<ItemId> match_any(
      std::span<const KeywordId> keywords) const;
  void match_any(std::span<const KeywordId> keywords,
                 std::vector<ItemId>& out) const;

  /// All items whose angle to `query` is at most `tau` radians (§2's
  /// threshold-based similarity set U), scored by cosine descending.
  [[nodiscard]] std::vector<ScoredItem> within_angle(const SparseVector& query,
                                                     double tau) const;
  void within_angle(const SparseVector& query, double tau,
                    std::vector<ScoredItem>& out) const;

  /// Stable view of all stored items (iteration order is unspecified).
  [[nodiscard]] std::span<const StoredItem> items() const noexcept {
    return items_;
  }

 private:
  /// One keyword's postings in structure-of-arrays form: slots[j] is the
  /// items_ index of the j-th item containing the keyword and weights[j]
  /// its stored weight. Slots — not item ids — so the score accumulator
  /// can be a dense array; parallel arrays — not pairs — so the kernels
  /// (vsm/kernels.hpp) walk contiguous weight memory.
  struct PostingList {
    std::vector<std::size_t> slots;
    std::vector<double> weights;

    [[nodiscard]] std::size_t size() const noexcept { return slots.size(); }
  };

  /// Appends postings for every term of items_[slot].vector, recording
  /// each posting's position in posting_pos_[slot].
  void add_postings(std::size_t slot);

  /// Removes items_[slot]'s postings (swap-erase inside each list, fixing
  /// the displaced posting's back-reference).
  void remove_postings(std::size_t slot);

  /// Rewrites the slots recorded in the moved item's postings after a
  /// swap-erase moved it from the last slot to `slot`.
  void restamp_postings(std::size_t slot);

  /// Removes the item at `slot` and returns it.
  StoredItem take_slot(std::size_t slot);

  /// Term-at-a-time dot products of `query` against every stored item
  /// sharing at least one term, accumulated into `scratch` (DESIGN.md §9:
  /// per item, contributions arrive in ascending-keyword order — the same
  /// summation order as a merge-based sparse dot, so scores are
  /// bit-identical to a naive scan).
  void accumulate(const SparseVector& query,
                  detail::ScoreScratch& scratch) const;

  std::vector<StoredItem> items_;
  /// norms_[slot] = items_[slot].vector.norm(), kept parallel to items_
  /// so the scoring kernel reads norms from one contiguous array instead
  /// of chasing per-item vector headers (vsm/kernels.hpp).
  std::vector<double> norms_;
  /// posting_pos_[slot][j] = index within postings_[kw_j] of the item's
  /// posting for its j-th vector entry (parallel to the entry order).
  std::vector<std::vector<std::size_t>> posting_pos_;
  std::unordered_map<ItemId, std::size_t> positions_;
  std::unordered_map<KeywordId, PostingList> postings_;
};

}  // namespace meteo::vsm
