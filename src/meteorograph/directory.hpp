#pragma once

/// \file directory.hpp
/// Directory pointers (paper §3.5.2).
///
/// With Eq. 6 in force, items are spread nearly uniformly over the key
/// space, so similar items no longer sit on adjacent nodes. Meteorograph
/// restores similarity locality with a level of indirection: alongside the
/// item (stored at its Eq. 6 key), a small *pointer* is published at the
/// item's raw Eq. 5 key. Pointers of similar items therefore cluster, and
/// a similarity search walks the pointer space, chasing each matching
/// pointer to the node holding the item.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/key_space.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

struct DirectoryPointer {
  vsm::ItemId item = 0;
  /// Where the item itself lives: its Eq. 6 (balanced) key.
  overlay::Key item_key = 0;
  /// The keywords characterizing the item (sorted), used for matching.
  std::vector<vsm::KeywordId> keywords;

  /// True when the pointer's item contains every keyword of `query`.
  [[nodiscard]] bool matches(std::span<const vsm::KeywordId> query) const {
    return std::all_of(query.begin(), query.end(), [&](vsm::KeywordId k) {
      return std::binary_search(keywords.begin(), keywords.end(), k);
    });
  }
};

/// Keyword-indexed container for one node's directory pointers
/// (DESIGN.md §9). Appends preserve publication order — searches chase
/// pointers in that order, which the determinism goldens pin down — and
/// `candidates()` returns, in the same order, the positions of pointers
/// carrying a given keyword, so a search probes one bucket instead of
/// scanning the node's whole directory on every visit.
///
/// `remove()` unlinks a pointer from its keyword buckets and leaves a
/// *hole*, so no other pointer moves; holes are compacted out in one
/// rebuild once they make up half the store, so a removal costs
/// amortized O(keywords). Removal finds its pointer through a per-item
/// index of sequence numbers, which compaction preserves, so that index
/// is never rebuilt.
class DirectoryStore {
 public:
  void add(DirectoryPointer pointer) {
    const std::size_t position = pointers_.size();
    for (const vsm::KeywordId kw : pointer.keywords) {
      by_keyword_[kw].push_back(position);
    }
    by_item_.emplace(pointer.item, next_seq_);
    pointers_.push_back(std::move(pointer));
    stamps_.push_back(Stamp{next_seq_++, false});
  }

  /// Removes the earliest pointer for `item` (if present) by unlinking it,
  /// which leaves a hole; the rest keep their relative order.
  bool remove(vsm::ItemId item) {
    const auto [first, last] = by_item_.equal_range(item);
    if (first == last) return false;
    // Equal keys come back in no set order; the earliest pointer has the
    // least sequence number.
    const auto earliest =
        std::min_element(first, last, [](const auto& a, const auto& b) {
          return a.second < b.second;
        });
    const std::size_t p = position_of(earliest->second);
    by_item_.erase(earliest);
    unlink(p);
    compact_if_half_holes();
    return true;
  }

  /// The pointer at `position`, one of the positions `candidates()`
  /// returns.
  [[nodiscard]] const DirectoryPointer& at(std::size_t position) const {
    return pointers_[position];
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return pointers_.size() - holes_;
  }

  /// Positions (in publication order) of pointers whose keyword list
  /// contains `keyword`, never a hole; empty when no pointer on this node
  /// carries it — the common case, since pointers for a keyword cluster
  /// near the raw keys of the vectors containing it.
  [[nodiscard]] std::span<const std::size_t> candidates(
      vsm::KeywordId keyword) const {
    const auto it = by_keyword_.find(keyword);
    if (it == by_keyword_.end()) return {};
    return it->second;
  }

  /// Moves every pointer out (handing off to surviving nodes on depart)
  /// in publication order, leaving the store empty.
  [[nodiscard]] std::vector<DirectoryPointer> take_all() {
    by_keyword_.clear();
    by_item_.clear();
    std::vector<DirectoryPointer> out;
    out.reserve(size());
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (!stamps_[i].hole) out.push_back(std::move(pointers_[i]));
    }
    pointers_.clear();
    stamps_.clear();
    holes_ = 0;
    return out;
  }

 private:
  struct Stamp {
    /// Per-store publication counter: ascending along pointers_, and kept
    /// by compaction, so by_item_ never needs a rebuild.
    std::uint64_t seq = 0;
    /// Unlinked by remove(): no keyword bucket lists the position.
    bool hole = false;
  };

  [[nodiscard]] std::size_t position_of(std::uint64_t seq) const {
    const auto it = std::lower_bound(
        stamps_.begin(), stamps_.end(), seq,
        [](const Stamp& s, std::uint64_t v) { return s.seq < v; });
    return static_cast<std::size_t>(it - stamps_.begin());
  }

  /// Unlinks the pointer at `p` from each of its keyword buckets (a
  /// binary search apiece: buckets stay sorted by position) and leaves a
  /// hole.
  void unlink(std::size_t p) {
    for (const vsm::KeywordId kw : pointers_[p].keywords) {
      const auto bucket = by_keyword_.find(kw);
      std::vector<std::size_t>& positions = bucket->second;
      positions.erase(std::lower_bound(positions.begin(), positions.end(), p));
      if (positions.empty()) by_keyword_.erase(bucket);
    }
    stamps_[p].hole = true;
    ++holes_;
  }

  void compact_if_half_holes() {
    if (2 * holes_ >= pointers_.size()) compact();
  }

  /// Sweeps out the holes. The survivors keep their relative order, so
  /// `candidates()` still returns publication order.
  void compact() {
    std::size_t w = 0;
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].hole) continue;
      if (w != i) {
        pointers_[w] = std::move(pointers_[i]);
        stamps_[w] = stamps_[i];
      }
      ++w;
    }
    pointers_.resize(w);
    stamps_.resize(w);
    holes_ = 0;
    reindex();
  }

  void reindex() {
    by_keyword_.clear();
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      for (const vsm::KeywordId kw : pointers_[i].keywords) {
        by_keyword_[kw].push_back(i);
      }
    }
  }

  std::vector<DirectoryPointer> pointers_;
  std::vector<Stamp> stamps_;  ///< parallel to pointers_
  std::unordered_map<vsm::KeywordId, std::vector<std::size_t>> by_keyword_;
  /// Sequence numbers of the stored pointers, by item.
  std::unordered_multimap<vsm::ItemId, std::uint64_t> by_item_;
  std::size_t holes_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace meteo::core
