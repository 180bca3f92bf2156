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
#include <iterator>
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
/// `remove()` marks a pointer's slot a *hole* and touches no keyword
/// bucket, so no other pointer moves and a removal from a hot node does
/// not shift its buckets; `candidates()` skips the holes. Holes are
/// compacted out in one rebuild once they make up half the store, so a
/// removal costs amortized O(keywords). Removal finds its pointer
/// through a per-item index of sequence numbers, which compaction
/// preserves, so that index is never rebuilt.
class DirectoryStore {
 private:
  struct Stamp {
    /// Per-store publication counter: ascending along pointers_, and kept
    /// by compaction, so by_item_ never needs a rebuild.
    std::uint64_t seq = 0;
    /// Removed: the slot stays in its keyword buckets until compaction.
    bool hole = false;
  };

 public:
  /// The live positions of one keyword bucket, ascending. Hole positions
  /// are skipped; while the store has no holes the stamps are never read.
  class Candidates {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::size_t;
      using difference_type = std::ptrdiff_t;
      using pointer = const std::size_t*;
      using reference = const std::size_t&;

      iterator() = default;
      iterator(const std::size_t* at, const std::size_t* end,
               const Stamp* stamps)
          : at_(at), end_(end), stamps_(stamps) {
        skip_holes();
      }
      reference operator*() const { return *at_; }
      iterator& operator++() {
        ++at_;
        skip_holes();
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.at_ == b.at_;
      }

     private:
      void skip_holes() {
        if (stamps_ == nullptr) return;
        while (at_ != end_ && stamps_[*at_].hole) ++at_;
      }

      const std::size_t* at_ = nullptr;
      const std::size_t* end_ = nullptr;
      const Stamp* stamps_ = nullptr;  ///< nullptr: the store has no holes
    };

    Candidates() = default;
    Candidates(const std::vector<std::size_t>& bucket, const Stamp* stamps)
        : first_(bucket.data()),
          last_(bucket.data() + bucket.size()),
          stamps_(stamps) {}
    [[nodiscard]] iterator begin() const { return {first_, last_, stamps_}; }
    [[nodiscard]] iterator end() const { return {last_, last_, stamps_}; }

   private:
    const std::size_t* first_ = nullptr;
    const std::size_t* last_ = nullptr;
    const Stamp* stamps_ = nullptr;
  };

  void add(DirectoryPointer pointer) {
    const std::size_t position = pointers_.size();
    for (const vsm::KeywordId kw : pointer.keywords) {
      by_keyword_[kw].push_back(position);
    }
    by_item_.emplace(pointer.item, next_seq_);
    pointers_.push_back(std::move(pointer));
    stamps_.push_back(Stamp{next_seq_++, false});
  }

  /// Removes the earliest pointer for `item` (if present) by marking its
  /// slot a hole; the rest keep their positions.
  bool remove(vsm::ItemId item) {
    const auto [first, last] = by_item_.equal_range(item);
    if (first == last) return false;
    // Equal keys come back in no set order; the earliest pointer has the
    // least sequence number.
    const auto earliest =
        std::min_element(first, last, [](const auto& a, const auto& b) {
          return a.second < b.second;
        });
    stamps_[position_of(earliest->second)].hole = true;
    by_item_.erase(earliest);
    ++holes_;
    if (2 * holes_ >= pointers_.size()) compact();
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
  [[nodiscard]] Candidates candidates(vsm::KeywordId keyword) const {
    const auto it = by_keyword_.find(keyword);
    if (it == by_keyword_.end()) return {};
    return {it->second, holes_ > 0 ? stamps_.data() : nullptr};
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
  [[nodiscard]] std::size_t position_of(std::uint64_t seq) const {
    const auto it = std::lower_bound(
        stamps_.begin(), stamps_.end(), seq,
        [](const Stamp& s, std::uint64_t v) { return s.seq < v; });
    return static_cast<std::size_t>(it - stamps_.begin());
  }

  /// Sweeps out the holes and rebuilds the keyword buckets without them.
  /// The survivors keep their relative order, so `candidates()` still
  /// returns publication order.
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
