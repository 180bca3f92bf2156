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
/// A removed pointer is unlinked from its keyword buckets and becomes a
/// *hole* that no epoch sees, so no other pointer moves; holes are
/// compacted out in one rebuild once they make up half the store, so a
/// removal costs amortized O(keywords). With version retention off the
/// unlink happens in `remove()`. With retention on, `remove()` tombstones
/// the pointer and records its position, and `gc()` unlinks exactly the
/// recorded positions at the epoch boundary, in O(tombstones × keywords).
/// Removal finds its pointer through a per-item index of sequence
/// numbers, which compaction preserves, so that index is never rebuilt.
class DirectoryStore {
 public:
  void add(DirectoryPointer pointer) {
    const std::size_t position = pointers_.size();
    for (const vsm::KeywordId kw : pointer.keywords) {
      by_keyword_[kw].push_back(position);
    }
    by_item_.emplace(pointer.item, next_seq_);
    pointers_.push_back(std::move(pointer));
    stamps_.push_back(Stamp{write_epoch_, vsm::kEpochNever, next_seq_++});
  }

  /// Removes the earliest live pointer for `item` (if present), keeping
  /// the relative order of the rest. While version retention is armed
  /// (DESIGN.md §11) the pointer is tombstoned in place — readers pinned
  /// at an older epoch still see it — and its position is recorded for
  /// gc() to unlink at the epoch boundary. Otherwise it is unlinked now,
  /// leaving a hole.
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
    if (retain_) {
      // An armed store only appends and tombstones, so `p` stays put
      // until gc().
      stamps_[p].removed = write_epoch_;
      tombstoned_.push_back(p);
      return true;
    }
    unlink(p);
    compact_if_half_holes();
    return true;
  }

  /// The pointer at `position`, one of the positions `candidates()`
  /// returns; check `visible_at()` before reading it under a pinned view.
  [[nodiscard]] const DirectoryPointer& at(std::size_t position) const {
    return pointers_[position];
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return pointers_.size() - tombstoned_.size() - holes_;
  }

  /// Is the pointer at `position` part of the epoch-`at` view?
  /// kEpochLatest means "neither tombstoned nor a hole" — which is every
  /// position `candidates()` returns while retention is off. A hole's
  /// lifetime is empty, so no epoch sees it.
  [[nodiscard]] bool visible_at(std::size_t position,
                                vsm::Epoch at) const noexcept {
    const Stamp& s = stamps_[position];
    if (at == vsm::kEpochLatest) return s.removed == vsm::kEpochNever;
    return s.added <= at && at < s.removed;
  }

  void set_write_epoch(vsm::Epoch e) noexcept { write_epoch_ = e; }
  void retain_versions(bool on) noexcept { retain_ = on; }

  /// Turns this window's tombstones into holes, unlinking each from its
  /// keyword buckets, and compacts once holes are half the store. The
  /// survivors keep their positions below that threshold; a store without
  /// tombstones is left as it is.
  void gc() {
    if (tombstoned_.empty()) return;
    for (const std::size_t p : tombstoned_) unlink(p);
    tombstoned_.clear();
    compact_if_half_holes();
  }

  /// Positions (in publication order) of pointers whose keyword list
  /// contains `keyword`; empty when no pointer on this node carries it —
  /// the common case, since pointers for a keyword cluster near the raw
  /// keys of the vectors containing it.
  [[nodiscard]] std::span<const std::size_t> candidates(
      vsm::KeywordId keyword) const {
    const auto it = by_keyword_.find(keyword);
    if (it == by_keyword_.end()) return {};
    return it->second;
  }

  /// Moves every live pointer out (handing off to surviving nodes on
  /// depart), leaving the store empty. Tombstoned pointers are dropped:
  /// their items were withdrawn this epoch, and the depart fence
  /// guarantees no reader still pins the epoch that could see them.
  [[nodiscard]] std::vector<DirectoryPointer> take_all() {
    by_keyword_.clear();
    by_item_.clear();
    std::vector<DirectoryPointer> out;
    out.reserve(size());
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].removed == vsm::kEpochNever) {
        out.push_back(std::move(pointers_[i]));
      }
    }
    pointers_.clear();
    stamps_.clear();
    tombstoned_.clear();
    holes_ = 0;
    return out;
  }

 private:
  struct Stamp {
    vsm::Epoch added = 0;
    vsm::Epoch removed = vsm::kEpochNever;
    /// Per-store publication counter: ascending along pointers_, and kept
    /// by compaction, so by_item_ never needs a rebuild.
    std::uint64_t seq = 0;
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
    stamps_[p].removed = stamps_[p].added;  // empty lifetime: a hole
    ++holes_;
  }

  void compact_if_half_holes() {
    if (2 * holes_ >= pointers_.size()) compact();
  }

  /// Sweeps out tombstones and holes. The survivors keep their relative
  /// order, so `candidates()` still returns publication order.
  void compact() {
    std::size_t w = 0;
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].removed != vsm::kEpochNever) continue;
      if (w != i) {
        pointers_[w] = std::move(pointers_[i]);
        stamps_[w] = stamps_[i];
      }
      ++w;
    }
    pointers_.resize(w);
    stamps_.resize(w);
    tombstoned_.clear();
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
  /// Sequence numbers of the live pointers, by item.
  std::unordered_multimap<vsm::ItemId, std::uint64_t> by_item_;
  /// Positions tombstoned while retention is armed, for gc() to unlink.
  std::vector<std::size_t> tombstoned_;
  std::size_t holes_ = 0;
  std::uint64_t next_seq_ = 0;
  vsm::Epoch write_epoch_ = 0;
  bool retain_ = false;
};

}  // namespace meteo::core
