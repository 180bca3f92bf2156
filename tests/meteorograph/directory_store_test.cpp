/// Reference model for DirectoryStore (DESIGN.md §9).
///
/// Seeded random add / remove / gc / take_all sequences, with version
/// retention off and on, are checked after every step against a naive
/// vector that erases in place — the store's semantics before removal
/// learned to unlink and leave holes. Items repeat on purpose (a
/// re-publish or a depart handoff can leave two pointers for one item on
/// one node), so `remove()` must drop the earliest live copy, and drain
/// phases push the holes past the compaction threshold.

#include "meteorograph/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace meteo::core {
namespace {

constexpr vsm::KeywordId kKeywords = 12;
constexpr vsm::ItemId kItems = 16;

/// A pointer's identity: every add draws a fresh item_key, so two copies
/// of one item stay distinguishable.
using Id = std::pair<vsm::ItemId, overlay::Key>;

Id id_of(const DirectoryPointer& p) { return {p.item, p.item_key}; }

std::vector<Id> ids_of(const std::vector<DirectoryPointer>& pointers) {
  std::vector<Id> out;
  for (const DirectoryPointer& p : pointers) out.push_back(id_of(p));
  return out;
}

bool carries(const DirectoryPointer& p, vsm::KeywordId kw) {
  return std::binary_search(p.keywords.begin(), p.keywords.end(), kw);
}

/// The naive store: pointers in publication order with their epoch
/// stamps. A retained removal stamps the earliest live copy; any other
/// removal erases it in place.
class Model {
 public:
  void add(const DirectoryPointer& p) {
    entries_.push_back(Entry{p, write_epoch_, vsm::kEpochNever});
  }

  bool remove(vsm::ItemId item) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->pointer.item != item || it->removed != vsm::kEpochNever) {
        continue;
      }
      if (retain_) {
        it->removed = write_epoch_;
      } else {
        entries_.erase(it);
      }
      return true;
    }
    return false;
  }

  void gc() {
    std::erase_if(entries_, [](const Entry& e) {
      return e.removed != vsm::kEpochNever;
    });
  }

  std::vector<DirectoryPointer> take_all() {
    gc();
    std::vector<DirectoryPointer> out;
    for (const Entry& e : entries_) out.push_back(e.pointer);
    entries_.clear();
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(), [](const Entry& e) {
          return e.removed == vsm::kEpochNever;
        }));
  }

  /// Every pointer carrying `kw`, tombstones included: what a keyword
  /// bucket holds.
  [[nodiscard]] std::vector<Id> bucket(vsm::KeywordId kw) const {
    std::vector<Id> out;
    for (const Entry& e : entries_) {
      if (carries(e.pointer, kw)) out.push_back(id_of(e.pointer));
    }
    return out;
  }

  /// The pointers carrying `kw` that a reader at epoch `at` sees.
  [[nodiscard]] std::vector<Id> visible(vsm::KeywordId kw,
                                        vsm::Epoch at) const {
    std::vector<Id> out;
    for (const Entry& e : entries_) {
      const bool seen = at == vsm::kEpochLatest
                            ? e.removed == vsm::kEpochNever
                            : e.added <= at && at < e.removed;
      if (seen && carries(e.pointer, kw)) out.push_back(id_of(e.pointer));
    }
    return out;
  }

  void set_write_epoch(vsm::Epoch e) { write_epoch_ = e; }
  void retain_versions(bool on) { retain_ = on; }

 private:
  struct Entry {
    DirectoryPointer pointer;
    vsm::Epoch added;
    vsm::Epoch removed;
  };
  std::vector<Entry> entries_;
  vsm::Epoch write_epoch_ = 0;
  bool retain_ = false;
};

std::vector<Id> store_bucket(const DirectoryStore& store, vsm::KeywordId kw) {
  std::vector<Id> out;
  for (const std::size_t pos : store.candidates(kw)) {
    out.push_back(id_of(store.at(pos)));
  }
  return out;
}

std::vector<Id> store_visible(const DirectoryStore& store, vsm::KeywordId kw,
                              vsm::Epoch at) {
  std::vector<Id> out;
  for (const std::size_t pos : store.candidates(kw)) {
    if (store.visible_at(pos, at)) out.push_back(id_of(store.at(pos)));
  }
  return out;
}

/// Both stores, driven in lockstep and compared after every step.
class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_(seed) {}

  void add() {
    DirectoryPointer p;
    p.item = static_cast<vsm::ItemId>(rng_.below(kItems));
    p.item_key = next_key_++;
    const std::size_t n = 1 + rng_.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      p.keywords.push_back(static_cast<vsm::KeywordId>(rng_.below(kKeywords)));
    }
    std::sort(p.keywords.begin(), p.keywords.end());
    p.keywords.erase(std::unique(p.keywords.begin(), p.keywords.end()),
                     p.keywords.end());
    model_.add(p);
    store_.add(std::move(p));
  }

  void remove() {
    const auto item = static_cast<vsm::ItemId>(rng_.below(kItems));
    ASSERT_EQ(store_.remove(item), model_.remove(item)) << "item " << item;
  }

  void gc() {
    store_.gc();
    model_.gc();
  }

  /// A depart handoff: everything live moves out, then comes back in
  /// order as fresh publications.
  void take_all_and_readd() {
    std::vector<DirectoryPointer> got = store_.take_all();
    const std::vector<DirectoryPointer> want = model_.take_all();
    ASSERT_EQ(ids_of(got), ids_of(want));
    EXPECT_TRUE(store_.empty());
    for (DirectoryPointer& p : got) {
      model_.add(p);
      store_.add(std::move(p));
    }
  }

  /// Arms retention for the window after pinned epoch `pinned`.
  void arm(vsm::Epoch pinned) {
    store_.retain_versions(true);
    model_.retain_versions(true);
    store_.set_write_epoch(pinned + 1);
    model_.set_write_epoch(pinned + 1);
  }

  void disarm() {
    store_.retain_versions(false);
    model_.retain_versions(false);
    store_.set_write_epoch(0);
    model_.set_write_epoch(0);
    gc();
  }

  /// A random op; `drain` biases toward removal so holes pile up.
  void step(bool drain) {
    const double r = rng_.uniform();
    if (r < 0.01) {
      take_all_and_readd();
    } else if (r < (drain ? 0.2 : 0.65)) {
      add();
    } else {
      remove();
    }
  }

  /// Compares every observable; `pinned` is the epoch a retained window's
  /// readers hold, if any.
  void check(std::optional<vsm::Epoch> pinned) {
    ASSERT_EQ(store_.size(), model_.size());
    ASSERT_EQ(store_.empty(), model_.size() == 0);
    for (vsm::KeywordId kw = 0; kw < kKeywords; ++kw) {
      ASSERT_EQ(store_bucket(store_, kw), model_.bucket(kw)) << "kw " << kw;
      ASSERT_EQ(store_visible(store_, kw, vsm::kEpochLatest),
                model_.visible(kw, vsm::kEpochLatest))
          << "kw " << kw;
      if (pinned.has_value()) {
        ASSERT_EQ(store_visible(store_, kw, *pinned),
                  model_.visible(kw, *pinned))
            << "kw " << kw << " at epoch " << *pinned;
      }
    }
  }

 private:
  Rng rng_;
  DirectoryStore store_;
  Model model_;
  overlay::Key next_key_ = 1;
};

TEST(DirectoryStore, MatchesReferenceModelWithRetentionOff) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    for (std::size_t i = 0; i < 600; ++i) {
      ASSERT_NO_FATAL_FAILURE(h.step(/*drain=*/(i / 60) % 2 == 1))
          << "step " << i;
      ASSERT_NO_FATAL_FAILURE(h.check(std::nullopt)) << "step " << i;
    }
  }
}

// Engine-shaped runs: windows arm retention at pinned epoch E, pinned
// readers check their view after every write, and the seal gcs. Between
// windows the store is sometimes disarmed and written without retention,
// so seals also sweep the holes those writes leave.
TEST(DirectoryStore, MatchesReferenceModelAcrossEpochs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Harness h(seed);
    Rng plan(seed + 1000);
    vsm::Epoch epoch = 0;
    for (std::size_t window = 0; window < 40; ++window) {
      const bool retained = plan.chance(0.7);
      if (retained) {
        h.arm(epoch);
      } else {
        h.disarm();
      }
      const bool drain = plan.chance(0.4);
      const std::size_t ops = 1 + plan.below(24);
      for (std::size_t i = 0; i < ops; ++i) {
        ASSERT_NO_FATAL_FAILURE(h.step(drain))
            << "window " << window << " op " << i;
        ASSERT_NO_FATAL_FAILURE(
            h.check(retained ? std::optional<vsm::Epoch>(epoch)
                             : std::nullopt))
            << "window " << window << " op " << i;
      }
      if (retained) {
        h.gc();
        ++epoch;
        ASSERT_NO_FATAL_FAILURE(h.check(std::nullopt))
            << "after seal " << window;
      }
    }
  }
}

std::vector<std::size_t> positions(const DirectoryStore& store,
                                   vsm::KeywordId kw) {
  const std::span<const std::size_t> bucket = store.candidates(kw);
  return {bucket.begin(), bucket.end()};
}

// The amortized bound: holes cost no rebuild until they are half the
// store, and gc() leaves a store without tombstones as it is.
TEST(DirectoryStore, CompactsHolesOnceTheyReachHalf) {
  DirectoryStore store;
  for (vsm::ItemId item = 0; item < 10; ++item) {
    store.add(DirectoryPointer{item, item, {1}});
  }
  for (vsm::ItemId item = 0; item < 4; ++item) ASSERT_TRUE(store.remove(item));
  // Four holes in ten: the survivors keep their positions.
  const std::vector<std::size_t> unmoved{4, 5, 6, 7, 8, 9};
  EXPECT_EQ(positions(store, 1), unmoved);
  store.gc();
  EXPECT_EQ(positions(store, 1), unmoved);
  // The fifth hole makes half: one compaction packs the survivors.
  ASSERT_TRUE(store.remove(4));
  EXPECT_EQ(positions(store, 1), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(store.at(0).item, 5u);
  EXPECT_EQ(store.size(), 5u);
}

/// Arms retention for the window that commits into epoch `write`.
void arm(DirectoryStore& store, vsm::Epoch write) {
  store.retain_versions(true);
  store.set_write_epoch(write);
}

// A retained window's gc() unlinks its tombstones and leaves holes in
// their place, under the same threshold as a retention-off removal: the
// survivors keep their positions until holes are half the store.
TEST(DirectoryStore, RetainedGcUnlinksWithoutCompacting) {
  DirectoryStore store;
  for (vsm::ItemId item = 0; item < 10; ++item) {
    store.add(DirectoryPointer{item, item, {1}});
  }
  arm(store, 1);
  for (vsm::ItemId item = 0; item < 4; ++item) ASSERT_TRUE(store.remove(item));
  // Tombstones stay linked until the epoch boundary.
  EXPECT_EQ(positions(store, 1).size(), 10u);
  store.gc();
  EXPECT_EQ(positions(store, 1), (std::vector<std::size_t>{4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(store.size(), 6u);
  // The next window's fifth removal makes half at its gc: one compaction.
  arm(store, 2);
  ASSERT_TRUE(store.remove(4));
  store.gc();
  EXPECT_EQ(positions(store, 1), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(store.at(0).item, 5u);
  EXPECT_EQ(store.size(), 5u);

  // Holes left with retention off count toward the same threshold.
  DirectoryStore mixed;
  for (vsm::ItemId item = 0; item < 10; ++item) {
    mixed.add(DirectoryPointer{item, item, {1}});
  }
  for (vsm::ItemId item = 0; item < 3; ++item) ASSERT_TRUE(mixed.remove(item));
  arm(mixed, 1);
  ASSERT_TRUE(mixed.remove(3));
  mixed.gc();
  EXPECT_EQ(positions(mixed, 1), (std::vector<std::size_t>{4, 5, 6, 7, 8, 9}));
  arm(mixed, 2);
  ASSERT_TRUE(mixed.remove(4));
  EXPECT_EQ(positions(mixed, 1), (std::vector<std::size_t>{4, 5, 6, 7, 8, 9}));
  mixed.gc();
  EXPECT_EQ(positions(mixed, 1), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(mixed.at(0).item, 5u);
  EXPECT_EQ(mixed.size(), 5u);
}

}  // namespace
}  // namespace meteo::core
