/// Reference model for DirectoryStore (DESIGN.md §9).
///
/// Seeded random add / remove / take_all sequences are checked after
/// every step against a naive vector that erases in place — the store's
/// semantics before removal learned to unlink and leave holes. Items
/// repeat on purpose (a re-publish or a depart handoff can leave two
/// pointers for one item on one node), so `remove()` must drop the
/// earliest copy, and drain phases push the holes past the compaction
/// threshold.

#include "meteorograph/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// The naive store: pointers in publication order; a removal erases
/// the earliest copy in place.
class Model {
 public:
  void add(const DirectoryPointer& p) { pointers_.push_back(p); }

  bool remove(vsm::ItemId item) {
    const auto it = std::find_if(
        pointers_.begin(), pointers_.end(),
        [&](const DirectoryPointer& p) { return p.item == item; });
    if (it == pointers_.end()) return false;
    pointers_.erase(it);
    return true;
  }

  std::vector<DirectoryPointer> take_all() {
    return std::exchange(pointers_, {});
  }

  [[nodiscard]] std::size_t size() const { return pointers_.size(); }

  /// Every pointer carrying `kw`: what a keyword bucket holds.
  [[nodiscard]] std::vector<Id> bucket(vsm::KeywordId kw) const {
    std::vector<Id> out;
    for (const DirectoryPointer& p : pointers_) {
      if (carries(p, kw)) out.push_back(id_of(p));
    }
    return out;
  }

 private:
  std::vector<DirectoryPointer> pointers_;
};

std::vector<Id> store_bucket(const DirectoryStore& store, vsm::KeywordId kw) {
  std::vector<Id> out;
  for (const std::size_t pos : store.candidates(kw)) {
    out.push_back(id_of(store.at(pos)));
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

  /// Compares every observable: sizes, and each keyword's candidates in
  /// publication order (a hole in a bucket would show up here).
  void check() {
    ASSERT_EQ(store_.size(), model_.size());
    ASSERT_EQ(store_.empty(), model_.size() == 0);
    for (vsm::KeywordId kw = 0; kw < kKeywords; ++kw) {
      ASSERT_EQ(store_bucket(store_, kw), model_.bucket(kw)) << "kw " << kw;
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
      ASSERT_NO_FATAL_FAILURE(h.check()) << "step " << i;
    }
  }
}

std::vector<std::size_t> positions(const DirectoryStore& store,
                                   vsm::KeywordId kw) {
  const std::span<const std::size_t> bucket = store.candidates(kw);
  return {bucket.begin(), bucket.end()};
}

// The amortized bound: holes cost no rebuild until they are half the
// store.
TEST(DirectoryStore, CompactsHolesOnceTheyReachHalf) {
  DirectoryStore store;
  for (vsm::ItemId item = 0; item < 10; ++item) {
    store.add(DirectoryPointer{item, item, {1}});
  }
  for (vsm::ItemId item = 0; item < 4; ++item) ASSERT_TRUE(store.remove(item));
  // Four holes in ten: the survivors keep their positions.
  const std::vector<std::size_t> unmoved{4, 5, 6, 7, 8, 9};
  EXPECT_EQ(positions(store, 1), unmoved);
  // The fifth hole makes half: one compaction packs the survivors.
  ASSERT_TRUE(store.remove(4));
  EXPECT_EQ(positions(store, 1), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(store.at(0).item, 5u);
  EXPECT_EQ(store.size(), 5u);
}

}  // namespace
}  // namespace meteo::core
