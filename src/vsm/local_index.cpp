#include "vsm/local_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/assert.hpp"
#include "vsm/kernels.hpp"

namespace meteo::vsm {

namespace detail {

/// Dense-over-slots score accumulator. `epoch` tags make clearing O(1):
/// a slot whose tag differs from `cur` reads as untouched, so starting a
/// query is one counter bump, and scoring allocates nothing once the
/// arrays are warm. The scratch is thread_local (see begin_scratch) so
/// const kernels stay safe under the EpochEngine's parallel read phases.
struct ScoreScratch {
  std::vector<double> acc;          ///< partial dot product per slot
  std::vector<std::size_t> count;   ///< matched-term count per slot
  std::vector<std::uint64_t> epoch; ///< last query that touched the slot
  std::vector<std::size_t> touched; ///< slots touched by this query
  std::vector<double> scores;       ///< per-touched scores (kernel output)
  std::vector<ScoredItem> scored;   ///< kernel-local result staging
  std::vector<ItemId> zero_ids;     ///< kernel-local zero-score staging
  std::uint64_t cur = 0;
};

}  // namespace detail

namespace {

using detail::ScoreScratch;

/// The per-thread scratch, grown to cover `slots` and advanced to a fresh
/// epoch. Sharing one scratch across every LocalIndex on the thread is
/// safe because each call starts a new epoch.
ScoreScratch& begin_scratch(std::size_t slots) {
  // meteo-lint: scoped(epoch-stamped scratch; contents never outlive one query and never feed results across calls, DESIGN.md §9)
  thread_local ScoreScratch s;
  if (s.acc.size() < slots) {
    s.acc.resize(slots);
    s.count.resize(slots);
    s.epoch.resize(slots, 0);
  }
  ++s.cur;
  s.touched.clear();
  return s;
}

/// Finalizes this query's touched slots into s.scores via the scoring
/// kernel (scalar or AVX2 per kernels::variant(); both bit-identical —
/// vsm/kernels.hpp). s.scores[i] scores s.touched[i].
void score_touched_into(ScoreScratch& s, const std::vector<double>& norms,
                        double qnorm) {
  s.scores.resize(s.touched.size());
  kernels::score_touched(s.acc.data(), norms.data(), s.touched.data(),
                         s.touched.size(), qnorm, s.scores.data());
}

/// The ordering every scored kernel reports: score descending, then item
/// id ascending — a total order, so results never depend on posting-list
/// internals.
constexpr auto by_score_then_id = [](const ScoredItem& a,
                                     const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
};

/// Index of `keyword` within `vector`'s entry array. \pre present
std::size_t entry_index(const SparseVector& vector, KeywordId keyword) {
  const auto entries = vector.entries();
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), keyword,
      [](const Entry& e, KeywordId k) { return e.keyword < k; });
  METEO_ASSERT(it != entries.end() && it->keyword == keyword);
  return static_cast<std::size_t>(it - entries.begin());
}

}  // namespace

void LocalIndex::add_postings(std::size_t slot) {
  std::vector<std::size_t>& pp = posting_pos_[slot];
  pp.clear();
  for (const Entry& e : items_[slot].vector.entries()) {
    PostingList& list = postings_[e.keyword];
    pp.push_back(list.size());
    list.slots.push_back(slot);
    list.weights.push_back(e.weight);
  }
}

void LocalIndex::remove_postings(std::size_t slot) {
  const auto entries = items_[slot].vector.entries();
  std::vector<std::size_t>& pp = posting_pos_[slot];
  for (std::size_t j = 0; j < entries.size(); ++j) {
    const KeywordId kw = entries[j].keyword;
    const auto list_it = postings_.find(kw);
    METEO_ASSERT(list_it != postings_.end());
    PostingList& list = list_it->second;
    const std::size_t pos = pp[j];
    if (pos != list.size() - 1) {
      list.slots[pos] = list.slots.back();
      list.weights[pos] = list.weights.back();
      // The displaced posting belongs to another item (an item holds at
      // most one posting per keyword); point its back-reference here.
      const std::size_t moved_slot = list.slots[pos];
      posting_pos_[moved_slot][entry_index(items_[moved_slot].vector, kw)] =
          pos;
    }
    list.slots.pop_back();
    list.weights.pop_back();
    if (list.slots.empty()) postings_.erase(list_it);
  }
  pp.clear();
}

void LocalIndex::restamp_postings(std::size_t slot) {
  const auto entries = items_[slot].vector.entries();
  const std::vector<std::size_t>& pp = posting_pos_[slot];
  for (std::size_t j = 0; j < entries.size(); ++j) {
    postings_.at(entries[j].keyword).slots[pp[j]] = slot;
  }
}

void LocalIndex::insert(ItemId id, SparseVector vector) {
  METEO_EXPECTS(!vector.empty());
  const auto it = positions_.find(id);
  if (it != positions_.end()) {
    // In-place replace: the old terms' postings must go before the new
    // vector lands, or match_* would keep returning stale matches.
    const std::size_t slot = it->second;
    remove_postings(slot);
    items_[slot].vector = std::move(vector);
    norms_[slot] = items_[slot].vector.norm();
    add_postings(slot);
    return;
  }
  const std::size_t slot = items_.size();
  positions_.emplace(id, slot);
  items_.push_back(StoredItem{id, std::move(vector)});
  norms_.push_back(items_.back().vector.norm());
  posting_pos_.emplace_back();
  add_postings(slot);
}

StoredItem LocalIndex::take_slot(std::size_t slot) {
  remove_postings(slot);
  StoredItem out = std::move(items_[slot]);
  positions_.erase(out.id);
  const std::size_t last = items_.size() - 1;
  if (slot != last) {
    items_[slot] = std::move(items_[last]);
    norms_[slot] = norms_[last];
    posting_pos_[slot] = std::move(posting_pos_[last]);
    positions_[items_[slot].id] = slot;
    restamp_postings(slot);
  }
  items_.pop_back();
  norms_.pop_back();
  posting_pos_.pop_back();
  return out;
}

bool LocalIndex::erase(ItemId id) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return false;
  (void)take_slot(it->second);
  return true;
}

std::optional<StoredItem> LocalIndex::take(ItemId id) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return std::nullopt;
  return take_slot(it->second);
}

bool LocalIndex::contains(ItemId id) const noexcept {
  return positions_.contains(id);
}

const SparseVector* LocalIndex::vector_of(ItemId id) const noexcept {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return nullptr;
  return &items_[it->second].vector;
}

void LocalIndex::accumulate(const SparseVector& query,
                            detail::ScoreScratch& s) const {
  for (const Entry& e : query.entries()) {
    const auto it = postings_.find(e.keyword);
    if (it == postings_.end()) continue;
    const PostingList& list = it->second;
    kernels::accumulate_term(e.weight, list.slots.data(), list.weights.data(),
                             list.size(), s.acc.data(), s.epoch.data(), s.cur,
                             s.touched);
  }
}

std::optional<ItemId> LocalIndex::least_similar(
    const SparseVector& reference) const {
  if (items_.empty()) return std::nullopt;
  ScoreScratch& s = begin_scratch(items_.size());
  accumulate(reference, s);
  const double rnorm = reference.norm();
  ItemId worst_id = 0;
  double worst_score = 2.0;  // above any cosine
  const auto consider = [&](ItemId id, double score) {
    if (score < worst_score || (score == worst_score && id < worst_id)) {
      worst_score = score;
      worst_id = id;
    }
  };
  score_touched_into(s, norms_, rnorm);
  for (std::size_t t = 0; t < s.touched.size(); ++t) {
    consider(items_[s.touched[t]].id, s.scores[t]);
  }
  if (s.touched.size() != items_.size()) {
    // Items sharing no term with the reference score exactly 0.0 — the
    // same value the naive scan's dot/cosine produces for them.
    for (std::size_t slot = 0; slot < items_.size(); ++slot) {
      if (s.epoch[slot] != s.cur) consider(items_[slot].id, 0.0);
    }
  }
  return worst_id;
}

std::optional<StoredItem> LocalIndex::evict_least_similar(
    const SparseVector& reference) {
  const std::optional<ItemId> victim = least_similar(reference);
  if (!victim.has_value()) return std::nullopt;
  return take(*victim);
}

void LocalIndex::top_k(const SparseVector& query, std::size_t k,
                       std::vector<ScoredItem>& out) const {
  out.clear();
  const std::size_t take_n = std::min(k, items_.size());
  if (take_n == 0) return;
  ScoreScratch& s = begin_scratch(items_.size());
  accumulate(query, s);
  const double qnorm = query.norm();
  s.scored.clear();
  s.zero_ids.clear();
  score_touched_into(s, norms_, qnorm);
  for (std::size_t t = 0; t < s.touched.size(); ++t) {
    const double score = s.scores[t];
    if (score > 0.0) {
      s.scored.push_back(ScoredItem{items_[s.touched[t]].id, score});
    } else {
      s.zero_ids.push_back(items_[s.touched[t]].id);
    }
  }
  if (s.scored.size() >= take_n) {
    std::partial_sort(s.scored.begin(),
                      s.scored.begin() + static_cast<std::ptrdiff_t>(take_n),
                      s.scored.end(), by_score_then_id);
    out.assign(s.scored.begin(),
               s.scored.begin() + static_cast<std::ptrdiff_t>(take_n));
    return;
  }
  // Not enough overlapping items: the naive scan pads with zero-score
  // items in ascending-id order (its tie-break), so do the same.
  std::sort(s.scored.begin(), s.scored.end(), by_score_then_id);
  out.assign(s.scored.begin(), s.scored.end());
  for (std::size_t slot = 0; slot < items_.size(); ++slot) {
    if (s.epoch[slot] != s.cur) s.zero_ids.push_back(items_[slot].id);
  }
  std::sort(s.zero_ids.begin(), s.zero_ids.end());
  for (const ItemId id : s.zero_ids) {
    if (out.size() == take_n) break;
    out.push_back(ScoredItem{id, 0.0});
  }
}

std::vector<ScoredItem> LocalIndex::top_k(const SparseVector& query,
                                          std::size_t k) const {
  std::vector<ScoredItem> out;
  top_k(query, k, out);
  return out;
}

void LocalIndex::match_all(std::span<const KeywordId> keywords,
                           std::vector<ItemId>& out) const {
  out.clear();
  // Empty-store fast path: most nodes of a large overlay store nothing,
  // and a walk visits them all — skip the scratch and the hash probes.
  if (items_.empty()) return;
  if (keywords.empty()) {
    for (const StoredItem& item : items_) out.push_back(item.id);
    std::sort(out.begin(), out.end());
    return;
  }
  if (keywords.size() == 1) {
    // One term needs no counting scratch: its posting list IS the match
    // set. Single-keyword conjunctions dominate similarity_search walks.
    const auto it = postings_.find(keywords[0]);
    if (it == postings_.end()) return;
    for (const std::size_t slot : it->second.slots) {
      out.push_back(items_[slot].id);
    }
    std::sort(out.begin(), out.end());
    return;
  }
  ScoreScratch& s = begin_scratch(items_.size());
  for (const KeywordId kw : keywords) {
    const auto it = postings_.find(kw);
    if (it == postings_.end()) return;  // a term nobody has: no matches
    kernels::accumulate_count(it->second.slots.data(), it->second.size(),
                              s.count.data(), s.epoch.data(), s.cur,
                              s.touched);
  }
  for (const std::size_t slot : s.touched) {
    if (s.count[slot] == keywords.size()) out.push_back(items_[slot].id);
  }
  std::sort(out.begin(), out.end());
}

std::vector<ItemId> LocalIndex::match_all(
    std::span<const KeywordId> keywords) const {
  std::vector<ItemId> out;
  match_all(keywords, out);
  return out;
}

void LocalIndex::match_any(std::span<const KeywordId> keywords,
                           std::vector<ItemId>& out) const {
  out.clear();
  if (items_.empty()) return;
  ScoreScratch& s = begin_scratch(items_.size());
  for (const KeywordId kw : keywords) {
    const auto it = postings_.find(kw);
    if (it == postings_.end()) continue;
    for (const std::size_t slot : it->second.slots) {
      if (s.epoch[slot] != s.cur) {
        s.epoch[slot] = s.cur;
        s.touched.push_back(slot);
      }
    }
  }
  for (const std::size_t slot : s.touched) out.push_back(items_[slot].id);
  std::sort(out.begin(), out.end());
}

std::vector<ItemId> LocalIndex::match_any(
    std::span<const KeywordId> keywords) const {
  std::vector<ItemId> out;
  match_any(keywords, out);
  return out;
}

void LocalIndex::within_angle(const SparseVector& query, double tau,
                              std::vector<ScoredItem>& out) const {
  METEO_EXPECTS(tau >= 0.0);
  // cos(pi/2) is ~6e-17 rather than 0; the epsilon keeps boundary angles
  // (exactly tau) inside the result set.
  const double min_cosine = std::cos(tau) - 1e-12;
  out.clear();
  if (items_.empty()) return;
  ScoreScratch& s = begin_scratch(items_.size());
  accumulate(query, s);
  const double qnorm = query.norm();
  score_touched_into(s, norms_, qnorm);
  for (std::size_t t = 0; t < s.touched.size(); ++t) {
    const double score = s.scores[t];
    if (score >= min_cosine) {
      out.push_back(ScoredItem{items_[s.touched[t]].id, score});
    }
  }
  if (0.0 >= min_cosine) {
    // tau reaches (numerically) pi/2: zero-overlap items are in range too.
    for (std::size_t slot = 0; slot < items_.size(); ++slot) {
      if (s.epoch[slot] != s.cur) {
        out.push_back(ScoredItem{items_[slot].id, 0.0});
      }
    }
  }
  std::sort(out.begin(), out.end(), by_score_then_id);
}

std::vector<ScoredItem> LocalIndex::within_angle(const SparseVector& query,
                                                 double tau) const {
  std::vector<ScoredItem> out;
  within_angle(query, tau, out);
  return out;
}

}  // namespace meteo::vsm
