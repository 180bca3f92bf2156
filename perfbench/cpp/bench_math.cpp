#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <variant>

namespace perfbench {

namespace core = meteo::core;
namespace vsm = meteo::vsm;

// --- percentiles -------------------------------------------------------------

double nearest_rank(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Quantile median(std::span<const double> xs) {
  return {0.5, nearest_rank(xs, 0.5), xs.size()};
}

Quantile tail(std::span<const double> xs, double cap, std::size_t beyond) {
  const std::size_t n = xs.size();
  if (n <= beyond) return median(xs);
  const double q = std::min(
      cap, static_cast<double>(n - beyond) / static_cast<double>(n));
  return {q, nearest_rank(xs, q), n};
}

double geomean(std::span<const double> xs) {
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

// --- failure classification --------------------------------------------------

bool degraded(const core::Degradation& d) noexcept {
  return d.partial || d.degraded || d.fault_blocked;
}

bool failed(const core::PublishResult& r) noexcept {
  return !r.success || degraded(r);
}
bool failed(const core::RetrieveResult& r) noexcept { return degraded(r); }
bool failed(const core::SearchResult& r) noexcept { return degraded(r); }
bool failed(const core::RangeSearchResult& r) noexcept { return degraded(r); }
bool failed(const core::DepartResult& /*r*/) noexcept { return false; }
bool failed(const core::LocateResult& r, bool live) noexcept {
  return degraded(r) || (live && !r.found);
}
bool failed(const core::WithdrawResult& r, bool live) noexcept {
  return live && !r.removed;
}

bool failed(const core::EpochEngine::OpResult& r, bool live) noexcept {
  return std::visit(
      [live](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, core::LocateResult> ||
                      std::is_same_v<T, core::WithdrawResult>) {
          return failed(x, live);
        } else {
          return failed(x);
        }
      },
      r);
}

bool failed(const core::Server::Completion& c, bool live) noexcept {
  return c.deadline_exceeded || failed(c.result, live);
}

// --- message accounting ------------------------------------------------------

std::size_t messages(const core::PublishResult& r) noexcept {
  return r.total_messages();
}
std::size_t messages(const core::SearchResult& r) noexcept {
  return r.total_messages();
}
std::size_t messages(const core::WithdrawResult& r) noexcept {
  return r.messages;
}
std::size_t messages(const core::DepartResult& r) noexcept {
  return r.messages;
}
std::size_t messages(const core::OpCost& r) noexcept {
  return r.total_messages();
}
std::size_t messages(const core::EpochEngine::OpResult& r) noexcept {
  return std::visit([](const auto& x) { return messages(x); }, r);
}

// --- correctness checks ------------------------------------------------------

namespace {

std::vector<vsm::ItemId> sorted_copy(std::span<const vsm::ItemId> ids) {
  std::vector<vsm::ItemId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool has_duplicates(const std::vector<vsm::ItemId>& sorted) {
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

}  // namespace

Check check_discover_all(std::span<const vsm::ItemId> got,
                         std::span<const vsm::ItemId> expected) {
  const std::vector<vsm::ItemId> ids = sorted_copy(got);
  if (has_duplicates(ids)) {
    return Violation{"search.discover_all_exact", "an item was returned twice"};
  }
  if (!std::equal(ids.begin(), ids.end(), expected.begin(), expected.end())) {
    return Violation{"search.discover_all_exact",
                     "returned " + std::to_string(ids.size()) +
                         " items, brute force matches " +
                         std::to_string(expected.size())};
  }
  return std::nullopt;
}

Check check_top_k_subset(std::span<const vsm::ItemId> got,
                         std::span<const vsm::ItemId> expected,
                         std::size_t k) {
  const std::vector<vsm::ItemId> ids = sorted_copy(got);
  if (has_duplicates(ids)) {
    return Violation{"search.top_k_subset", "an item was returned twice"};
  }
  if (!std::includes(expected.begin(), expected.end(), ids.begin(),
                     ids.end())) {
    return Violation{"search.top_k_subset",
                     "an item outside the brute-force match set"};
  }
  const std::size_t need = std::min(k, expected.size());
  if (ids.size() < need) {
    return Violation{"search.top_k_subset",
                     "returned " + std::to_string(ids.size()) +
                         " items, at least " + std::to_string(need) +
                         " match"};
  }
  return std::nullopt;
}

Check check_descending(const core::RetrieveResult& r) {
  for (std::size_t i = 1; i < r.items.size(); ++i) {
    if (r.items[i].score > r.items[i - 1].score) {
      return Violation{"retrieve.descending",
                       "score at rank " + std::to_string(i) +
                           " exceeds the one before it"};
    }
  }
  return std::nullopt;
}

Check check_located(const core::LocateResult& r, vsm::ItemId item) {
  if (r.found) return std::nullopt;
  return Violation{"locate.found",
                   "live item " + std::to_string(item) + " not found"};
}

Check check_withdrawn(const core::LocateResult& r, vsm::ItemId item) {
  if (!r.found) return std::nullopt;
  return Violation{"withdraw.gone",
                   "withdrawn item " + std::to_string(item) +
                       " still located"};
}

Check check_stored_count(std::size_t stored, std::size_t published,
                         std::size_t removed) {
  if (removed <= published && stored == published - removed) {
    return std::nullopt;
  }
  return Violation{"ingest.stored_count",
                   "stored " + std::to_string(stored) + ", expected " +
                       std::to_string(published) + " published - " +
                       std::to_string(removed) + " removed"};
}

Check check_digest(const char* what, std::uint64_t expected,
                   std::uint64_t got) {
  if (expected == got) return std::nullopt;
  return Violation{"determinism.digest",
                   std::string(what) + ": digests differ"};
}

void AdmissionOrder::admit(core::Server::Ticket ticket) {
  admitted_.push_back(ticket);
}

Check AdmissionOrder::complete(core::Server::Ticket ticket) {
  if (next_ >= admitted_.size()) {
    return Violation{"serve.admission_order",
                     "ticket " + std::to_string(ticket) +
                         " completed but none is outstanding"};
  }
  if (admitted_[next_] != ticket) {
    return Violation{"serve.admission_order",
                     "ticket " + std::to_string(ticket) +
                         " completed while " +
                         std::to_string(admitted_[next_]) + " was due"};
  }
  ++next_;
  return std::nullopt;
}

Check AdmissionOrder::finish() const {
  if (next_ == admitted_.size()) return std::nullopt;
  return Violation{"serve.admission_order",
                   std::to_string(admitted_.size() - next_) +
                       " admitted requests never completed"};
}

// --- determinism digest ------------------------------------------------------

void Digest::add(std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double x) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

void Digest::add_cost(const core::OpCost& c,
                      const core::Degradation& d) noexcept {
  add(std::uint64_t{c.route_hops});
  add(std::uint64_t{c.walk_hops});
  add(std::uint64_t{(d.partial ? 1U : 0U) | (d.degraded ? 2U : 0U) |
                    (d.fault_blocked ? 4U : 0U)});
}

void Digest::add(const core::PublishResult& r) noexcept {
  add_cost(r, r);
  add(std::uint64_t{r.success});
  add(std::uint64_t{r.stored_at});
  add(std::uint64_t{r.total_messages()});
}

void Digest::add(const core::RetrieveResult& r) noexcept {
  add_cost(r, r);
  for (const vsm::ScoredItem& s : r.items) {
    add(std::uint64_t{s.id});
    add(s.score);
  }
}

void Digest::add(const core::LocateResult& r) noexcept {
  add_cost(r, r);
  add(std::uint64_t{r.found});
  add(std::uint64_t{r.node});
}

void Digest::add(const core::SearchResult& r) noexcept {
  add_cost(r, r);
  add(std::uint64_t{r.total_messages()});
  for (const vsm::ItemId id : r.items) add(std::uint64_t{id});
}

void Digest::add(const core::RangeSearchResult& r) noexcept {
  add_cost(r, r);
  for (const core::RangeMatch& m : r.matches) {
    add(std::uint64_t{m.item});
    add(m.value);
  }
}

void Digest::add(const core::WithdrawResult& r) noexcept {
  add(std::uint64_t{r.removed});
  add(std::uint64_t{r.messages});
}

void Digest::add(const core::DepartResult& r) noexcept {
  add(std::uint64_t{r.items_transferred});
  add(std::uint64_t{r.messages});
}

void Digest::add(const core::EpochEngine::OpResult& r) noexcept {
  add(std::uint64_t{r.index()});
  std::visit([this](const auto& x) { add(x); }, r);
}

}  // namespace perfbench
