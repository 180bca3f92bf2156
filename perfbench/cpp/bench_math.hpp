#pragma once

/// \file bench_math.hpp
/// The benchmark's own arithmetic and correctness checks, kept apart from
/// the workload runners so tests/bench_math_test.cpp can pin every rule:
///
///  * percentiles: nearest-rank median, and the tail percentile the
///    report prints beside it — the highest one (capped at p90) that keeps
///    at least ten samples beyond it, reported with its sample count;
///  * failure classification: which result of which operation counts as
///    a failed op (`failed_frac`);
///  * message accounting: which field of which result is an op's
///    simulated message count (`msgs_per_op`);
///  * the correctness checks, each returning a named Violation;
///  * the result digest behind the determinism check.
///
/// Only header-level result types of the library are used here; nothing
/// in this file calls into a library layer.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "meteorograph/server.hpp"

namespace perfbench {

// --- percentiles -------------------------------------------------------------

/// One reported percentile of a sample set.
struct Quantile {
  double percentile = 0.0;  ///< in (0, 1]
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
/// set. \pre !xs.empty(), 0 < q <= 1
[[nodiscard]] double nearest_rank(std::span<const double> xs, double q);

/// The median (nearest rank). \pre !xs.empty()
[[nodiscard]] Quantile median(std::span<const double> xs);

/// The highest percentile, at most `cap`, that still has at least
/// `beyond` samples above it: q = min(cap, (n - beyond) / n). With
/// n <= beyond no such percentile exists and the median is returned.
/// \pre !xs.empty()
[[nodiscard]] Quantile tail(std::span<const double> xs, double cap = 0.90,
                            std::size_t beyond = 10);

/// Geometric mean. \pre every x > 0, !xs.empty()
[[nodiscard]] double geomean(std::span<const double> xs);

// --- failure classification --------------------------------------------------

/// Any Degradation flag set: message loss cut the op short.
[[nodiscard]] bool degraded(const meteo::core::Degradation& d) noexcept;

[[nodiscard]] bool failed(const meteo::core::PublishResult& r) noexcept;
[[nodiscard]] bool failed(const meteo::core::RetrieveResult& r) noexcept;
[[nodiscard]] bool failed(const meteo::core::SearchResult& r) noexcept;
[[nodiscard]] bool failed(const meteo::core::RangeSearchResult& r) noexcept;
[[nodiscard]] bool failed(const meteo::core::DepartResult& r) noexcept;
/// `live`: the item was published and not withdrawn in the state the op
/// observes, so a miss is a failure.
[[nodiscard]] bool failed(const meteo::core::LocateResult& r,
                          bool live) noexcept;
[[nodiscard]] bool failed(const meteo::core::WithdrawResult& r,
                          bool live) noexcept;
/// Any epoch-window result; `live` applies to locate and withdraw only.
[[nodiscard]] bool failed(const meteo::core::EpochEngine::OpResult& r,
                          bool live) noexcept;
/// A served request: its op failed, or it overran the deadline.
[[nodiscard]] bool failed(const meteo::core::Server::Completion& c,
                          bool live) noexcept;

// --- message accounting ------------------------------------------------------

/// Simulated messages of one op: the result's own total where it has one
/// (publish, search), `messages` for withdraw and depart, and the shared
/// OpCost total (route + walk hops) for every other op.
[[nodiscard]] std::size_t messages(
    const meteo::core::PublishResult& r) noexcept;
[[nodiscard]] std::size_t messages(const meteo::core::SearchResult& r) noexcept;
[[nodiscard]] std::size_t messages(
    const meteo::core::WithdrawResult& r) noexcept;
[[nodiscard]] std::size_t messages(const meteo::core::DepartResult& r) noexcept;
[[nodiscard]] std::size_t messages(const meteo::core::OpCost& r) noexcept;
[[nodiscard]] std::size_t messages(
    const meteo::core::EpochEngine::OpResult& r) noexcept;

// --- correctness checks ------------------------------------------------------

/// A failed correctness check: its name (as printed and documented in
/// perfbench/README.md) and what was seen.
struct Violation {
  std::string check;
  std::string detail;
};
using Check = std::optional<Violation>;

/// Discover-all search: the result holds exactly `expected` (sorted,
/// unique ids from the generated corpus), each id once.
[[nodiscard]] Check check_discover_all(
    std::span<const meteo::vsm::ItemId> got,
    std::span<const meteo::vsm::ItemId> expected);

/// k-limited search: a duplicate-free subset of `expected` with at least
/// min(k, |expected|) items.
[[nodiscard]] Check check_top_k_subset(
    std::span<const meteo::vsm::ItemId> got,
    std::span<const meteo::vsm::ItemId> expected, std::size_t k);

/// Retrieve: scores in descending order.
[[nodiscard]] Check check_descending(const meteo::core::RetrieveResult& r);

/// Locate of a live item found it.
[[nodiscard]] Check check_located(const meteo::core::LocateResult& r,
                                  meteo::vsm::ItemId item);

/// Locate of a withdrawn item did not find it.
[[nodiscard]] Check check_withdrawn(const meteo::core::LocateResult& r,
                                    meteo::vsm::ItemId item);

/// Ingest bookkeeping: stored == successful publishes - removed items.
[[nodiscard]] Check check_stored_count(std::size_t stored,
                                       std::size_t published,
                                       std::size_t removed);

/// Two runs of the same inputs produced the same result digest.
[[nodiscard]] Check check_digest(const char* what, std::uint64_t expected,
                                 std::uint64_t got);

/// Serve bookkeeping: every admitted ticket completes exactly once, in
/// admission order. admit() each accepted ticket, complete() each
/// completion, finish() once the server is drained.
class AdmissionOrder {
 public:
  void admit(meteo::core::Server::Ticket ticket);
  [[nodiscard]] Check complete(meteo::core::Server::Ticket ticket);
  [[nodiscard]] Check finish() const;

 private:
  std::vector<meteo::core::Server::Ticket> admitted_;
  std::size_t next_ = 0;  ///< index of the next ticket due to complete
};

// --- determinism digest ------------------------------------------------------

/// FNV-1a over the deterministic fields of op results (ids, scores,
/// hops, messages, flags). Equal inputs on equal builds must give equal
/// digests (DESIGN.md §8's determinism contract).
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add(double x) noexcept;
  void add(const meteo::core::PublishResult& r) noexcept;
  void add(const meteo::core::RetrieveResult& r) noexcept;
  void add(const meteo::core::LocateResult& r) noexcept;
  void add(const meteo::core::SearchResult& r) noexcept;
  void add(const meteo::core::RangeSearchResult& r) noexcept;
  void add(const meteo::core::WithdrawResult& r) noexcept;
  void add(const meteo::core::DepartResult& r) noexcept;
  void add(const meteo::core::EpochEngine::OpResult& r) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void add_cost(const meteo::core::OpCost& c,
                const meteo::core::Degradation& d) noexcept;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
