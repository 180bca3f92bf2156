#pragma once

/// \file server.hpp
/// A minimal long-running serve loop over the EpochEngine (DESIGN.md §11).
///
/// The server accepts a stream of requests into a bounded queue
/// (admission control: submit() refuses when the queue is full, callers
/// back off and retry; it also refuses a malformed request, which would
/// otherwise trip a precondition and abort the process mid-window) and
/// serves them in epoch-sized windows: each pump() drains up to
/// `ops_per_epoch` queued requests into the EpochEngine, seals one
/// epoch, and delivers a completion per request.
///
/// Deadlines reuse the fault-path timeout/backoff machinery: every op's
/// simulated seconds spent waiting on timeouts (the same quantity the
/// `fault.timeout_cost` histogram observes) is compared against the
/// per-op deadline budget, and completions past budget are flagged.
/// The server itself holds no wall clocks — simulated time only, so a
/// serve schedule replays bit-identically (determinism contract, §8);
/// the bench driver wraps pump() with real timers.
///
/// Requests borrow their vectors exactly like the engine's op structs:
/// the caller keeps a request's payload alive until its completion fires.
///
///   Server server(sys, {.queue_capacity = 256, .ops_per_epoch = 64});
///   auto ticket = server.submit(RetrieveOp{&query, 10});
///   if (!ticket) { /* queue full: back off */ }
///   server.pump([](const Server::Completion& done) { ... });

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <variant>

#include "meteorograph/epoch.hpp"

namespace meteo::core {

struct ServeOptions {
  /// Bound on queued (admitted, unserved) requests; submit() returns
  /// nullopt beyond it.
  std::size_t queue_capacity = 1024;
  /// Requests drained per pump() — the epoch window size. Smaller windows
  /// advance epochs (and expose fresh writes to readers) sooner; larger
  /// windows amortize the seal barrier over more ops.
  std::size_t ops_per_epoch = 64;
  /// Worker threads for the engine's read phases; 0 = hardware default.
  std::size_t workers = 0;
  /// Substream root, forwarded to the EpochEngine.
  std::uint64_t seed = 0x6d657465'6f726f67ULL;
  /// Per-op budget of simulated timeout-wait seconds; completions whose
  /// op waited longer are flagged deadline_exceeded. 0 disables.
  double deadline_seconds = 0.0;
};

class Server {
 public:
  /// Admission token: identifies one accepted request in its completion.
  using Ticket = std::uint64_t;

  /// Any submittable operation (the epoch window mixes all kinds).
  using Request = std::variant<RetrieveOp, LocateOp, SearchOp, RangeSearchOp,
                               PublishOp, WithdrawOp, DepartOp>;

  struct Completion {
    Ticket ticket = 0;
    /// The epoch that served the request (reads observed it; writes
    /// committed into it + 1).
    vsm::Epoch epoch = 0;
    EpochEngine::OpResult result;
    /// Simulated seconds the op spent waiting on timeouts.
    double timeout_cost = 0.0;
    /// True when timeout_cost exceeded options.deadline_seconds.
    bool deadline_exceeded = false;
  };
  using CompletionFn = std::function<void(const Completion&)>;

  Server(Meteorograph& system, ServeOptions options = {});

  /// Admits a request, FIFO. Returns its ticket, or nullopt when the
  /// queue is at capacity (admission control — the caller backs off) or
  /// the request is malformed: a search with no keywords, a null or
  /// empty vector or query, a retrieve of amount 0, a range search with
  /// lo > hi, a NaN bound, or an unregistered attribute, or a departure
  /// of a node id the overlay never assigned. Whether a departing node
  /// is still alive depends on the window's earlier ops and crashes, so
  /// that is decided at commit: a departure of a dead node, or of the
  /// last alive one, completes with DepartResult::departed false.
  std::optional<Ticket> submit(Request request);

  /// Serves one epoch window: drains up to ops_per_epoch queued requests,
  /// seals the epoch, and fires `on_complete` once per served request in
  /// admission order. Returns the number served; 0 when the queue was
  /// empty (no epoch is burned idling).
  std::size_t pump(const CompletionFn& on_complete);

  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  [[nodiscard]] vsm::Epoch epoch() const noexcept { return engine_.epoch(); }

  // Lifetime tallies (admission + deadline accounting).
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  /// Refused because the queue was full.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  /// Refused because the request was malformed.
  [[nodiscard]] std::uint64_t invalid() const noexcept { return invalid_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t deadline_misses() const noexcept {
    return deadline_misses_;
  }

 private:
  const Meteorograph& system_;
  EpochEngine engine_;
  ServeOptions options_;
  std::deque<std::pair<Ticket, Request>> queue_;
  Ticket next_ticket_ = 1;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t deadline_misses_ = 0;
};

}  // namespace meteo::core
