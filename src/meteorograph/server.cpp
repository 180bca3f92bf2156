#include "meteorograph/server.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

namespace meteo::core {

namespace {

EpochOptions engine_options(const ServeOptions& options) {
  EpochOptions out;
  out.workers = options.workers;
  out.seed = options.seed;
  return out;
}

bool usable(const vsm::SparseVector* v) { return v != nullptr && !v->empty(); }

/// False for the malformed inputs Server::submit lists, each of which an
/// op core would reject with a precondition failure.
bool well_formed(const Server::Request& request, const Meteorograph& system) {
  return std::visit(
      [&](const auto& op) {
        using Op = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<Op, RetrieveOp>) {
          return usable(op.query) && op.amount > 0;
        } else if constexpr (std::is_same_v<Op, SearchOp>) {
          return !op.keywords.empty();
        } else if constexpr (std::is_same_v<Op, RangeSearchOp>) {
          // lo <= hi is false for a NaN bound too.
          return op.lo <= op.hi && op.attribute < system.attributes().size();
        } else if constexpr (std::is_same_v<Op, DepartOp>) {
          return op.node < system.network().size();
        } else {
          return usable(op.vector);  // locate, publish, withdraw
        }
      },
      request);
}

}  // namespace

Server::Server(Meteorograph& system, ServeOptions options)
    : system_(system),
      engine_(system, engine_options(options)),
      options_(options) {}

std::optional<Server::Ticket> Server::submit(Request request) {
  if (!well_formed(request, system_)) {
    ++invalid_;
    return std::nullopt;
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++rejected_;
    return std::nullopt;
  }
  const Ticket ticket = next_ticket_++;
  queue_.emplace_back(ticket, std::move(request));
  ++accepted_;
  return ticket;
}

std::size_t Server::pump(const CompletionFn& on_complete) {
  const std::size_t window =
      std::min(queue_.size(), std::max<std::size_t>(options_.ops_per_epoch, 1));
  if (window == 0) return 0;

  std::vector<Ticket> tickets;
  tickets.reserve(window);
  for (std::size_t i = 0; i < window; ++i) {
    auto& [ticket, request] = queue_.front();
    tickets.push_back(ticket);
    std::visit([&](const auto& op) { engine_.submit(op); }, request);
    queue_.pop_front();
  }

  const EpochEngine::SealedEpoch sealed = engine_.seal();
  served_ += window;
  for (std::size_t i = 0; i < window; ++i) {
    Completion done;
    done.ticket = tickets[i];
    done.epoch = sealed.epoch;
    done.result = sealed.results[i];
    done.timeout_cost = sealed.timeout_costs[i];
    done.deadline_exceeded = options_.deadline_seconds > 0.0 &&
                             done.timeout_cost > options_.deadline_seconds;
    if (done.deadline_exceeded) ++deadline_misses_;
    if (on_complete) on_complete(done);
  }
  return window;
}

}  // namespace meteo::core
