#include "meteorograph/epoch.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "overlay/fault_hook.hpp"

namespace meteo::core {

namespace {

/// Closes the per-operation fate scope even when the op throws, so a
/// worker thread never leaks an active scope into the next op it runs.
class ScopeGuard {
 public:
  ScopeGuard(overlay::FaultHook* hook, std::uint64_t salt) : hook_(hook) {
    if (hook_ != nullptr) hook_->begin_op_scope(salt);
  }
  ~ScopeGuard() {
    if (hook_ != nullptr) hook_->end_op_scope();
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  overlay::FaultHook* hook_;
};

/// AnyOp variant layout: alternatives below this index are reads, the
/// rest (publish, withdraw, depart) mutate.
inline constexpr std::size_t kFirstWriteAlternative = 4;

}  // namespace

EpochEngine::EpochEngine(Meteorograph& system, EpochOptions options)
    : system_(system), options_(options) {
  if (options_.workers == 0) {
    options_.workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (options_.workers > 1) pool_.emplace(options_.workers);
}

std::size_t EpochEngine::push(AnyOp op) {
  pending_.push_back(Pending{std::move(op), next_global_++});
  return pending_.size() - 1;
}

std::size_t EpochEngine::submit(const RetrieveOp& op) { return push(op); }
std::size_t EpochEngine::submit(const LocateOp& op) { return push(op); }
std::size_t EpochEngine::submit(const SearchOp& op) { return push(op); }
std::size_t EpochEngine::submit(const RangeSearchOp& op) { return push(op); }
std::size_t EpochEngine::submit(const PublishOp& op) { return push(op); }
std::size_t EpochEngine::submit(const WithdrawOp& op) { return push(op); }
std::size_t EpochEngine::submit(const DepartOp& op) { return push(op); }

EpochEngine::SealedEpoch EpochEngine::run_window(
    std::span<const Pending> window, std::optional<vsm::Epoch> pinned) {
  // Batch bracket: due crashes apply once, up front, and the membership
  // snapshot freezes for the whole read phase. (Departures still change
  // membership below, in the write phase, after every read has joined.)
  system_.begin_batch();
  WindowGuard guard(system_);
  const vsm::Epoch read_stamp = pinned.value_or(0);
  const vsm::Epoch write_stamp = pinned.has_value() ? *pinned + 1 : 0;

  overlay::FaultHook* hook = system_.network().fault_hook();
  const bool scoped = hook != nullptr && hook->supports_op_scopes();
  // A hook without per-op fate scopes decides fates off one shared,
  // order-dependent stream: serialize the read phase. Scopes are used
  // even at one worker so the fate streams — and with them results and
  // metrics — match any other worker count exactly.
  std::size_t workers = options_.workers;
  if (hook != nullptr && !scoped) workers = 1;

  const std::size_t n = window.size();
  SealedEpoch sealed;
  sealed.epoch = read_stamp;
  sealed.results.resize(n);
  sealed.timeout_costs.assign(n, 0.0);
  std::vector<Meteorograph::OpTrace> traces(n);

  // Partition the window: reads, then writes in strict window order.
  std::vector<std::size_t> reads;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < n; ++i) {
    (window[i].op.index() < kFirstWriteAlternative ? reads : writes)
        .push_back(i);
  }

  // One read op. Runs on any worker: the op writes only its own
  // results/traces slot and draws from its own substreams.
  auto exec_read = [&](std::size_t i) {
    const Pending& p = window[i];
    Rng rng = substream(p.key);
    ScopeGuard scope(scoped ? hook : nullptr, scope_salt(p.key));
    if (const auto* ret = std::get_if<RetrieveOp>(&p.op)) {
      METEO_EXPECTS(ret->query != nullptr);
      sealed.results[i] = system_.retrieve_op(*ret->query, ret->amount,
                                              ret->options, rng, traces[i]);
    } else if (const auto* loc = std::get_if<LocateOp>(&p.op)) {
      METEO_EXPECTS(loc->vector != nullptr);
      sealed.results[i] = system_.locate_op(loc->item, *loc->vector,
                                            loc->options, rng, traces[i]);
    } else if (const auto* sim = std::get_if<SearchOp>(&p.op)) {
      METEO_EXPECTS(!sim->keywords.empty());
      sealed.results[i] = system_.search_op(sim->keywords, sim->k,
                                            sim->options, rng, traces[i]);
    } else {
      const auto& rng_op = std::get<RangeSearchOp>(p.op);
      sealed.results[i] = system_.range_search_op(rng_op.attribute, rng_op.lo,
                                                  rng_op.hi, rng_op.options,
                                                  rng, traces[i]);
    }
  };

  // Phase R — every read, in parallel. No write of the window has
  // committed yet, so each read observes the state before the window:
  // epoch E under seal(), wherever the read sits in submission order.
  {
    METEO_ZONE("window.read");
    if (workers > 1 && pool_.has_value() && reads.size() > 1) {
      pool_->parallel_for(0, reads.size(),
                          [&](std::size_t k) { exec_read(reads[k]); });
    } else {
      for (const std::size_t i : reads) exec_read(i);
    }
  }

  // Phase W — mutations, strictly sequential in window order, each
  // committing under its own RNG/fate substream (into epoch E+1 under
  // seal()). Spans these commits finish carry the write stamp. A
  // publish plans inline, inside its own fate scope.
  system_.span_epoch_ = write_stamp;
  for (const std::size_t i : writes) {
    METEO_ZONE("window.write");
    const Pending& p = window[i];
    Rng rng = substream(p.key);
    ScopeGuard scope(scoped ? hook : nullptr, scope_salt(p.key));
    if (const auto* pub = std::get_if<PublishOp>(&p.op)) {
      METEO_EXPECTS(pub->vector != nullptr);
      Meteorograph::PublishPlan plan =
          system_.plan_publish(*pub->vector, pub->options, rng);
      sealed.timeout_costs[i] = plan.route.stats.timeout_cost;
      sealed.results[i] = system_.commit_publish(pub->id, *pub->vector, plan);
    } else if (const auto* wdr = std::get_if<WithdrawOp>(&p.op)) {
      METEO_EXPECTS(wdr->vector != nullptr);
      sealed.results[i] =
          system_.withdraw_with(wdr->item, *wdr->vector, wdr->options, rng);
    } else {
      const auto& dep = std::get<DepartOp>(p.op);
      sealed.results[i] = system_.commit_depart(dep.node);
    }
  }
  system_.span_epoch_ = 0;

  // Fold — writes already folded inline at their commits (window order);
  // now the reads fold in window order. Histogram accumulation is
  // float-order-sensitive and spans append to the trace log here, so
  // this order must not depend on workers.
  METEO_ZONE("window.fold");
  for (std::size_t i = 0; i < n; ++i) {
    if (window[i].op.index() >= kFirstWriteAlternative) continue;
    traces[i].span.set_epoch(read_stamp);
    std::visit(
        [&](auto& result) {
          using R = std::decay_t<decltype(result)>;
          if constexpr (std::is_same_v<R, RetrieveResult>) {
            system_.record_retrieve(result, traces[i]);
          } else if constexpr (std::is_same_v<R, LocateResult>) {
            system_.record_locate(result, traces[i]);
          } else if constexpr (std::is_same_v<R, SearchResult>) {
            system_.record_search(result, traces[i]);
          } else if constexpr (std::is_same_v<R, RangeSearchResult>) {
            system_.record_range_search(result, traces[i]);
          }
        },
        sealed.results[i]);
    sealed.timeout_costs[i] =
        traces[i].route.timeout_cost + traces[i].walk.timeout_cost;
  }
  return sealed;
}

template <typename Result, typename Op>
std::vector<Result> EpochEngine::run_call(std::span<const Op> ops) {
  // Submitted ops would otherwise be overtaken by the call's own ops.
  METEO_EXPECTS(pending_.empty());
  std::vector<Pending> window;
  window.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    window.push_back(Pending{ops[i], i});
  }
  SealedEpoch done = run_window(window, std::nullopt);
  std::vector<Result> results;
  results.reserve(done.results.size());
  for (OpResult& r : done.results) {
    results.push_back(std::get<Result>(std::move(r)));
  }
  return results;
}

std::vector<RetrieveResult> EpochEngine::retrieve(
    std::span<const RetrieveOp> ops) {
  return run_call<RetrieveResult>(ops);
}

std::vector<LocateResult> EpochEngine::locate(std::span<const LocateOp> ops) {
  return run_call<LocateResult>(ops);
}

std::vector<SearchResult> EpochEngine::similarity_search(
    std::span<const SearchOp> ops) {
  return run_call<SearchResult>(ops);
}

std::vector<PublishResult> EpochEngine::publish(
    std::span<const PublishOp> ops) {
  return run_call<PublishResult>(ops);
}

std::vector<WithdrawResult> EpochEngine::withdraw(
    std::span<const WithdrawOp> ops) {
  return run_call<WithdrawResult>(ops);
}

EpochEngine::SealedEpoch EpochEngine::seal() {
  const vsm::Epoch commit = epoch_ + 1;
  SealedEpoch sealed = run_window(pending_, epoch_);

  // Epoch boundary: advance the counter and publish the epoch metrics
  // (docs/OBSERVABILITY.md).
  epoch_ = commit;
  pending_.clear();
  if (!epoch_advances_.has_value()) {
    epoch_gauge_.emplace(system_.metrics().gauge(obs::names::kEpochCurrent));
    epoch_advances_.emplace(
        system_.metrics().counter(obs::names::kEpochAdvances));
  }
  epoch_gauge_->set(static_cast<double>(commit));
  *epoch_advances_ += 1;
  return sealed;
}

}  // namespace meteo::core
