#pragma once

/// \file epoch.hpp
/// The execution engine over a Meteorograph system (DESIGN.md §11).
///
/// An EpochEngine runs operations in windows, and every window executes
/// the same way: read operations (retrieve, locate, similarity_search,
/// range_search) run in parallel across a thread pool; mutating
/// operations (publish, withdraw, depart) commit strictly sequentially
/// in window order; then metrics and traces fold in one canonical order
/// — writes in window order (inline with their commits), then reads in
/// window order. Every operation draws from its own splitmix64 RNG
/// substream and, when the attached fault hook supports per-operation
/// fate scopes, its own message-fault substream, so results, system
/// state, trace dumps and metric exports are bit-identical at any worker
/// count. The sequential-replay oracle is simply `workers = 1`.
///
/// A window comes in through one of two entry points:
///
///   * submit() then seal() — a mixed window run as one epoch E. Reads
///     execute against the *pinned* epoch-E view; writes commit into
///     epoch E+1 — every store mutation is stamped E+1 and the displaced
///     version is retained so pinned readers still see it. Reads may be
///     deferred past the write phase (the `defer_read` hook): they then
///     execute after the commits yet still observe exactly epoch E,
///     byte-identically to running before them. Substreams are keyed by
///     the op's global submission index.
///   * the typed calls (locate, retrieve, similarity_search, publish,
///     withdraw) — one homogeneous window run at once against the live
///     stores. Substreams are keyed by the op's index in the call; no
///     version is retained, the epoch does not advance, and spans carry
///     epoch 0.
///
/// Op structs borrow their vectors (non-owning pointers/spans): the
/// caller keeps the workload alive until the call or the seal() that
/// executes it returns.
///
///   EpochEngine engine(sys, {.workers = 8, .seed = 42});
///   std::vector<LocateResult> found = engine.locate(locate_ops);
///   engine.submit(RetrieveOp{...});
///   engine.submit(PublishOp{...});
///   auto sealed = engine.seal();   // one epoch boundary

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "meteorograph/meteorograph.hpp"

namespace meteo::core {

struct RetrieveOp {
  const vsm::SparseVector* query = nullptr;
  std::size_t amount = 1;
  RetrieveOptions options;
};

struct LocateOp {
  vsm::ItemId item = 0;
  const vsm::SparseVector* vector = nullptr;
  LocateOptions options;
};

struct SearchOp {
  // meteo-lint: borrow_ok(op structs borrow from the caller-owned workload, which outlives the engine call by contract)
  std::span<const vsm::KeywordId> keywords;
  std::size_t k = 0;  ///< 0 = discover all matching items
  SearchOptions options;
};

struct RangeSearchOp {
  AttributeId attribute = 0;
  double lo = 0.0;
  double hi = 0.0;
  RangeSearchOptions options;
};

struct PublishOp {
  vsm::ItemId id = 0;
  const vsm::SparseVector* vector = nullptr;
  PublishOptions options;
};

struct WithdrawOp {
  vsm::ItemId item = 0;
  const vsm::SparseVector* vector = nullptr;
  WithdrawOptions options;
};

/// Graceful departure of `node`, as a submittable op (the epoch window
/// mixes departures between publishes and reads).
struct DepartOp {
  overlay::NodeId node = overlay::kInvalidNode;
};

struct EpochOptions {
  /// Worker threads for the read phases; 0 = hardware_concurrency(). The
  /// engine uses one when the attached fault hook has no op scopes.
  std::size_t workers = 0;
  /// Root of every per-operation RNG/fault substream. Two engines with
  /// the same seed over identical systems produce identical windows.
  std::uint64_t seed = 0x6d657465'6f726f67ULL;
  /// Interleaving seam: return true to defer the read with this global
  /// op index past the epoch's write phase (it still observes epoch E).
  /// Null defers nothing. Mutating ops and typed calls ignore it.
  std::function<bool(std::size_t)> defer_read = nullptr;
};

class EpochEngine {
 public:
  using OpResult =
      std::variant<RetrieveResult, LocateResult, SearchResult,
                   RangeSearchResult, PublishResult, WithdrawResult,
                   DepartResult>;

  struct SealedEpoch {
    /// The epoch the reads pinned; writes committed into `epoch + 1`.
    vsm::Epoch epoch = 0;
    /// Per-op results, parallel to submission order within the window.
    std::vector<OpResult> results;
    /// Simulated seconds each op spent waiting on timeouts (route + walk
    /// legs; a publish counts its plan route — commit legs fold straight
    /// into the metric registry). The server's deadline budget input.
    std::vector<double> timeout_costs;
  };

  /// Binds to `system` for the engine's lifetime (non-owning). The pool
  /// is created once here, not per window. The LSI ranking mode mutates
  /// a per-node projection cache under reads, so it cannot serve pinned
  /// snapshots or parallel readers.
  /// \pre config.local_ranking != kLsi
  explicit EpochEngine(Meteorograph& system, EpochOptions options = {});

  /// Once a seal() has armed version retention, disarms it and drops
  /// retained versions, returning the system to plain facade behavior.
  /// An engine that never sealed leaves the stores untouched.
  ~EpochEngine();

  EpochEngine(const EpochEngine&) = delete;
  EpochEngine& operator=(const EpochEngine&) = delete;

  // Typed calls: each runs `ops` now as one window and returns results
  // in op order. \pre pending() == 0
  std::vector<RetrieveResult> retrieve(std::span<const RetrieveOp> ops);
  std::vector<LocateResult> locate(std::span<const LocateOp> ops);
  std::vector<SearchResult> similarity_search(std::span<const SearchOp> ops);
  std::vector<PublishResult> publish(std::span<const PublishOp> ops);
  std::vector<WithdrawResult> withdraw(std::span<const WithdrawOp> ops);

  // Submission window. Each call returns the op's index within the
  // current window (= its index into SealedEpoch::results).
  std::size_t submit(const RetrieveOp& op);
  std::size_t submit(const LocateOp& op);
  std::size_t submit(const SearchOp& op);
  std::size_t submit(const RangeSearchOp& op);
  std::size_t submit(const PublishOp& op);
  std::size_t submit(const WithdrawOp& op);
  std::size_t submit(const DepartOp& op);

  /// Executes the window as one epoch and advances the epoch counter.
  /// Empty windows still advance (an idle server heartbeat).
  SealedEpoch seal();

  /// Ops submitted and not yet sealed.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }

  /// The epoch the next seal()'s reads will pin.
  [[nodiscard]] vsm::Epoch epoch() const noexcept { return epoch_; }

  /// Configured worker count after the 0 = hardware default resolved.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return options_.workers;
  }

 private:
  using AnyOp = std::variant<RetrieveOp, LocateOp, SearchOp, RangeSearchOp,
                             PublishOp, WithdrawOp, DepartOp>;

  struct Pending {
    AnyOp op;
    /// Substream key: the global submission index under seal(), monotone
    /// over epochs; the index within the call for a typed call.
    std::uint64_t key = 0;
  };

  /// Ends the batch bracket and clears the write-span epoch stamp on
  /// every exit path, including exceptions rethrown from pool workers.
  /// Nested so Meteorograph's friendship covers the private end_batch().
  struct WindowGuard {
    explicit WindowGuard(Meteorograph& sys) : system(sys) {}
    ~WindowGuard() {
      system.span_epoch_ = 0;
      system.end_batch();
    }
    WindowGuard(const WindowGuard&) = delete;
    WindowGuard& operator=(const WindowGuard&) = delete;
    Meteorograph& system;
  };

  /// Independent RNG stream for the op keyed `key`: identical regardless
  /// of which worker runs the op or in what order.
  [[nodiscard]] Rng substream(std::uint64_t key) const noexcept {
    return Rng(splitmix64(options_.seed + 0x9e3779b97f4a7c15ULL * (key + 1)));
  }
  /// Fault-fate substream selector for the op keyed `key` (distinct from
  /// the RNG stream so fates and draws never correlate).
  [[nodiscard]] std::uint64_t scope_salt(std::uint64_t key) const noexcept {
    return splitmix64(options_.seed ^ (0xbf58476d1ce4e5b9ULL * (key + 1)));
  }

  std::size_t push(AnyOp op);

  /// The window executor behind both entry points. With `pinned` set it
  /// runs seal()'s epoch window: reads observe epoch *pinned, writes
  /// commit into *pinned + 1 under armed retention, spans carry those
  /// epochs, and defer_read applies. Without, it runs a typed call's
  /// window against the live stores. Fills results and timeout_costs.
  SealedEpoch run_window(std::span<const Pending> window,
                         std::optional<vsm::Epoch> pinned);

  /// A typed call: `ops` as one live window keyed by their call index.
  template <typename Result, typename Op>
  std::vector<Result> run_call(std::span<const Op> ops);

  /// Arms every node store: retain versions, stamp mutations `write`.
  void arm_stores(vsm::Epoch write);
  /// Drops retired versions on every node store (epoch boundary).
  void gc_stores();
  /// Disarms retention everywhere (destructor path).
  void disarm_stores();

  Meteorograph& system_;
  EpochOptions options_;
  std::optional<ThreadPool> pool_;  // engaged only when workers > 1
  std::vector<Pending> pending_;
  vsm::Epoch epoch_ = 0;
  std::uint64_t next_global_ = 0;
  bool armed_ = false;  ///< arm_stores() ran: the destructor disarms
  std::optional<obs::Gauge> epoch_gauge_;
  std::optional<obs::Counter> epoch_advances_;
};

/// The names the benchmark sources (perfbench/) use for the engine and
/// its options when they drive the typed calls.
using BatchEngine = EpochEngine;
using BatchOptions = EpochOptions;

}  // namespace meteo::core
