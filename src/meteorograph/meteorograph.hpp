#pragma once

/// \file meteorograph.hpp
/// The Meteorograph system facade — the public API of the paper's primary
/// contribution.
///
/// A Meteorograph instance owns a structured overlay (nodes named per the
/// configured load-balance mode), the naming strategy (angle | range |
/// LSH behind core::NamingStrategy, carrying the fitted Eq. 5 + Eq. 6
/// scheme), hot-region statistics, the per-node stores (items, replicas,
/// directory pointers), and the bootstrap sample used by the first-hop
/// optimization.
/// Every operation returns its exact cost in hops and messages (the shared
/// OpCost base) plus explicit degradation flags (the shared Degradation
/// base) so the benches can regenerate the paper's figures. Per-operation
/// knobs travel in small options structs built for designated
/// initializers.
///
/// Typical use:
///
///   SystemConfig cfg;                     // defaults mirror the paper
///   Meteorograph sys(cfg, sample, seed);  // sample: ~0.5% of the items
///   sys.publish(id, vector);              // Fig. 2 _publish
///   auto r = sys.retrieve(query, 10);     // Fig. 2 _retrieve
///   auto s = sys.similarity_search(keywords, 10);  // §3.5 two-phase
///   auto l = sys.locate(id, vector, {.walk_limit = 16});
///
/// Parallel execution (DESIGN.md §11): wrap the system in a
/// core::EpochEngine (meteorograph/epoch.hpp) to run whole vectors of
/// operations across a thread pool with bit-identical results at any
/// worker count, either now through a typed call or as mixed epoch
/// windows through submit()/seal():
///
///   EpochEngine engine(sys, {.workers = 8});
///   auto results = engine.retrieve(ops);  // ops: span<const RetrieveOp>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "meteorograph/api.hpp"
#include "meteorograph/config.hpp"
#include "meteorograph/directory.hpp"
#include "meteorograph/first_hop.hpp"
#include "meteorograph/hot_regions.hpp"
#include "meteorograph/naming/strategy.hpp"
#include "meteorograph/range_search.hpp"
#include "meteorograph/storage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/overlay.hpp"
#include "vsm/sparse_vector.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

// OpCost/Degradation (the result bases below), outcome_label, and the
// per-op options structs live in meteorograph/api.hpp.

struct PublishResult : OpCost, Degradation {
  bool success = false;
  /// The node the publish request routed to (closest to the item's key).
  overlay::NodeId home = overlay::kInvalidNode;
  /// Where the item finally landed after any overflow chaining.
  overlay::NodeId stored_at = overlay::kInvalidNode;
  std::size_t chain_hops = 0;      ///< overflow-chain forwards
  std::size_t replica_messages = 0;///< replica placement traffic
  std::size_t pointer_messages = 0;///< directory-pointer publication
  std::size_t notify_messages = 0; ///< subscription deliveries triggered
  std::size_t replicas_missed = 0;  ///< replica homes never reached
  bool pointer_missed = false;      ///< directory pointer publication lost
  /// Traffic spent publishing the extra strategy keys (route legs + their
  /// overflow chains). Always 0 under single-key naming strategies.
  std::size_t naming_key_messages = 0;
  [[nodiscard]] std::size_t total_messages() const noexcept {
    return route_hops + chain_hops + replica_messages + pointer_messages +
           notify_messages + naming_key_messages;
  }
};

struct RetrieveResult : OpCost, Degradation {
  std::vector<vsm::ScoredItem> items;  ///< cosine-ranked, descending
  std::size_t nodes_visited = 0;
  std::size_t items_missed = 0;  ///< shortfall vs. the requested amount
};

struct LocateResult : OpCost, Degradation {
  bool found = false;
  overlay::NodeId node = overlay::kInvalidNode;
  /// True when the hit was a replica rather than the primary copy.
  bool via_replica = false;
};

// --- notifications (§6 future work) -----------------------------------------

using SubscriptionId = std::uint64_t;

/// A standing multi-keyword interest planted in the directory space.
struct Subscription {
  SubscriptionId id = 0;
  std::vector<vsm::KeywordId> keywords;  ///< sorted, conjunctive
  overlay::NodeId subscriber = overlay::kInvalidNode;

  [[nodiscard]] bool matches(const vsm::SparseVector& v) const {
    return std::all_of(keywords.begin(), keywords.end(),
                       [&](vsm::KeywordId k) { return v.contains(k); });
  }
};

/// Delivered to the subscriber's inbox when a matching item is published.
struct Notification {
  SubscriptionId subscription = 0;
  vsm::ItemId item = 0;

  friend bool operator==(const Notification&, const Notification&) = default;
};

struct SubscribeResult : OpCost, Degradation {
  SubscriptionId id = 0;
  std::size_t planted_nodes = 0;  ///< directory nodes holding a copy
};

struct DepartResult {
  /// False for a no-op: by its commit the node was gone (or never
  /// assigned) or the last one alive, so nothing moved.
  bool departed = false;
  std::size_t items_transferred = 0;
  std::size_t replicas_transferred = 0;
  std::size_t pointers_transferred = 0;
  std::size_t subscriptions_transferred = 0;
  std::size_t attribute_records_transferred = 0;
  std::size_t messages = 0;
};

struct WithdrawResult {
  bool removed = false;               ///< a primary copy was found and erased
  std::size_t replicas_removed = 0;
  bool pointer_removed = false;
  std::size_t messages = 0;
};

struct RangePublishResult : OpCost {
  overlay::NodeId node = overlay::kInvalidNode;
};

/// One (value, item) hit of a range search, in ascending value order.
struct RangeMatch {
  double value = 0.0;
  vsm::ItemId item = 0;

  friend bool operator==(const RangeMatch&, const RangeMatch&) = default;
};

struct RangeSearchResult : OpCost, Degradation {
  std::vector<RangeMatch> matches;
  std::size_t nodes_visited = 0;
};

struct SearchResult : OpCost, Degradation {
  std::vector<vsm::ItemId> items;
  /// Hops spent on the lookup that discovered items[i] (0 when the item
  /// was found directly on a directory node) — Fig. 10(a)'s metric.
  std::vector<std::size_t> discovery_hops;
  std::size_t lookup_messages = 0;   ///< pointer-chasing traffic
  std::size_t nodes_visited = 0;     ///< directory nodes scanned
  std::size_t lookups_failed = 0;  ///< pointer chases lost to faults
  [[nodiscard]] std::size_t total_messages() const noexcept {
    return route_hops + walk_hops + lookup_messages;
  }
};

class Meteorograph {
 public:
  /// Builds the system: fits Eq. 6 and hot regions from `sample` (the
  /// bootstrap node's sampled data set, §3.4/§3.5.1), then joins
  /// config.node_count nodes named per the load-balance mode.
  /// \pre sample non-empty unless config.load_balance == kNone
  Meteorograph(SystemConfig config, std::span<const vsm::SparseVector> sample,
               std::uint64_t seed);

  // --- naming -------------------------------------------------------------
  // raw_key/balanced_key expose the fitted Eq. 5/Eq. 6 scheme (the
  // directory coordinate under every strategy); the strategy itself owns
  // the op-path keys (publish targets, probe plans).
  [[nodiscard]] overlay::Key raw_key(const vsm::SparseVector& v) const {
    return strategy_->scheme().raw_key(v);
  }
  [[nodiscard]] overlay::Key balanced_key(const vsm::SparseVector& v) const {
    return strategy_->scheme().balanced_key(v);
  }
  [[nodiscard]] const NamingStrategy& naming_strategy() const noexcept {
    return *strategy_;
  }

  // --- operations ----------------------------------------------------------
  /// Publishes an item (Fig. 2 _publish + §3.5.2 pointer + §3.6 replicas).
  PublishResult publish(vsm::ItemId id, const vsm::SparseVector& vector,
                        const PublishOptions& options = {});

  /// Fig. 2 _retrieve: route to the query's key, then walk closest
  /// neighbors until `amount` items with positive similarity are gathered.
  RetrieveResult retrieve(const vsm::SparseVector& query, std::size_t amount,
                          const RetrieveOptions& options = {});

  /// Graceful departure: the node hands its stored state (items, replicas,
  /// directory pointers, subscriptions, attribute records) to the nodes
  /// now responsible before leaving — the storage-layer counterpart of
  /// the overlay's leave(). \pre node alive, alive_count() > 1
  DepartResult depart_node(overlay::NodeId node);

  /// Removes an item from the system: erases the primary copy (located by
  /// routing + neighbor walk), the replicas held near the item's key, and
  /// the directory pointer at its raw key. Replica removal is best-effort
  /// over the current closest homes (churn may have stranded copies
  /// elsewhere; soft state expires with its host).
  WithdrawResult withdraw(vsm::ItemId id, const vsm::SparseVector& vector,
                          const WithdrawOptions& options = {});

  /// Routes toward a specific published item and walks neighbors until a
  /// node holding it (primary or replica) is found. Used by Fig. 9 and
  /// the §4.3 availability study.
  LocateResult locate(vsm::ItemId id, const vsm::SparseVector& vector,
                      const LocateOptions& options = {});

  /// §3.5 two-phase similarity search over directory pointers, starting at
  /// the first-hop key when the sample has a match. k = 0 means "discover
  /// all matching items" (walks the entire pointer space).
  SearchResult similarity_search(std::span<const vsm::KeywordId> keywords,
                                 std::size_t k,
                                 const SearchOptions& options = {});

  // --- range search (§6 future work) ---------------------------------------
  /// Registers a numeric attribute (e.g. memory size) over [lo, hi]; its
  /// values map order-preservingly into a dedicated slice of the key space.
  AttributeId register_attribute(double lo, double hi,
                                 AttributeScale scale = AttributeScale::kLinear);

  /// Publishes an (attribute, value) record for an item to the node
  /// responsible for the value's key.
  RangePublishResult publish_attribute(vsm::ItemId id, AttributeId attribute,
                                       double value,
                                       const PublishOptions& options = {});

  /// All items whose `attribute` value lies in [lo, hi], ascending by
  /// value: one O(log N) route plus a successor walk across the range.
  [[nodiscard]] RangeSearchResult range_search(
      AttributeId attribute, double lo, double hi,
      const RangeSearchOptions& options = {});

  [[nodiscard]] const AttributeRegistry& attributes() const noexcept {
    return attributes_;
  }

  // --- notifications (§6 future work) ---------------------------------------
  /// Plants a standing interest in the directory space: copies of the
  /// subscription live on `options.horizon` consecutive directory nodes
  /// starting at the query's first-hop key, where matching items' pointers
  /// will be published. Future matching publishes push a Notification to
  /// `subscriber`'s inbox.
  SubscribeResult subscribe(std::span<const vsm::KeywordId> keywords,
                            overlay::NodeId subscriber,
                            const SubscribeOptions& options = {});

  /// Removes every planted copy; false if the id is unknown.
  bool unsubscribe(SubscriptionId id);

  /// Drains the inbox of `subscriber` (delivery order preserved).
  [[nodiscard]] std::vector<Notification> take_notifications(
      overlay::NodeId subscriber);

  // --- fault injection -------------------------------------------------------
  /// Attaches a message-level fault injector (e.g. sim::FaultPlan) to the
  /// overlay. Every routed message then passes through it; crashes it
  /// schedules are applied to the membership at the next operation
  /// boundary. Non-owning; nullptr detaches. Returns false — leaving the
  /// current hook untouched — while an EpochEngine window is in flight:
  /// swapping fault fates mid-stream would make in-flight operations
  /// depend on worker timing.
  bool set_fault_hook(overlay::FaultHook* hook) noexcept {
    if (batch_in_flight_) return false;
    overlay_.set_fault_hook(hook);
    return true;
  }

  /// True while an EpochEngine window runs: from entry to exit of a
  /// typed call or a seal().
  [[nodiscard]] bool batch_in_flight() const noexcept {
    return batch_in_flight_;
  }

  // --- observability ---------------------------------------------------------
  /// Attaches a span/event trace log (docs/OBSERVABILITY.md). Every
  /// subsequent operation opens a span and records its hops, retries,
  /// timeouts, reroutes, and fault verdicts; spans land in `log` in
  /// commit order. Non-owning; nullptr detaches (the default — with no
  /// log attached the op path pays a single branch). Returns false —
  /// leaving the current log untouched — while a batch is in flight, for
  /// the same reason as set_fault_hook.
  bool set_tracer(obs::TraceLog* log) noexcept {
    if (batch_in_flight_) return false;
    tracer_ = log;
    return true;
  }
  [[nodiscard]] obs::TraceLog* tracer() const noexcept { return tracer_; }

  // --- introspection --------------------------------------------------------
  [[nodiscard]] overlay::Overlay& network() noexcept { return overlay_; }
  [[nodiscard]] const overlay::Overlay& network() const noexcept {
    return overlay_;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] const NamingScheme& naming() const noexcept {
    return strategy_->scheme();
  }
  [[nodiscard]] const HotRegionSet& hot_regions() const noexcept {
    return hot_regions_;
  }
  [[nodiscard]] const FirstHopIndex& first_hop() const noexcept {
    return first_hop_;
  }
  [[nodiscard]] obs::MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Primary-item count per alive node (Fig. 8's load metric).
  [[nodiscard]] std::vector<std::size_t> node_loads() const;
  /// Storage capacity of a node (0 = unlimited). Heterogeneous when
  /// capability_weights is configured.
  [[nodiscard]] std::size_t capacity_of(overlay::NodeId id) const;
  /// Items held across every node's item store, dead nodes included: the
  /// primary copies plus a multi-key strategy's extra copies. O(1): a
  /// running count kept at every store change.
  [[nodiscard]] std::size_t stored_item_count() const noexcept {
    return stored_items_;
  }
  [[nodiscard]] const AngleStore& store_of(overlay::NodeId id) const;
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  friend class EpochEngine;

  struct NodeData {
    AngleStore items;
    /// Replica copies (§3.6), ordered by id: retrieve harvests replicas
    /// under a result budget and depart re-homes them, so iteration order
    /// is result-visible (meteo-lint R1 — hash order may not feed results).
    std::map<vsm::ItemId, vsm::SparseVector> replicas;
    DirectoryStore directory;
    /// Range-search records: attribute -> (value -> items), value-sorted.
    std::map<AttributeId, std::multimap<double, vsm::ItemId>> attributes;
    /// Standing interests planted on this directory node.
    std::vector<Subscription> subscriptions;
    /// Notifications delivered to this node as a subscriber.
    std::vector<Notification> inbox;
  };

  /// Ensures node_data_ covers every overlay node id.
  void sync_node_data();

  /// Operation prologue: applies crashes the fault hook declared due
  /// (overlay membership changes happen at operation boundaries, never
  /// mid-route), then syncs per-node state.
  void begin_operation();

  /// Folds an operation's retry/timeout/reroute costs into the registry
  /// (`fault.retries`, `fault.timeouts`, `fault.reroutes`,
  /// `fault.timeout_cost`, all labelled with the op kind).
  void record_fault_stats(obs::OpKind op, const overlay::HopStats& stats);

  /// Cached handles into metrics_ for the per-op series. Handles are
  /// stable for the registry's lifetime — reset() zeroes cells in place
  /// — so the find-or-create cost (label-set and bucket-vector
  /// allocation plus the map walk) is paid once per series, never per
  /// operation. Everything is still created lazily, on first nonzero
  /// use, so dump contents are unchanged (ordered-map export does not
  /// depend on creation order) and fault-free runs keep fault-free maps.
  struct OpSeries {
    struct OutcomeCounter {
      const char* label = nullptr;  ///< outcome_label() literal
      obs::Counter counter;
    };
    std::vector<OutcomeCounter> count;         ///< op.count{op,outcome}
    std::optional<obs::Counter> messages;      ///< op.messages{op}
    std::optional<obs::Histogram> route_hops;  ///< op.route_hops{op}
    std::optional<obs::Histogram> walk_hops;   ///< op.walk_hops{op}
    std::optional<obs::Counter> fault_retries;
    std::optional<obs::Counter> fault_timeouts;
    std::optional<obs::Counter> fault_reroutes;
    std::optional<obs::Histogram> fault_timeout_cost;
    std::optional<obs::Histogram> naming_probes;  ///< naming.probes{op}
    std::optional<obs::Histogram> naming_keys;    ///< naming.keys{op}
  };
  obs::Counter& op_count(obs::OpKind op, const char* outcome);
  obs::Counter& op_messages(obs::OpKind op);
  obs::Histogram& op_route_hops(obs::OpKind op);
  obs::Histogram& op_walk_hops(obs::OpKind op);
  obs::Histogram& op_naming_probes(obs::OpKind op);
  obs::Histogram& op_naming_keys(obs::OpKind op);

  /// Per-operation hop accounting captured by the const op cores. The
  /// engine holds one OpTrace per operation (a private shard — no
  /// locking) and folds them into the metric registry in op-index order,
  /// which keeps metric accumulation deterministic. The span recorder
  /// rides along: events are buffered here per op and committed to the
  /// shared TraceLog by record_* in the same op-index order, so traces
  /// are bit-identical at any worker count (DESIGN.md §8).
  struct OpTrace {
    overlay::HopStats route;
    overlay::HopStats walk;
    obs::SpanRecorder span;
    /// Probe keys this read op planned (0 under single-key strategies —
    /// the record folds then skip the naming.* series entirely).
    std::size_t naming_probes = 0;
  };

  /// The parallelizable half of publish: source selection + the main
  /// route. Everything that touches node state (store/chain, replicas,
  /// pointer, notifications) lives in commit_publish. The span opened by
  /// plan_publish travels in the plan so one publish is one span across
  /// the plan/commit split.
  struct PublishPlan {
    overlay::Key raw = 0;
    overlay::Key key = 0;  ///< keys.front(): the primary publish key
    overlay::NodeId source = overlay::kInvalidNode;
    overlay::RouteResult route;
    obs::SpanRecorder span;
    /// Multi-key publication (strategy.multi_key()): every publish key,
    /// primary first, plus one planned route per extra key. Both sized 0
    /// under single-key strategies so the commit path shape — and the
    /// plan's allocation profile — match the pre-strategy code exactly.
    std::vector<overlay::Key> extra_keys;
    std::vector<overlay::RouteResult> extra_routes;
  };

  /// An op's source node: `from` when pinned, else a uniformly random
  /// alive node. Only the unpinned case draws from `rng`.
  [[nodiscard]] overlay::NodeId source_node(
      const std::optional<overlay::NodeId>& from, Rng& rng) const {
    return from.has_value() ? *from : overlay_.random_alive(rng);
  }

  // Read-only operation cores. No membership changes, no metric-registry
  // writes, no facade-RNG draws: safe to run concurrently against the
  // frozen overlay snapshot with a caller-owned RNG substream.
  RetrieveResult retrieve_op(const vsm::SparseVector& query,
                             std::size_t amount,
                             const RetrieveOptions& options, Rng& rng,
                             OpTrace& trace) const;
  LocateResult locate_op(vsm::ItemId id, const vsm::SparseVector& vector,
                         const LocateOptions& options, Rng& rng,
                         OpTrace& trace) const;
  SearchResult search_op(std::span<const vsm::KeywordId> keywords,
                         std::size_t k, const SearchOptions& options, Rng& rng,
                         OpTrace& trace) const;
  RangeSearchResult range_search_op(AttributeId attribute, double lo,
                                    double hi,
                                    const RangeSearchOptions& options,
                                    Rng& rng, OpTrace& trace) const;

  // Deterministic metric folds — reproduce the exact recording sequence
  // the sequential facade calls would have produced. OpTrace is mutable:
  // the fold also commits the op's span into the trace log.
  void record_retrieve(const RetrieveResult& r, OpTrace& trace);
  void record_locate(const LocateResult& r, OpTrace& trace);
  void record_search(const SearchResult& r, OpTrace& trace);
  void record_range_search(const RangeSearchResult& r, OpTrace& trace);

  // Mutating split of publish: plan (const, routes only), then commit.
  // The plan is mutable in commit: its span accumulates the commit legs'
  // events and is finished there.
  PublishPlan plan_publish(const vsm::SparseVector& vector,
                           const PublishOptions& options, Rng& rng) const;
  /// Fig. 2 step 3: store `entry` at `start`, overflow-chaining through
  /// closest neighbors while nodes are full. Returns true once stored;
  /// `stored_at` is the final host and `chain_hops` counts the forwards
  /// (also the kChainHop event detail). Shared by the primary copy and a
  /// multi-key strategy's extra copies.
  bool chain_store(StoredEntry entry, overlay::NodeId start,
                   std::size_t hop_budget, obs::SpanRecorder* rec,
                   std::size_t& chain_hops, overlay::NodeId& stored_at);
  PublishResult commit_publish(vsm::ItemId id, const vsm::SparseVector& vector,
                               PublishPlan& plan);
  WithdrawResult withdraw_with(vsm::ItemId id, const vsm::SparseVector& vector,
                               const WithdrawOptions& options, Rng& rng);
  /// depart_node without its preconditions, for a window's commit: once
  /// due crashes land, a node that is not alive (or was never assigned)
  /// or is the last alive node departs as a no-op (`departed` false).
  DepartResult commit_depart(overlay::NodeId node);

  /// Batch bracket around each EpochEngine window: begin applies due
  /// crashes once for the whole window and freezes the membership
  /// snapshot; set_fault_hook is rejected in between.
  /// \pre no batch already in flight
  void begin_batch();
  void end_batch() noexcept { batch_in_flight_ = false; }

  /// Publish hook: fires notifications for subscriptions on the node that
  /// received the item's directory pointer. Returns delivery messages.
  /// Delivery-leg events ride the publishing op's span via `rec`.
  std::size_t deliver_notifications(overlay::NodeId pointer_node,
                                    vsm::ItemId item,
                                    const vsm::SparseVector& vector,
                                    obs::SpanRecorder* rec);

  SystemConfig config_;
  Rng rng_;
  std::unique_ptr<NamingStrategy> strategy_;
  HotRegionSet hot_regions_;
  FirstHopIndex first_hop_;
  overlay::Overlay overlay_;
  AttributeRegistry attributes_;
  std::vector<NodeData> node_data_;
  std::vector<std::size_t> node_capacity_;  // parallel to node_data_
  /// Σ node_data_[i].items.size(), kept by every item-store change.
  std::size_t stored_items_ = 0;
  obs::MetricRegistry metrics_;
  static constexpr std::size_t kOpKinds = 9;  // obs::OpKind cardinality
  std::array<OpSeries, kOpKinds> op_series_;
  std::optional<obs::Counter> locate_found_;
  std::optional<obs::Histogram> publish_chain_hops_;
  std::optional<obs::Histogram> search_items_;
  /// Span/event sink; nullptr = tracing off (the default).
  obs::TraceLog* tracer_ = nullptr;
  /// Epoch stamped onto spans of mutating ops whose recorders finish
  /// inside the commit path (publish, withdraw, depart). The EpochEngine
  /// sets it to the commit epoch around its write phase; the facade
  /// leaves it 0, so standalone spans keep the default stamp.
  std::uint64_t span_epoch_ = 0;
  bool batch_in_flight_ = false;
  SubscriptionId next_subscription_ = 1;
  std::unordered_map<SubscriptionId, std::vector<overlay::NodeId>>
      subscription_homes_;
};

}  // namespace meteo::core
