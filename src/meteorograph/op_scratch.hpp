#pragma once

/// \file op_scratch.hpp
/// Per-thread reusable working state for the facade's read-op cores
/// (retrieve / locate / similarity search), making a warm read op
/// heap-allocation-free (DESIGN.md §9):
///
///   * plain vectors (probe plans, query staging, per-node harvest
///     buffers) keep their capacity across ops;
///   * transient per-op containers with op-dependent shape (dedup sets,
///     harvest memo maps) are std::pmr containers over the bump arena,
///     which reset() rewinds at op entry.
///
/// The contract is verified by tests/meteorograph/read_path_alloc_test.cpp
/// via common/alloc_probe.hpp. Determinism note: the pmr containers are
/// only probed (insert/find), never iterated, so the lint R1 charter is
/// untouched; and the scratch never carries data between ops — every
/// field is cleared or rewound at op entry.

#include <vector>

#include "common/arena.hpp"
#include "overlay/key_space.hpp"
#include "vsm/local_index.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

struct OpScratch {
  Arena arena;
  std::vector<overlay::Key> probes;   ///< naming probe plan (appended to)
  std::vector<vsm::KeywordId> query;  ///< sorted+deduped search terms
  std::vector<vsm::ScoredItem> local; ///< per-node top_k staging
  std::vector<vsm::ItemId> harvest;   ///< per-node match_all staging
  std::vector<overlay::NodeId> homes; ///< replica homes (closest_nodes) and
                                      ///< alive-node listings, caller-buffer
                                      ///< overlays of Overlay lookups

  /// Op-entry bracket: rewinds the arena; callers clear the plain
  /// vectors they use (clearing keeps capacity).
  void begin_op() noexcept { arena.reset(); }
};

/// The calling thread's scratch. Each read-op core calls this once at
/// entry. Op cores never nest (no core calls another core), so per-op
/// reuse within a thread is safe, and every EpochEngine worker thread
/// owns its own instance.
[[nodiscard]] OpScratch& op_scratch();

}  // namespace meteo::core
