// meteo-lint fixture: R4 must fire on thread_local state caching an
// epoch across reads (checked as-if under src/meteorograph/). A cached
// pinned epoch makes a read's snapshot depend on which worker ran it —
// exactly the hazard the EpochEngine avoids by keeping the epoch as
// member state (DESIGN.md §11). Not compiled.
#include <cstdint>

std::uint64_t pinned_epoch(std::uint64_t current) {
  thread_local std::uint64_t cached = 0;  // R4: stale across epochs
  if (cached == 0) cached = current;
  return cached;
}

std::uint64_t epochs_served() {
  static std::uint64_t count = 0;  // R4: tallies leak across seals
  return ++count;
}
