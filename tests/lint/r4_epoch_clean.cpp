// meteo-lint fixture: the epoch-scoped patterns R4 must NOT fire on —
// the pinned epoch travels in a per-op context value instead of
// thread-cached state, and constants stay immutable. Mirrors how the
// EpochEngine holds the epoch as member state and stamps each op's
// trace with it (DESIGN.md §11). Not compiled.
#include <cstdint>

static constexpr std::uint64_t kEpochNever = ~std::uint64_t{0};

struct ReadContext {
  std::uint64_t pinned = kEpochNever;  // per-op, dies with the op
};

std::uint64_t pinned_epoch(const ReadContext& ctx) { return ctx.pinned; }

struct Engine {
  std::uint64_t epochs_served() const { return served_; }
  std::uint64_t served_ = 0;  // member state, committed under the seal
};
