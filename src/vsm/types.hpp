#pragma once

/// \file types.hpp
/// Core identifier types of the vector space model layer.

#include <cstdint>

namespace meteo::vsm {

/// Index of a keyword (dimension) in the dictionary. The paper's keywords
/// are the World Cup trace's web objects (~89K of them).
using KeywordId = std::uint32_t;

/// Identifier of a published item (the trace's clients, ~2,760K of them).
using ItemId = std::uint64_t;

inline constexpr KeywordId kInvalidKeyword = ~KeywordId{0};

/// Epoch counter of the EpochEngine's sealed windows (DESIGN.md §11): a
/// window's reads run at epoch E, its writes commit into E+1.
using Epoch = std::uint64_t;

}  // namespace meteo::vsm
