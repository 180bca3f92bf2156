#pragma once

/// \file workloads.hpp
/// The three workloads (perfbench/README.md). Each sets up its system,
/// runs its measured phase for at least Options::seconds, checks its
/// outputs, and records either the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run) into the report.

#include "common.hpp"

namespace perfbench {

/// Closed loop over core::Server: 256 outstanding requests, 64-op epoch
/// windows, 2 read workers, the serve_mixed request mix, 2% message drop.
void run_serve(const Options& options, Report& report);

/// Fault-free, read-only BatchEngine batches (locate, retrieve, search)
/// over the fully loaded system.
void run_read(const Options& options, Report& report);

/// Fault-free, write-only: BatchEngine publishes of half the corpus, then
/// BatchEngine withdrawals of a seeded sample of live items.
void run_ingest(const Options& options, Report& report);

}  // namespace perfbench
