// The three workloads. Each returns the run's Outcome: end-to-end metrics
// when options.trace is false, per-layer metrics when it is true, and the
// correctness gates of both.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "measure.hpp"

namespace perfbench {

/// profile-hot and fresh-source: a closed loop of 2 clients against an
/// in-process jepod::Daemon (threads=2) over its Unix socket.
Outcome runJepodWorkload(const Options& options);

/// table4: Table-IV runs through experiments::ParallelRunner (2 threads).
Outcome runTable4Workload(const Options& options);

/// Serial Table-IV capture for the pinned-rows file. Returns 0 on success.
int captureTable4Rows(const std::string& path);

/// Counts that must repeat exactly for one (workload, seed, build): checked
/// against the record a previous run of the same seed left in
/// options.outDir (traced and untraced runs share it), written when absent.
void checkCountRecord(const Options& options,
                      const std::vector<std::pair<std::string, double>>& counts,
                      Outcome* outcome);

}  // namespace perfbench
