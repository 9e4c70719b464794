// Host and build stamp printed with every report.
#pragma once

#include <string>

#include "cli.hpp"

namespace perfbench {

/// One JSON object: nproc, CPU affinity, compiler and version, build type
/// and flags, git sha and source digest (from run.py), workload and seed.
std::string hostStampJson(const Options& options);

/// Empty when this binary may report numbers; otherwise why not (a Debug
/// build, assertions enabled, or a sanitizer build).
std::string buildRefusal();

}  // namespace perfbench
