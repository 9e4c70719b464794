// Strict command line of the perfbench binary.
//
//   perfbench --workload <profile-hot|fresh-source|table4> --seed <u64>
//             --seconds <1..600> --trace <0|1>
//             [--out-dir DIR] [--pinned FILE] [--git-sha S] [--source-sha S]
//   perfbench --capture-table4 FILE     (write the pinned Table-IV rows)
//
// Both "--name value" and "--name=value" are accepted. An unknown flag, a
// missing or repeated one, a number with trailing garbage or out of range,
// or an unknown workload throws UsageError; main exits 2 on it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "inputs.hpp"

namespace perfbench {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Options {
  Workload workload = Workload::kProfileHot;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Where trace files and the cross-run count record go.
  std::string outDir = ".bench_build/perfbench-out";
  /// Pinned Table-IV rows (the table4 correctness gate).
  std::string pinnedTable4 = "perfbench/pinned/table4_rows.txt";
  std::string gitSha = "unknown";
  std::string sourceSha = "unknown";
  /// Non-empty: capture the pinned rows to this path and exit.
  std::string captureTable4;
};

Options parseOptions(int argc, char** argv);

/// Whole-string unsigned decimal parse in [lo, hi]; throws UsageError.
std::uint64_t parseUnsigned(const std::string& flag, const std::string& text,
                            std::uint64_t lo, std::uint64_t hi);

}  // namespace perfbench
