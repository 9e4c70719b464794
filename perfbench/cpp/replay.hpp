// In-process replay of jepod jobs through each layer's public functions.
//
// Replayer::run executes one request line the way Daemon::runJob does —
// parseRequest, sourceHash + ProgramCache::get, on a miss
// Parser::parseProgram + ensureResolved + ProgramCache::put, then the
// command (SuggestionEngine::analyzeProgram + renderOptimizerView,
// Optimizer::optimize + printUnit, or Profiler::profile) and its
// render*Response — with a Tracer span around each call. Its output is the
// response line the daemon must have sent for the same request (the
// determinism contract in jepod/protocol.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "jepod/program_cache.hpp"

namespace perfbench {

class Replayer {
 public:
  /// `cacheBytes`: the program-cache budget, as DaemonConfig::cacheBytes.
  explicit Replayer(std::size_t cacheBytes);

  /// Replays one request line; returns the response line. Throws on any
  /// failure (the benchmark's inputs never fail in the daemon).
  std::string run(const std::string& line, std::uint64_t job);

  /// The engine alone (span "jvm.run_bare"): Interpreter::runMain with no
  /// hooks on a fresh SimMachine, same heap and step limits as the job.
  /// The program comes from the cache (compiled outside the span if it was
  /// evicted), so only execution is timed.
  void runBare(const std::string& line, std::uint64_t job);

 private:
  jepo::jepod::ProgramCache cache_;
};

/// The part of a response line the determinism contract covers: from
/// "cached" on, i.e. everything but the echoed id.
std::string_view payloadOf(std::string_view response) noexcept;

}  // namespace perfbench
