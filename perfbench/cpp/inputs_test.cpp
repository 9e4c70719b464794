// Seeded input generation tests for perfbench's request streams:
//   - the same seed gives byte-identical request streams;
//   - a different seed changes the fresh-source sources;
//   - no fresh-source source hash repeats within a run;
//   - spliced lines are exactly what jepod::renderRequest renders;
//   - every profile-hot round covers each program once.
// Plain executable (no test framework): prints each failed check and exits
// 1 if any failed.
#include <cstdio>
#include <set>
#include <string>

#include "inputs.hpp"
#include "jepod/program_cache.hpp"
#include "jepod/protocol.hpp"

namespace {

using perfbench::RequestStream;
using perfbench::Workload;

int gFailures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++gFailures;
  }
}

void sameSeedSameBytes(Workload w) {
  const RequestStream a(w, 7);
  const RequestStream b(w, 7);
  bool same = true;
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    for (std::uint64_t i = 0; i < 60; ++i) {
      same = same && a.make(lane, i).line == b.make(lane, i).line;
    }
  }
  check(same, std::string(perfbench::workloadName(w)) +
                  ": same seed gives different request bytes");
}

void seedChangesFreshSources() {
  const RequestStream a(Workload::kFreshSource, 1);
  const RequestStream b(Workload::kFreshSource, 2);
  for (std::uint64_t i = 0; i < 3; ++i) {  // suggest, optimize, profile
    check(a.sourceOf(0, i) != b.sourceOf(0, i),
          "seeds 1 and 2 give the same fresh-source source at ordinal " +
              std::to_string(i));
  }
  // Not just the nonce: the suggest/optimize pool itself moves.
  std::set<std::uint64_t> poolA;
  std::set<std::uint64_t> poolB;
  const auto withoutNonce = [](const std::string& source) {
    return jepo::jepod::sourceHash(
        source.substr(0, source.rfind("\nclass Edit")));
  };
  for (std::uint64_t i = 0; i < 30; i += 3) {
    poolA.insert(withoutNonce(a.sourceOf(0, i)));
    poolB.insert(withoutNonce(b.sourceOf(0, i)));
  }
  bool disjoint = true;
  for (const std::uint64_t h : poolA) disjoint = disjoint && !poolB.count(h);
  check(disjoint, "seeds 1 and 2 share suggest sources");
}

void freshSourcesNeverRepeat() {
  const RequestStream s(Workload::kFreshSource, 42);
  std::set<std::uint64_t> seen;
  std::uint64_t repeats = 0;
  for (std::uint32_t lane = 0; lane < 6; ++lane) {
    for (std::uint64_t i = 0; i < 1500; ++i) {
      if (!seen.insert(jepo::jepod::sourceHash(s.sourceOf(lane, i))).second) {
        ++repeats;
      }
    }
  }
  check(repeats == 0,
        std::to_string(repeats) + " fresh-source source hashes repeat");
}

void linesMatchTheRenderer(Workload w) {
  const RequestStream s(w, 3);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const perfbench::Request r = s.make(1, i);
    const jepo::jepod::JobRequest req = jepo::jepod::parseRequest(r.line);
    check(jepo::jepod::renderRequest(req) == r.line,
          "spliced line differs from renderRequest: " + r.id);
    check(req.id == r.id && req.command == r.command &&
              req.source == s.sourceOf(1, i),
          "spliced line carries the wrong fields: " + r.id);
  }
}

void hotRoundsCoverEveryProgram() {
  const RequestStream s(Workload::kProfileHot, 5);
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    std::set<int> programs;
    for (std::uint64_t i = 0; i < s.roundSize(); ++i) {
      programs.insert(s.make(lane, 4 + i).hotProgram);
    }
    check(programs.size() == perfbench::hotPrograms().size(),
          "a profile-hot round misses a program");
  }
}

}  // namespace

int main() {
  sameSeedSameBytes(Workload::kProfileHot);
  sameSeedSameBytes(Workload::kFreshSource);
  seedChangesFreshSources();
  freshSourcesNeverRepeat();
  linesMatchTheRenderer(Workload::kProfileHot);
  linesMatchTheRenderer(Workload::kFreshSource);
  hotRoundsCoverEveryProgram();
  if (gFailures == 0) std::puts("perfbench_inputs_test: all checks passed");
  return gFailures == 0 ? 0 : 1;
}
