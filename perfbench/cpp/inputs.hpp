// Seeded input generation for the jepod workloads.
//
// A RequestStream turns (workload, seed) into jepod request lines. Requests
// are addressed by (lane, ordinal): lanes 0..clients-1 are the measured
// clients, higher lanes are warm-up traffic, so no two requests of one run
// share an address. The same (workload, seed) gives byte-identical lines;
// the program under test only ever sees these lines.
//
//   profile-hot   `profile` jobs round-robin over four fixed programs
//                 (hotPrograms()); every source repeats, so after warm-up
//                 every job is a program-cache hit.
//   fresh-source  suggest : optimize : profile at 1:1:1. Suggest and
//                 optimize sources are classes of a seeded
//                 corpus::generateScaledCorpus project printed with
//                 jlang::printUnit (a few KB to a few tens of KB); profile
//                 sources are short seed-varied programs. Every source ends
//                 in a class named after (seed, lane, ordinal), so no source
//                 repeats and the program cache never hits.
//
// Lines are spliced from pre-rendered templates and pre-escaped sources, so
// making a request costs a few memcpys, not a JSON render.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kProfileHot, kFreshSource, kTable4 };

/// "profile-hot" | "fresh-source" | "table4".
std::string_view workloadName(Workload w) noexcept;
/// Parses a workload name; false when unknown.
bool parseWorkload(std::string_view name, Workload* out) noexcept;

/// One of profile-hot's fixed programs.
struct HotProgram {
  std::string name;
  std::string source;
  std::uint64_t heapLimit = 0;  // objects before mark-compact; 0 = never
};

/// The four profile-hot programs: a ~20k-iteration loop kernel, a ~2k-call
/// kernel, the demo edge pipeline with a heap limit small enough that the
/// collector runs in every job, and a short loop.
const std::vector<HotProgram>& hotPrograms();

struct Request {
  std::string id;
  std::string command;  // profile | suggest | optimize
  std::string line;     // the wire line, without the trailing newline
  int hotProgram = -1;  // index into hotPrograms() on profile-hot
};

class RequestStream {
 public:
  /// `workload` must be profile-hot or fresh-source.
  RequestStream(Workload workload, std::uint64_t seed);

  /// Requests per round: every round of one lane covers each program
  /// (profile-hot) or each command (fresh-source) exactly once, so per-job
  /// counts over whole rounds are a function of the seed alone.
  std::uint64_t roundSize() const noexcept;

  Request make(std::uint32_t lane, std::uint64_t ordinal) const;

  /// The source text make() embeds (for tests and hashing).
  std::string sourceOf(std::uint32_t lane, std::uint64_t ordinal) const;

 private:
  struct Template {
    std::string head;  // up to the id
    std::string mid;   // between the id and the source
    std::string tail;  // after the source
  };

  Template makeTemplate(const std::string& command,
                        std::uint64_t heapLimit) const;
  std::string nonceClass(const char* prefix, std::uint32_t lane,
                         std::uint64_t ordinal) const;
  /// fresh-source suggest/optimize: which pool source, and the nonce class
  /// appended to it.
  std::size_t poolEntry(std::uint32_t lane, std::uint64_t ordinal) const;
  std::string editSuffix(std::uint32_t lane, std::uint64_t ordinal) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<Template> templates_;  // by command (fresh) or program (hot)
  std::vector<std::string> sources_;         // raw
  std::vector<std::string> escapedSources_;  // JSON-escaped
  // fresh-source profile programs: seed-dependent shape.
  int probeBound_ = 0;
  int probeModulus_ = 0;
};

}  // namespace perfbench
