// The benchmark's own span recorder.
//
// Spans are recorded from the benchmark's files around its calls into each
// layer (jepod, jlang, jepo, jvm, experiments, ml, stats) — never from
// inside the program, and independent of the program's obs layer, which
// stays disabled (with obs on, the instrumenter emits a span per method and
// would inflate jepo.profile).
//
// Each span has a name, start, end, its parent (the span open on the same
// thread when it began) and a job id shared by every span of one request.
// Spans are kept in per-thread memory while recording, written out once at
// the end (writeChromeTrace), and reduced to per-layer self time: a span's
// duration minus the part covered by its children.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // a string literal
  std::uint64_t job = 0;
  double startUs = 0.0;
  double endUs = 0.0;
  std::int64_t parent = -1;  // index into the same thread's records
  std::uint32_t thread = 0;
};

/// Per-name totals of one reduction.
struct LayerTotal {
  std::uint64_t spans = 0;
  double selfUs = 0.0;
  double totalUs = 0.0;
  std::vector<double> durationsUs;  // per span, in record order
};

class Tracer {
 public:
  /// Recording is off by default; Scope is then one branch.
  static void setEnabled(bool on) noexcept;
  static bool enabled() noexcept;

  /// Drop every recorded span (buffers stay registered).
  static void clear();

  /// Every thread's spans, parents re-indexed into the returned vector.
  static std::vector<SpanRecord> collect();

  /// Self and total time per span name.
  static std::map<std::string, LayerTotal> reduce(
      const std::vector<SpanRecord>& spans);

  /// Chrome trace_event JSON ("X" events; job and parent in args).
  static bool writeChromeTrace(const std::vector<SpanRecord>& spans,
                               const std::string& path);

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::int64_t index_ = -1;  // -1: recording was off at construction
  };
};

/// Monotonic microseconds since the first call in the process.
double nowMicros() noexcept;

}  // namespace perfbench
