// Shared utilities for the bench binaries: a strict --key=value flag
// parser, the paper-vs-measured table header every reproduction bench
// prints, and BenchReport — the common machine-readable artifact
// ({bench, config, rows[], wallMs, counters{}}) every bench emits with
// --json=<path> for CI's smoke-bench step.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "support/json_writer.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace jepo::bench {

/// Parses flags of the form --name=value (bare --name means "true").
///
/// Every bench declares its flag vocabulary up front; anything outside it
/// — a typo like --intances, a flag from a different bench, a stray
/// positional argument — prints the valid set and exits with status 2, so
/// a CI invocation can never silently run with a misspelled knob at its
/// default value. "help", "json", "runs", "trace" and "fault-plan" are
/// accepted by every bench (CI runs them all uniformly with
/// --runs=1 --json=...; chaos runs add --fault-plan=<spec>).
class Flags {
 public:
  Flags(int argc, char** argv, std::vector<std::string> known = {}) {
    for (const char* common : {"help", "json", "runs", "trace",
                               "fault-plan"}) {
      if (std::find(known.begin(), known.end(), common) == known.end()) {
        known.emplace_back(common);
      }
    }
    std::sort(known.begin(), known.end());
    bool bad = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (startsWith(arg, "--")) {
        const auto eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
        if (std::binary_search(known.begin(), known.end(), name)) {
          if (eq == std::string::npos) {
            values_.emplace_back(name, "true");
          } else {
            values_.emplace_back(name, arg.substr(eq + 1));
          }
          continue;
        }
      }
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      bad = true;
    }
    if (bad || getBool("help")) {
      std::FILE* out = bad ? stderr : stdout;
      std::fprintf(out, "valid flags:");
      for (const auto& k : known) std::fprintf(out, " --%s", k.c_str());
      std::fprintf(out, "\n");
      std::exit(bad ? 2 : 0);
    }
  }

  std::string get(const std::string& name, const std::string& def) const {
    const std::optional<std::string> v = find(name);
    return v ? *v : def;
  }

  /// Numeric flags parse strictly: a value that is empty, has trailing
  /// garbage, is out of range or is below `min` prints the offending flag
  /// and exits 2, so a typo like --clients=abc never runs the bench at some
  /// fallback value.
  long getInt(const std::string& name, long def,
              long min = std::numeric_limits<long>::min()) const {
    const std::optional<std::string> v = find(name);
    if (!v) return def;
    const long n = parseInt(name, *v);
    if (n < min) {
      badValue(name, *v, ("an integer >= " + std::to_string(min)).c_str());
    }
    return n;
  }

  double getDouble(const std::string& name, double def) const {
    const std::optional<std::string> v = find(name);
    if (!v) return def;
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
      badValue(name, *v, "a number");
    }
    return d;
  }

  /// A comma-separated list of integers (each parsed like getInt).
  std::vector<long> getIntList(const std::string& name,
                               const std::string& def) const {
    const std::string text = get(name, def);
    std::vector<long> out;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = text.find(',', pos);
      out.push_back(parseInt(name, text.substr(pos, comma - pos)));
      if (comma == std::string::npos) return out;
      pos = comma + 1;
    }
  }

  bool getBool(const std::string& name, bool def = false) const {
    const std::string v = get(name, "");
    return v.empty() ? def : v == "true" || v == "1";
  }

 private:
  std::optional<std::string> find(const std::string& name) const {
    for (const auto& [k, v] : values_) {
      if (k == name) return v;
    }
    return std::nullopt;
  }

  static long parseInt(const std::string& name, const std::string& v) {
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
      badValue(name, v, "an integer");
    }
    return n;
  }

  [[noreturn]] static void badValue(const std::string& name,
                                    const std::string& v, const char* what) {
    std::fprintf(stderr, "--%s=%s: expected %s\n", name.c_str(), v.c_str(),
                 what);
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> values_;
};

/// Resolve --fault-plan=<spec> (see fault::parseFaultPlan for the syntax:
/// a preset like "transient" or "chaos", optionally with ':'-separated
/// key=value overrides). Returns nullopt when the flag is absent or the
/// spec is inactive ("none"); a malformed spec prints the parse error and
/// exits 2, matching the strict-flag philosophy above.
inline std::optional<fault::FaultSpec> faultSpecFromFlags(
    const Flags& flags) {
  const std::string text = flags.get("fault-plan", "");
  if (text.empty()) return std::nullopt;
  try {
    fault::FaultSpec spec = fault::parseFaultPlan(text);
    if (!spec.active()) return std::nullopt;
    return spec;
  } catch (const Error& e) {
    std::fprintf(stderr, "--fault-plan: %s\n", e.what());
    std::exit(2);
  }
}

inline void printHeader(const std::string& title) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================\n");
}

/// The machine-readable side of a bench run. Construct it right after
/// Flags (it starts the wall clock and arms tracing from JEPO_TRACE /
/// --trace), record config knobs and result rows while the bench prints
/// its human-readable table, and `return report.finish();` from main.
///
/// finish() writes the common schema
///   {"bench": ..., "config": {...}, "rows": [{...}, ...],
///    "wallMs": ..., "counters": {...}}
/// to the --json path (validated in CI by scripts/check_bench_json.py) and
/// dumps the Chrome trace if one was requested.
class BenchReport {
 public:
  BenchReport(std::string bench, const Flags& flags)
      : bench_(std::move(bench)),
        jsonPath_(flags.get("json", "")),
        start_(std::chrono::steady_clock::now()) {
    obs::initFromEnv();
    const std::string trace = flags.get("trace", "");
    if (!trace.empty()) obs::setTracePath(trace);
  }

  void config(const std::string& key, JsonValue v) {
    config_.emplace_back(key, std::move(v));
  }

  using Row = std::vector<std::pair<std::string, JsonValue>>;
  void addRow(Row row) { rows_.push_back(std::move(row)); }

  /// Returns main's exit status: 0, or 1 if a requested report could not
  /// be written.
  int finish() {
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    int status = 0;
    if (!jsonPath_.empty() && !writeJson(wallMs)) status = 1;
    obs::writeTraceIfRequested();
    return status;
  }

 private:
  bool writeJson(double wallMs) const {
    JsonWriter w;
    w.beginObject();
    w.kv("bench", bench_);
    w.key("config");
    w.beginObject();
    for (const auto& [k, v] : config_) w.kv(k, v);
    w.endObject();
    w.key("rows");
    w.beginArray();
    for (const auto& row : rows_) {
      w.beginObject();
      for (const auto& [k, v] : row) w.kv(k, v);
      w.endObject();
    }
    w.endArray();
    w.kv("wallMs", wallMs);
    w.key("counters");
    w.beginObject();
    for (const auto& [name, value] :
         obs::Registry::global().snapshot().counters) {
      w.kv(name, value);
    }
    w.endObject();
    w.endObject();

    std::FILE* f = std::fopen(jsonPath_.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath_.c_str());
      return false;
    }
    const std::string& doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

  std::string bench_;
  std::string jsonPath_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, JsonValue>> config_;
  std::vector<Row> rows_;
};

}  // namespace jepo::bench
