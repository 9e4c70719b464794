#include "cli.hpp"

#include <charconv>
#include <map>
#include <set>

namespace perfbench {

std::uint64_t parseUnsigned(const std::string& flag, const std::string& text,
                            std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError("--" + flag + ": not an unsigned integer: '" + text +
                     "'");
  }
  if (v < lo || v > hi) {
    throw UsageError("--" + flag + ": " + text + " is outside [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

Options parseOptions(int argc, char** argv) {
  static const std::set<std::string> kKnown = {
      "workload", "seed",    "seconds",    "trace",         "out-dir",
      "pinned",   "git-sha", "source-sha", "capture-table4"};
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument: '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + name + " needs a value");
    }
    if (kKnown.count(name) == 0) throw UsageError("unknown flag: --" + name);
    if (!values.emplace(name, value).second) {
      throw UsageError("--" + name + " given twice");
    }
  }

  Options o;
  const auto take = [&values](const char* name, std::string* into) {
    const auto it = values.find(name);
    if (it == values.end()) return false;
    *into = it->second;
    return true;
  };
  take("out-dir", &o.outDir);
  take("pinned", &o.pinnedTable4);
  take("git-sha", &o.gitSha);
  take("source-sha", &o.sourceSha);
  const bool capture = take("capture-table4", &o.captureTable4);
  std::string text;
  for (const char* runFlag : {"workload", "seed", "seconds", "trace"}) {
    if (capture && values.count(runFlag) != 0) {
      throw UsageError(std::string("--capture-table4 takes no --") + runFlag);
    }
    if (!capture && values.count(runFlag) == 0) {
      throw UsageError(std::string("missing --") + runFlag);
    }
  }
  if (capture) return o;
  take("workload", &text);
  if (!parseWorkload(text, &o.workload)) {
    throw UsageError("unknown workload '" + text +
                     "' (profile-hot, fresh-source, table4)");
  }
  take("seed", &text);
  o.seed = parseUnsigned("seed", text, 0, UINT64_MAX);
  take("seconds", &text);
  o.seconds = static_cast<int>(parseUnsigned("seconds", text, 1, 600));
  take("trace", &text);
  o.trace = parseUnsigned("trace", text, 0, 1) == 1;
  return o;
}

}  // namespace perfbench
