#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include "support/json_writer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

namespace {

/// The CPUs this process may run on, as a range list ("0-3,6").
std::string affinityList(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  int runStart = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in) {
      ++*count;
      if (runStart < 0) runStart = cpu;
      continue;
    }
    if (runStart >= 0) {
      if (!out.empty()) out += ',';
      out += std::to_string(runStart);
      if (cpu - 1 > runStart) out += "-" + std::to_string(cpu - 1);
      runStart = -1;
    }
  }
  return out;
}

}  // namespace

std::string buildRefusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug") return "Debug build";
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset): not an optimized build";
#endif
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "built without optimization";
#endif
  return "";
}

std::string hostStampJson(const Options& options) {
  int allowed = 0;
  const std::string affinity = affinityList(&allowed);
  jepo::JsonWriter w;
  w.beginObject();
  w.key("host");
  w.beginObject();
  w.kv("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  w.kv("cpuAffinity", affinity);
  w.kv("cpusAllowed", allowed);
  w.kv("compiler", PERFBENCH_COMPILER);
  w.kv("compilerVersion", __VERSION__);
  w.kv("buildType", PERFBENCH_BUILD_TYPE);
  w.kv("cxxFlags", PERFBENCH_CXX_FLAGS);
  w.kv("gitSha", options.gitSha);
  w.kv("sourceSha256", options.sourceSha);
  w.kv("workload", std::string(workloadName(options.workload)));
  w.kv("seed", static_cast<unsigned long long>(options.seed));
  w.kv("seconds", options.seconds);
  w.kv("trace", options.trace);
  w.endObject();
  w.endObject();
  return w.str();
}

}  // namespace perfbench
