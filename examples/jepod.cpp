// jepod — run the profiling daemon until SIGTERM/SIGINT, then drain.
//
//   jepod --socket=/tmp/jepod.sock [--threads=N] [--max-queue=N]
//         [--cache-bytes=N] [--retry-after-ms=N] [--idle-timeout-ms=N]
//         [--transport-plan=SPEC]
//
// --idle-timeout-ms reaps connections silent that long with no job in
// flight (half-open peers). --transport-plan injects seeded transport
// faults on every accepted connection (chaos drills; see
// src/fault/transport.hpp for the preset/override syntax).
//
// The daemon serves parse->suggest->instrument->measure jobs over the
// Unix-domain socket (newline-delimited JSON; see src/jepod/protocol.hpp).
// On SIGTERM it stops accepting work, answers new requests with a typed
// "shutting-down" reject, completes every in-flight job, and exits 0.
// With JEPO_TRACE=<path> set it records spans while it serves and writes
// them to <path> as Chrome trace_event JSON once it has drained.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "jepod/daemon.hpp"
#include "obs/obs.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jepod --socket=PATH [--threads=N] [--max-queue=N] "
               "[--cache-bytes=N] [--retry-after-ms=N] "
               "[--idle-timeout-ms=N] [--transport-plan=SPEC]\n");
  return 2;
}

bool parseU64(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != nullptr && end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jepo;
  jepod::DaemonConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long n = 0;
    if (arg.rfind("--socket=", 0) == 0) {
      cfg.socketPath = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parseU64(arg.c_str() + 10, &n)) return usage();
      cfg.threads = static_cast<std::size_t>(n);
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      if (!parseU64(arg.c_str() + 12, &n)) return usage();
      cfg.maxQueue = static_cast<std::size_t>(n);
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parseU64(arg.c_str() + 14, &n)) return usage();
      cfg.cacheBytes = static_cast<std::size_t>(n);
    } else if (arg.rfind("--retry-after-ms=", 0) == 0) {
      if (!parseU64(arg.c_str() + 17, &n)) return usage();
      cfg.retryAfterMs = static_cast<int>(n);
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      if (!parseU64(arg.c_str() + 18, &n)) return usage();
      cfg.idleTimeoutMs = static_cast<int>(n);
    } else if (arg.rfind("--transport-plan=", 0) == 0) {
      try {
        cfg.transportFaults = fault::parseTransportPlan(arg.substr(17));
      } catch (const Error& e) {
        std::fprintf(stderr, "jepod: %s\n", e.what());
        return 2;
      }
    } else {
      return usage();
    }
  }
  if (cfg.socketPath.empty()) return usage();

  obs::initFromEnv();
  try {
    jepod::Daemon daemon(cfg);
    daemon.start();
    std::fprintf(stderr, "jepod: serving on %s (threads=%zu max-queue=%zu)\n",
                 cfg.socketPath.c_str(), cfg.threads, cfg.maxQueue);
    // The SignalDrain watcher turns SIGTERM/SIGINT into requestDrain();
    // waitDrained() then blocks this thread until the last in-flight job
    // has flushed its response.
    jepod::SignalDrain signals(daemon);
    daemon.waitDrained();
    // Every job has finished, so the trace holds all of their spans.
    if (!obs::tracePath().empty() && !obs::writeTraceIfRequested()) {
      std::fprintf(stderr, "jepod: cannot write trace %s\n",
                   obs::tracePath().c_str());
    }
    std::fprintf(stderr, "jepod: drained, bye\n");
  } catch (const Error& e) {
    std::fprintf(stderr, "jepod: %s\n", e.what());
    return 1;
  }
  return 0;
}
