// jepod service bench: throughput and tail latency of the profiling
// daemon under a multi-tenant client sweep.
//
// For each point in --clients (default 1,8,64) the bench starts a fresh
// in-process daemon on a private socket, fans out that many blocking
// clients, and drives --jobs profile requests per client, round-robin
// over --sources distinct programs (few sources, many jobs: the
// compile-once cache should serve >90% of them). Reported per point:
//
//   jobsPerSec       end-to-end throughput across all clients
//   realSecondsPerIter  mean per-job latency (the regression-gate key)
//   p50/p99LatencyMs   tail behaviour under contention
//   cacheHitRate       hits / (hits + misses) for the point's daemon
//
// Headline claims this pins down: a 64-client sweep on a 4-core runner
// clears 4x the single-client throughput, and the cache hit rate stays
// above 0.9 on the repeated-source workload.
//
// After the clean sweep, a chaos point (row "Chaos/<clients>") repeats
// the widest sweep under a seeded transport-fault plan on the daemon
// side — torn frames, injected resets, stalled ops — with every client
// retrying through it. It reports the same throughput/p99 columns plus
// the retries and reconnects the clients needed, pinning the cost of
// resilience under fire (every job must still succeed).
//
// Flags: --clients=LIST  comma-separated sweep points  (default 1,8,64)
//        --jobs=N        jobs per client per point     (default 50)
//        --sources=K     distinct programs             (default 4)
//        --threads=N     daemon worker threads         (0 = hw cores)
//        --transport-plan=SPEC  chaos-point fault plan (none = skip;
//                        default chaos:seed=3,delay-ms=1)
// plus the common --json/--runs/--trace/--fault-plan set (--fault-plan
// is forwarded to every job, exercising the per-job fault stream path;
// --transport-plan instead mangles the wire those jobs answer over).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "fault/transport.hpp"
#include "jepod/client.hpp"
#include "jepod/daemon.hpp"
#include "obs/registry.hpp"

namespace {

using namespace jepo;

// Distinct-by-construction sources: the loop bound and the printed tag
// vary with k, so each has its own cache identity but comparable cost.
std::string makeSource(int k) {
  const std::string n = std::to_string(k);
  return "class Work" + n + " {\n"
         "  static void main(String[] args) {\n"
         "    int acc = 0;\n"
         "    for (int i = 0; i < " + std::to_string(400 + 7 * k) + "; i++) {\n"
         "      acc = acc + i % 11;\n"
         "    }\n"
         "    System.out.println(\"w" + n + "=\" + acc);\n"
         "  }\n"
         "}\n";
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::global().counter(name).value();
}

struct SweepPoint {
  long clients = 0;
  double elapsedSeconds = 0.0;
  double meanLatencySeconds = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double jobsPerSec = 0.0;
  double cacheHitRate = 0.0;
  long failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
};

double percentileMs(std::vector<double>& sortedMs, double q) {
  if (sortedMs.empty()) return 0.0;
  const std::size_t at = static_cast<std::size_t>(
      q * static_cast<double>(sortedMs.size() - 1) + 0.5);
  return sortedMs[std::min(at, sortedMs.size() - 1)];
}

SweepPoint runPoint(long clients, long jobsPerClient,
                    const std::vector<std::string>& sources, long threads,
                    const std::string& faultPlan,
                    const fault::TransportFaultSpec& transport = {}) {
  char dirTemplate[] = "/tmp/benchjepodXXXXXX";
  if (::mkdtemp(dirTemplate) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  const std::string dir = dirTemplate;

  jepod::DaemonConfig cfg;
  cfg.socketPath = dir + "/s";
  cfg.threads = static_cast<std::size_t>(threads);
  cfg.transportFaults = transport;
  jepod::Daemon daemon(cfg);
  daemon.start();

  const std::uint64_t hits0 = counterValue("jepod.cache.hits");
  const std::uint64_t misses0 = counterValue("jepod.cache.misses");

  std::vector<std::vector<double>> latenciesMs(
      static_cast<std::size_t>(clients));
  std::vector<long> clientFailures(static_cast<std::size_t>(clients), 0);
  std::vector<std::uint64_t> clientRetries(static_cast<std::size_t>(clients),
                                           0);
  std::vector<std::uint64_t> clientReconnects(
      static_cast<std::size_t>(clients), 0);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (long c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      jepod::Client client;
      if (transport.active()) {
        // Under an active fault plan the wire can tear mid-frame; every
        // client retries through it with a seed of its own so backoff
        // storms desynchronize deterministically.
        jepod::RetryPolicy policy;
        policy.maxRetries = 8;
        policy.baseBackoffMs = 1;
        policy.maxBackoffMs = 8;
        policy.jitterSeed = static_cast<std::uint64_t>(c);
        client.setRetryPolicy(policy);
      }
      client.connect(cfg.socketPath);
      auto& mine = latenciesMs[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(jobsPerClient));
      for (long j = 0; j < jobsPerClient; ++j) {
        jepod::JobRequest req;
        req.id = std::to_string(c) + "-" + std::to_string(j);
        req.tenant = "client-" + std::to_string(c);
        req.command = "profile";
        req.source = sources[static_cast<std::size_t>(
            (c + j) % static_cast<long>(sources.size()))];
        req.seed = static_cast<std::uint64_t>(c * 1000 + j);
        req.faultPlan = faultPlan;
        const auto s0 = std::chrono::steady_clock::now();
        const jepod::Response resp = client.submit(req);
        mine.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - s0)
                           .count());
        if (!resp.ok) ++clientFailures[static_cast<std::size_t>(c)];
      }
      clientRetries[static_cast<std::size_t>(c)] = client.retries();
      clientReconnects[static_cast<std::size_t>(c)] = client.reconnects();
    });
  }
  for (auto& t : workers) t.join();

  SweepPoint point;
  point.clients = clients;
  point.elapsedSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  daemon.stop();
  ::rmdir(dir.c_str());

  std::vector<double> all;
  for (const auto& mine : latenciesMs) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  double sumMs = 0.0;
  for (const double ms : all) sumMs += ms;
  const double totalJobs = static_cast<double>(clients * jobsPerClient);
  point.meanLatencySeconds = all.empty() ? 0.0 : sumMs / 1e3 / totalJobs;
  point.p50Ms = percentileMs(all, 0.50);
  point.p99Ms = percentileMs(all, 0.99);
  point.jobsPerSec =
      point.elapsedSeconds > 0.0 ? totalJobs / point.elapsedSeconds : 0.0;
  const std::uint64_t hits = counterValue("jepod.cache.hits") - hits0;
  const std::uint64_t misses = counterValue("jepod.cache.misses") - misses0;
  point.cacheHitRate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  for (const long f : clientFailures) point.failures += f;
  for (const std::uint64_t r : clientRetries) point.retries += r;
  for (const std::uint64_t r : clientReconnects) point.reconnects += r;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"clients", "jobs", "sources", "threads",
                      "transport-plan"});
  bench::BenchReport report("bench_jepod", flags);

  const std::vector<long> clientSweep =
      flags.getIntList("clients", "1,8,64");
  for (const long n : clientSweep) {
    if (n <= 0) {
      std::fprintf(stderr, "--clients: sweep points must be positive\n");
      return 2;
    }
  }
  const long jobs = flags.getInt("jobs", 50, /*min=*/0);
  const long sourceCount = flags.getInt("sources", 4, /*min=*/1);
  const long threads = flags.getInt("threads", 0);
  const std::string faultPlan = flags.get("fault-plan", "");
  const std::string transportPlan =
      flags.get("transport-plan", "chaos:seed=3,delay-ms=1");
  const fault::TransportFaultSpec transport =
      fault::parseTransportPlan(transportPlan == "none" ? "" : transportPlan);
  report.config("clients", flags.get("clients", "1,8,64"));
  report.config("jobs", jobs);
  report.config("sources", sourceCount);
  report.config("threads", threads);
  report.config("faultPlan", faultPlan.empty() ? "none" : faultPlan);
  report.config("transportPlan", transport.active() ? transportPlan : "none");

  std::vector<std::string> sources;
  for (long k = 0; k < sourceCount; ++k) {
    sources.push_back(makeSource(static_cast<int>(k)));
  }

  bench::printHeader("bench_jepod — daemon throughput / tail latency");
  std::printf("%-8s %10s %12s %10s %10s %9s %8s\n", "clients", "jobs/sec",
              "mean s/job", "p50 ms", "p99 ms", "hitRate", "failed");

  int status = 0;
  double singleClientThroughput = 0.0;
  SweepPoint last;
  for (const long clients : clientSweep) {
    const SweepPoint point =
        runPoint(clients, jobs, sources, threads, faultPlan);
    std::printf("%-8ld %10.1f %12.3e %10.3f %10.3f %9.3f %8ld\n",
                point.clients, point.jobsPerSec, point.meanLatencySeconds,
                point.p50Ms, point.p99Ms, point.cacheHitRate,
                point.failures);
    if (point.failures > 0) {
      std::fprintf(stderr, "bench_jepod: %ld jobs failed at %ld clients\n",
                   point.failures, point.clients);
      status = 1;
    }
    if (clients == 1) singleClientThroughput = point.jobsPerSec;
    report.addRow({{"name", "Clients/" + std::to_string(point.clients)},
                   {"clients", static_cast<long long>(point.clients)},
                   {"jobsPerClient", static_cast<long long>(jobs)},
                   {"jobsPerSec", point.jobsPerSec},
                   {"realSecondsPerIter", point.meanLatencySeconds},
                   {"p50LatencyMs", point.p50Ms},
                   {"p99LatencyMs", point.p99Ms},
                   {"cacheHitRate", point.cacheHitRate},
                   {"failedJobs", static_cast<long long>(point.failures)}});
    last = point;
  }

  // Scaling headline: the widest sweep point against the single-client
  // baseline, when the sweep includes both.
  if (singleClientThroughput > 0.0 && last.clients > 1) {
    const double ratio = last.jobsPerSec / singleClientThroughput;
    std::printf("\nscaling: %ld clients at %.2fx single-client throughput\n",
                last.clients, ratio);
    report.addRow(
        {{"name", "Scaling/" + std::to_string(last.clients) + "v1"},
         {"clients", static_cast<long long>(last.clients)},
         {"speedupOverSingleClient", ratio}});
  }

  // Chaos point: the widest sweep again, but over a wire that tears,
  // stalls and resets on a seeded schedule, with retrying clients. Every
  // job must still succeed — the row prices the resilience machinery
  // (throughput, p99, retries burned) rather than merely surviving it.
  if (transport.active() && last.clients > 0) {
    const SweepPoint chaos = runPoint(last.clients, jobs, sources, threads,
                                      faultPlan, transport);
    std::printf("\nchaos (%s):\n", transportPlan.c_str());
    std::printf("%-8ld %10.1f %12.3e %10.3f %10.3f %9.3f %8ld  "
                "retries=%llu reconnects=%llu\n",
                chaos.clients, chaos.jobsPerSec, chaos.meanLatencySeconds,
                chaos.p50Ms, chaos.p99Ms, chaos.cacheHitRate, chaos.failures,
                static_cast<unsigned long long>(chaos.retries),
                static_cast<unsigned long long>(chaos.reconnects));
    if (chaos.failures > 0) {
      std::fprintf(stderr,
                   "bench_jepod: %ld jobs failed under the transport plan\n",
                   chaos.failures);
      status = 1;
    }
    report.addRow({{"name", "Chaos/" + std::to_string(chaos.clients)},
                   {"clients", static_cast<long long>(chaos.clients)},
                   {"jobsPerClient", static_cast<long long>(jobs)},
                   {"jobsPerSec", chaos.jobsPerSec},
                   {"realSecondsPerIter", chaos.meanLatencySeconds},
                   {"p50LatencyMs", chaos.p50Ms},
                   {"p99LatencyMs", chaos.p99Ms},
                   {"cacheHitRate", chaos.cacheHitRate},
                   {"retries", static_cast<long long>(chaos.retries)},
                   {"reconnects", static_cast<long long>(chaos.reconnects)},
                   {"failedJobs", static_cast<long long>(chaos.failures)}});
  }

  const int reportStatus = report.finish();
  return status != 0 ? status : reportStatus;
}
