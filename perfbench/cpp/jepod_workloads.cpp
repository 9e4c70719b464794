// profile-hot and fresh-source: jepod traffic over the real Unix socket.
//
// Untraced run:
//   1. set-up, repeated kSetupRepeats times (setup_s is the median): start
//      a Daemon (threads=2) and warm it with a few rounds per client; the
//      last daemon stays up;
//   2. the measured window: 2 closed-loop clients, each sending its lane's
//      pre-rendered lines with Client::roundTrip until --seconds have
//      passed, always finishing the round it is in. Only roundTrip is
//      timed; each response is checked for "ok" and digested after it;
//   3. the gates: every payload equals the in-process replay's rendering;
//      the daemon's vm/instrumenter/gc counters equal the replay's;
//      fresh-source sources never repeat; optimize rewrites reparse.
// Throughput and CPU per job are medians over one-second slices of the
// window; latency quantiles are over every job of it.
// Traced run: the same window, then every kTraceStride-th round of each
// client replayed in-process untraced and traced (spans from Replayer), and
// an engine-only pass over a sample of profile jobs; spans are written out
// and reduced to per-layer self time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "inputs.hpp"
#include "jepod/client.hpp"
#include "jepod/daemon.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "replay.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace jp = jepo::jepod;

constexpr std::uint32_t kClients = 2;
constexpr std::size_t kDaemonThreads = 2;
/// Program-cache budget in source bytes: ample for profile-hot's 4 programs.
/// fresh-source never hits, so the budget only sets how many dead programs
/// stay resident. At the 8 MiB default (~1000 resolved programs, ~250 MB)
/// per-job CPU time climbs all through a run as the heap churns (0.8 to
/// 1.4 ms over 45 s on a 4-vCPU Xeon VM), so a figure would depend on how
/// many jobs the run got through; at 256 KiB it stays flat.
constexpr std::size_t kCacheBytes = 256u << 10;
constexpr int kSetupRepeats = 9;
/// Warm-up rounds per client: profile-hot fills the cache in its first
/// round; fresh-source has nothing to fill, so it warms longer.
constexpr std::uint64_t kHotWarmupRounds = 2;
constexpr std::uint64_t kFreshWarmupRounds = 10;
/// Lane of the requests the expected payloads are rendered from.
constexpr std::uint32_t kExpectLane = 1000;
/// A traced run replays every kTraceStride-th round of each lane.
constexpr std::uint64_t kTraceStride = 4;
/// Upper bound on engine-only runs in a traced run.
constexpr std::uint64_t kMaxBareRuns = 400;

std::uint64_t jobId(std::uint32_t lane, std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(lane) << 40) | ordinal;
}

/// The registry counters the gates and per-layer metrics read.
struct Counters {
  std::uint64_t steps = 0;
  std::uint64_t records = 0;
  std::uint64_t gcs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;

  static Counters now() {
    jepo::obs::Registry& reg = jepo::obs::Registry::global();
    const auto v = [&reg](const char* name) {
      return reg.counter(name).value();
    };
    Counters c;
    c.steps = v("vm.steps");
    c.records = v("instrumenter.records");
    c.gcs = v("gc.collections");
    c.hits = v("jepod.cache.hits");
    c.misses = v("jepod.cache.misses");
    c.evictions = v("jepod.cache.evictions");
    c.rejected = v("jepod.jobs.rejected.queuefull") +
                 v("jepod.jobs.rejected.draining") + v("jepod.requests.bad");
    return c;
  }

  Counters since(const Counters& before) const {
    Counters d;
    d.steps = steps - before.steps;
    d.records = records - before.records;
    d.gcs = gcs - before.gcs;
    d.hits = hits - before.hits;
    d.misses = misses - before.misses;
    d.evictions = evictions - before.evictions;
    d.rejected = rejected - before.rejected;
    return d;
  }

  bool sameJvmCounts(const Counters& o) const {
    return steps == o.steps && records == o.records && gcs == o.gcs;
  }
};

struct JobSample {
  double latencyMs = 0.0;
  double doneAt = 0.0;  // wallSeconds() when the response arrived
  std::uint64_t payloadDigest = 0;
  std::uint32_t requestBytes = 0;   // with the newline
  std::uint32_t responseBytes = 0;  // with the newline
  bool ok = false;
};

struct LaneLog {
  std::vector<JobSample> jobs;  // index = ordinal
  std::string error;
};

/// One client: whole rounds of its lane's requests until `deadline`
/// (wallSeconds) or `maxRounds`, whichever comes first.
void driveLane(const std::string& socket, const RequestStream& stream,
               std::uint32_t lane, double deadline, std::uint64_t maxRounds,
               LaneLog* log) {
  try {
    jp::Client client;
    client.connect(socket);
    const std::uint64_t perRound = stream.roundSize();
    for (std::uint64_t round = 0; round < maxRounds; ++round) {
      for (std::uint64_t j = 0; j < perRound; ++j) {
        const Request req = stream.make(lane, round * perRound + j);
        const double t0 = wallSeconds();
        const std::string response = client.roundTrip(req.line);
        const double t1 = wallSeconds();
        JobSample s;
        s.latencyMs = (t1 - t0) * 1e3;
        s.doneAt = t1;
        s.payloadDigest = jp::sourceHash(payloadOf(response));
        s.requestBytes = static_cast<std::uint32_t>(req.line.size() + 1);
        s.responseBytes = static_cast<std::uint32_t>(response.size() + 1);
        s.ok = response.rfind("{\"v\":1,\"id\":\"" + req.id + "\",\"ok\":true,",
                              0) == 0;
        log->jobs.push_back(s);
      }
      if (wallSeconds() >= deadline) break;
    }
  } catch (const std::exception& e) {
    log->error = e.what();
  }
}

/// Runs kClients clients, lanes firstLane.., and joins them. With
/// `sliceCpu`, the calling thread meanwhile samples the process CPU time at
/// every whole second from `start` until `deadline`.
std::vector<LaneLog> runClients(const std::string& socket,
                                const RequestStream& stream,
                                std::uint32_t firstLane, double deadline,
                                std::uint64_t maxRounds, double start = 0.0,
                                std::vector<double>* sliceCpu = nullptr) {
  std::vector<LaneLog> logs(kClients);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back(driveLane, std::cref(socket), std::cref(stream),
                         firstLane + c, deadline, maxRounds, &logs[c]);
  }
  for (double at = start + 1.0; sliceCpu != nullptr && at <= deadline;
       at += 1.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(at - wallSeconds()));
    sliceCpu->push_back(processCpuSeconds());
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Per one-second slice of the window: jobs completed, and CPU ms per job.
/// Medians over slices shrug off a disturbance shorter than half a run.
void sliceRates(const std::vector<LaneLog>& logs, double start, double cpu0,
                const std::vector<double>& sliceCpu,
                std::vector<double>* jobsPerSlice,
                std::vector<double>* cpuMsPerJob) {
  std::vector<double> counts(sliceCpu.size(), 0.0);
  for (const LaneLog& log : logs) {
    for (const JobSample& s : log.jobs) {
      const auto slice = static_cast<std::size_t>(s.doneAt - start);
      if (s.doneAt >= start && slice < counts.size()) counts[slice] += 1.0;
    }
  }
  double cpuBefore = cpu0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    jobsPerSlice->push_back(counts[k]);
    if (counts[k] > 0.0) {
      cpuMsPerJob->push_back((sliceCpu[k] - cpuBefore) * 1e3 / counts[k]);
    }
    cpuBefore = sliceCpu[k];
  }
}

/// Jobs that failed at the wire or came back not-ok.
std::uint64_t failedJobs(const std::vector<LaneLog>& logs,
                         std::string* firstError) {
  std::uint64_t failed = 0;
  for (const LaneLog& log : logs) {
    if (!log.error.empty()) {
      ++failed;
      if (firstError->empty()) *firstError = log.error;
    }
    for (const JobSample& s : log.jobs) failed += s.ok ? 0 : 1;
  }
  return failed;
}

/// Per profile job: the counts that must repeat exactly. Every count is
/// taken over whole rounds, so each is a function of the seed alone.
struct JobCounts {
  double steps = 0.0;
  double records = 0.0;
  double gcs = 0.0;

  JobCounts(const Counters& delta, std::uint64_t profileJobs) {
    if (profileJobs == 0) return;
    const auto n = static_cast<double>(profileJobs);
    steps = static_cast<double>(delta.steps) / n;
    records = static_cast<double>(delta.records) / n;
    gcs = static_cast<double>(delta.gcs) / n;
  }
  bool operator==(const JobCounts&) const = default;
};

struct ReplayPass {
  std::vector<std::vector<double>> jobMicros;  // [lane][ordinal]; -1 skipped
  std::uint64_t jobs = 0;
  std::uint64_t profileJobs = 0;
  Counters delta;  // registry counters over the pass
  std::uint64_t payloadMismatches = 0;
  std::uint64_t reparseFailures = 0;
  std::uint64_t repeatedSources = 0;
  std::string error;

  JobCounts counts() const { return JobCounts(delta, profileJobs); }

  /// Summed job time over the jobs `other` replayed too.
  double microsOn(const ReplayPass& other) const {
    double sum = 0.0;
    for (std::size_t lane = 0; lane < jobMicros.size(); ++lane) {
      for (std::size_t i = 0; i < jobMicros[lane].size(); ++i) {
        if (other.jobMicros[lane][i] >= 0.0) sum += jobMicros[lane][i];
      }
    }
    return sum;
  }
};

/// Replays the jobs of every `stride`-th round of each lane in-process, one
/// thread per lane in lane order, comparing each rendering with the socket
/// response's payload. `checkSources`: also hash every source (none may
/// repeat) and reparse every optimize rewrite. `traced`: record spans
/// (after the cache warm-up).
ReplayPass replayRounds(const RequestStream& stream, Workload workload,
                        const std::vector<LaneLog>& logs,
                        std::uint64_t stride, bool traced,
                        bool checkSources) {
  Replayer replayer(kCacheBytes);
  if (workload == Workload::kProfileHot) {
    // The daemon's cache was warm; so is the replay's.
    for (std::uint64_t k = 0; k < stream.roundSize(); ++k) {
      replayer.run(stream.make(kExpectLane, k).line, 0);
    }
  }
  const std::uint64_t perRound = stream.roundSize();
  ReplayPass pass;
  pass.jobMicros.resize(logs.size());
  std::vector<std::vector<std::uint64_t>> hashes(logs.size());
  std::vector<ReplayPass> lanes(logs.size());  // per-lane tallies

  const Counters before = Counters::now();
  Tracer::setEnabled(traced);
  std::vector<std::thread> threads;
  for (std::uint32_t lane = 0; lane < logs.size(); ++lane) {
    threads.emplace_back([&, lane] {
      ReplayPass& mine = lanes[lane];
      std::vector<double>& micros = pass.jobMicros[lane];
      micros.assign(logs[lane].jobs.size(), -1.0);
      try {
        for (std::uint64_t i = 0; i < micros.size(); ++i) {
          if ((i / perRound) % stride != 0) continue;
          const Request req = stream.make(lane, i);
          const double t0 = nowMicros();
          const std::string response = replayer.run(req.line, jobId(lane, i));
          micros[i] = nowMicros() - t0;
          ++mine.jobs;
          mine.profileJobs += req.command == "profile" ? 1 : 0;
          if (jp::sourceHash(payloadOf(response)) !=
              logs[lane].jobs[i].payloadDigest) {
            ++mine.payloadMismatches;
          }
          if (!checkSources) continue;
          hashes[lane].push_back(jp::sourceHash(stream.sourceOf(lane, i)));
          if (req.command == "optimize") {
            try {
              jepo::jlang::Parser::parseProgram(
                  "<rewrite>", jp::parseResponse(response).rewrittenSource);
            } catch (const std::exception&) {
              ++mine.reparseFailures;
            }
          }
        }
      } catch (const std::exception& e) {
        mine.error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  Tracer::setEnabled(false);
  pass.delta = Counters::now().since(before);

  std::set<std::uint64_t> seen;
  for (std::size_t lane = 0; lane < logs.size(); ++lane) {
    pass.jobs += lanes[lane].jobs;
    pass.profileJobs += lanes[lane].profileJobs;
    pass.payloadMismatches += lanes[lane].payloadMismatches;
    pass.reparseFailures += lanes[lane].reparseFailures;
    if (pass.error.empty()) pass.error = lanes[lane].error;
    for (const std::uint64_t h : hashes[lane]) {
      if (!seen.insert(h).second) ++pass.repeatedSources;
    }
  }
  return pass;
}

/// Engine-only runs ("jvm.run_bare" spans) over the profile jobs of every
/// k-th round, k chosen so that at most kMaxBareRuns run. Returns how many.
std::uint64_t bareRuns(const RequestStream& stream,
                       const std::vector<LaneLog>& logs,
                       std::uint64_t profileJobs) {
  const std::uint64_t every =
      std::max<std::uint64_t>(1, (profileJobs + kMaxBareRuns - 1) /
                                     kMaxBareRuns);
  const std::uint64_t perRound = stream.roundSize();
  std::atomic<std::uint64_t> runs{0};
  std::vector<std::string> errors(logs.size());
  Replayer replayer(kCacheBytes);
  Tracer::setEnabled(true);
  std::vector<std::thread> threads;
  for (std::uint32_t lane = 0; lane < logs.size(); ++lane) {
    threads.emplace_back([&, lane] {
      try {
        const std::uint64_t rounds = logs[lane].jobs.size() / perRound;
        for (std::uint64_t r = 0; r < rounds; r += every) {
          for (std::uint64_t j = 0; j < perRound; ++j) {
            const Request req = stream.make(lane, r * perRound + j);
            if (req.command != "profile") continue;
            replayer.runBare(req.line, jobId(lane, r * perRound + j));
            runs.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception& e) {
        errors[lane] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  Tracer::setEnabled(false);
  for (const std::string& e : errors) {
    JEPO_REQUIRE(e.empty(), "engine-only run failed: " + e);
  }
  return runs.load();
}

/// Fails `out` on any gate a replay pass tripped.
void checkPass(const ReplayPass& pass, const JobCounts& window,
               const char* what, Outcome* out) {
  if (!pass.error.empty()) out->fail(std::string(what) + ": " + pass.error);
  if (pass.payloadMismatches != 0) {
    out->fail(std::to_string(pass.payloadMismatches) +
              " responses differ from the " + what);
  }
  if (pass.reparseFailures != 0) {
    out->fail(std::to_string(pass.reparseFailures) +
              " optimize rewrites do not reparse");
  }
  if (pass.repeatedSources != 0) {
    out->fail(std::to_string(pass.repeatedSources) +
              " fresh-source sources repeated");
  }
  if (!(pass.counts() == window)) {
    out->fail(std::string("vm/instrumenter/gc counts per job differ between "
                          "the socket run and the ") +
              what);
  }
}

double perJob(std::uint64_t total, std::uint64_t jobs) {
  return jobs == 0 ? 0.0
                   : static_cast<double>(total) / static_cast<double>(jobs);
}

}  // namespace

Outcome runJepodWorkload(const Options& options) {
  Outcome out;
  const RequestStream stream(options.workload, options.seed);
  std::filesystem::create_directories(options.outDir);
  jp::DaemonConfig cfg;
  cfg.socketPath = options.outDir + "/jepod-" + std::to_string(::getpid()) +
                   ".sock";
  cfg.threads = kDaemonThreads;
  cfg.cacheBytes = kCacheBytes;

  // ---- 1. set-up, repeated; the last daemon serves the window.
  std::vector<double> setups;
  std::unique_ptr<jp::Daemon> daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon) daemon->stop();
    daemon.reset();
    const double t0 = wallSeconds();
    daemon = std::make_unique<jp::Daemon>(cfg);
    daemon->start();
    const std::vector<LaneLog> warm =
        runClients(cfg.socketPath, stream,
                   kClients * static_cast<std::uint32_t>(rep + 1), HUGE_VAL,
                   options.workload == Workload::kProfileHot
                       ? kHotWarmupRounds
                       : kFreshWarmupRounds);
    setups.push_back(wallSeconds() - t0);
    std::string err;
    if (failedJobs(warm, &err) != 0) out.fail("warm-up job failed " + err);
  }

  // ---- 2. the measured window.
  const Counters before = Counters::now();
  const double cpu0 = processCpuSeconds();
  const double t0 = wallSeconds();
  std::vector<double> sliceCpu;
  const std::vector<LaneLog> logs =
      runClients(cfg.socketPath, stream, 0, t0 + options.seconds, UINT64_MAX,
                 t0, &sliceCpu);
  const double rssMb = peakRssMb();
  const Counters window = Counters::now().since(before);
  daemon->stop();
  daemon.reset();

  std::vector<double> latencies;
  std::uint64_t requestBytes = 0;
  std::uint64_t responseBytes = 0;
  std::uint64_t profileJobs = 0;
  for (std::uint32_t lane = 0; lane < logs.size(); ++lane) {
    for (std::uint64_t i = 0; i < logs[lane].jobs.size(); ++i) {
      const JobSample& s = logs[lane].jobs[i];
      latencies.push_back(s.latencyMs);
      requestBytes += s.requestBytes;
      responseBytes += s.responseBytes;
      profileJobs += stream.make(lane, i).command == "profile" ? 1 : 0;
    }
  }
  const auto jobs = static_cast<std::uint64_t>(latencies.size());
  std::string wireError;
  out.attempted = jobs;
  out.failed = failedJobs(logs, &wireError);
  if (!wireError.empty()) out.fail("client: " + wireError);
  if (jobs == 0) {
    out.fail("no job completed");
    return out;
  }
  const JobCounts windowCounts(window, profileJobs);
  checkCountRecord(options,
                   {{"jvm.steps_per_job", windowCounts.steps},
                    {"jvm.records_per_job", windowCounts.records},
                    {"jvm.gc_collections_per_job", windowCounts.gcs}},
                   &out);

  // ---- 3. gates. profile-hot: each payload against its program's expected
  // rendering, and the daemon's counters against the per-program counts.
  // fresh-source: a full replay (every request is new).
  if (options.workload == Workload::kProfileHot) {
    Replayer replayer(kCacheBytes);
    std::vector<std::uint64_t> expected(stream.roundSize());
    std::vector<Counters> perProgram(stream.roundSize());
    for (std::uint64_t k = 0; k < stream.roundSize(); ++k) {
      const Request req = stream.make(kExpectLane, k);
      replayer.run(req.line, 0);  // compile; the window served hits
      const Counters c0 = Counters::now();
      const std::string response = replayer.run(req.line, 0);
      perProgram[static_cast<std::size_t>(req.hotProgram)] =
          Counters::now().since(c0);
      expected[static_cast<std::size_t>(req.hotProgram)] =
          jp::sourceHash(payloadOf(response));
    }
    Counters predicted;
    std::uint64_t mismatches = 0;
    for (std::uint32_t lane = 0; lane < logs.size(); ++lane) {
      for (std::uint64_t i = 0; i < logs[lane].jobs.size(); ++i) {
        const auto program =
            static_cast<std::size_t>(stream.make(lane, i).hotProgram);
        if (logs[lane].jobs[i].payloadDigest != expected[program]) {
          ++mismatches;
        }
        predicted.steps += perProgram[program].steps;
        predicted.records += perProgram[program].records;
        predicted.gcs += perProgram[program].gcs;
      }
    }
    if (mismatches != 0) {
      out.fail(std::to_string(mismatches) +
               " responses differ from the in-process rendering");
    }
    if (!window.sameJvmCounts(predicted)) {
      out.fail("daemon vm/instrumenter/gc counters differ from the replay's");
    }
  }
  std::unique_ptr<ReplayPass> verified;
  if (options.workload == Workload::kFreshSource) {
    verified = std::make_unique<ReplayPass>(replayRounds(
        stream, options.workload, logs, 1, /*traced=*/false, true));
    checkPass(*verified, windowCounts, "in-process replay", &out);
  }

  if (!options.trace) {
    out.add("setup_s", median(setups), "s");
    std::vector<double> jobsPerSlice;
    std::vector<double> cpuMsPerJob;
    sliceRates(logs, t0, cpu0, sliceCpu, &jobsPerSlice, &cpuMsPerJob);
    out.add("jobs_per_s", median(jobsPerSlice), "1/s");
    out.add("job_p50_ms", quantile(latencies, 0.50), "ms");
    out.add("job_p95_ms", quantile(latencies, 0.95), "ms");
    out.add("cpu_ms_per_job", median(cpuMsPerJob), "ms");
    out.add("peak_rss_mb", rssMb, "MiB");
    return out;
  }

  // ---- traced run: every kTraceStride-th round replayed untraced (unless
  // the full verification replay already timed it) and traced, then the
  // engine alone over a sample of profile jobs.
  const ReplayPass untraced =
      verified ? std::move(*verified)
               : replayRounds(stream, options.workload, logs, kTraceStride,
                              /*traced=*/false, false);
  if (options.workload == Workload::kProfileHot) {
    checkPass(untraced, windowCounts, "in-process replay", &out);
  }
  Tracer::clear();
  const ReplayPass traced = replayRounds(stream, options.workload, logs,
                                         kTraceStride, /*traced=*/true, false);
  checkPass(traced, windowCounts, "traced replay", &out);
  const std::uint64_t bare =
      traced.profileJobs == 0 ? 0
                              : bareRuns(stream, logs, traced.profileJobs);
  const std::vector<SpanRecord> spans = Tracer::collect();
  const std::string tracePath =
      options.outDir + "/trace-" + std::string(workloadName(options.workload)) +
      "-seed" + std::to_string(options.seed) + ".json";
  if (!Tracer::writeChromeTrace(spans, tracePath)) {
    out.fail("cannot write " + tracePath);
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(), tracePath.c_str());
  std::map<std::string, LayerTotal> layers = Tracer::reduce(spans);

  // Per-layer times are self time per replayed job (all commands), so they
  // add up to jepod.replay_job_us.
  const auto replayed = static_cast<double>(traced.jobs);
  const auto us = [&](const char* span) {
    return layers[span].selfUs / replayed;
  };
  std::vector<double> wire;
  for (std::uint32_t lane = 0; lane < logs.size(); ++lane) {
    for (std::uint64_t i = 0; i < logs[lane].jobs.size(); ++i) {
      if (untraced.jobMicros[lane][i] < 0.0) continue;
      wire.push_back(logs[lane].jobs[i].latencyMs * 1e3 -
                     untraced.jobMicros[lane][i]);
    }
  }
  const double profileShare =
      static_cast<double>(traced.profileJobs) / replayed;
  const double barePerProfileJob =
      bare == 0 ? 0.0
                : layers["jvm.run_bare"].totalUs / static_cast<double>(bare);
  const double profilePerProfileJob =
      traced.profileJobs == 0 ? 0.0
                              : layers["jepo.profile"].selfUs /
                                    static_cast<double>(traced.profileJobs);

  out.add("jepod.jobs_replayed", replayed, "count");
  out.add("jepod.replay_job_us", layers["jepod.job"].totalUs / replayed,
          "us");
  out.add("jepod.request_parse_us", us("jepod.request_parse"), "us");
  out.add("jepod.cache_lookup_us", us("jepod.cache_lookup"), "us");
  out.add("jepod.cache_insert_us", us("jepod.cache_insert"), "us");
  out.add("jepod.cache_hit_ratio",
          window.hits + window.misses == 0
              ? 0.0
              : static_cast<double>(window.hits) /
                    static_cast<double>(window.hits + window.misses),
          "ratio");
  out.add("jepod.cache_lookups",
          static_cast<double>(window.hits + window.misses), "count");
  out.add("jepod.cache_evictions", static_cast<double>(window.evictions),
          "count");
  out.add("jepod.render_us", us("jepod.render"), "us");
  out.add("jepod.request_bytes", perJob(requestBytes, jobs), "bytes");
  out.add("jepod.response_bytes", perJob(responseBytes, jobs), "bytes");
  out.add("jepod.wire_us", median(wire), "us");
  out.add("jepod.rejected", static_cast<double>(window.rejected), "count");
  out.add("jlang.parse_us", us("jlang.parse"), "us");
  out.add("jlang.resolve_us", us("jlang.resolve"), "us");
  out.add("jlang.print_us", us("jlang.print"), "us");
  out.add("jepo.profile_us", us("jepo.profile"), "us");
  out.add("jepo.suggest_us", us("jepo.suggest"), "us");
  out.add("jepo.optimize_us", us("jepo.optimize"), "us");
  out.add("jvm.run_bare_us", barePerProfileJob * profileShare, "us");
  out.add("jvm.instrument_share",
          profilePerProfileJob > 0.0
              ? 1.0 - barePerProfileJob / profilePerProfileJob
              : 0.0,
          "ratio");
  out.add("jvm.steps_per_job", windowCounts.steps, "count");
  out.add("jvm.records_per_job", windowCounts.records, "count");
  out.add("jvm.gc_collections_per_job", windowCounts.gcs, "count");
  const double untracedMicros = untraced.microsOn(traced);
  out.add("trace.overhead_share",
          untracedMicros > 0.0
              ? traced.microsOn(traced) / untracedMicros - 1.0
              : 0.0,
          "ratio");
  return out;
}

}  // namespace perfbench
