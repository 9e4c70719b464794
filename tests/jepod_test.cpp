// The jepod daemon end to end over its real Unix socket: protocol edge
// cases (malformed JSON -> typed error, never a crash), admission control
// (deterministic queue-full rejects), compile-once caching (hits are
// bit-identical to cold compiles), multi-tenant isolation (a daemon job
// equals the same job run directly through core::Profiler), and graceful
// drain (requestDrain / SIGTERM complete in-flight jobs).
//
// Runs under `ctest -L jepod` — CI's jepod-soak job repeats the label
// under ASan.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "jepo/engine.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jepod/client.hpp"
#include "jepod/daemon.hpp"
#include "jepod/program_cache.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "support/rng.hpp"

namespace jepo {
namespace {

using jepod::Client;
using jepod::Daemon;
using jepod::DaemonConfig;
using jepod::ErrorCode;
using jepod::JobRequest;
using jepod::Response;

// ---------------------------------------------------------------------------
// Workloads

const char* const kQuickSource = R"(
class Quick {
  static int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + i % 7; }
    return acc;
  }
  static void main(String[] args) {
    System.out.println("acc=" + work(300));
  }
}
)";

// Allocates enough to force collections under a small --heap-limit.
const char* const kChurnSource = R"(
class Node {
  int a;
  int b;
  Node(int x) { a = x; b = x * 2 + 1; }
  int sum() { return a + b; }
}
class Churn {
  static void main(String[] args) {
    int chk = 0;
    int i = 0;
    while (i < 400) {
      Node n = new Node(i);
      int[] buf = new int[8];
      buf[i % 8] = n.sum();
      chk = chk + buf[i % 8];
      i = i + 1;
    }
    System.out.println(chk);
  }
}
)";

// ~3M interpreter steps: long enough that admission-vs-completion races
// in the queue tests have five orders of magnitude of headroom, short
// enough to keep the suite quick.
const char* const kSlowSource = R"(
class Slow {
  static void main(String[] args) {
    long acc = 0L;
    for (int i = 0; i < 600000; i++) { acc = acc + i; }
    System.out.println(acc);
  }
}
)";

JobRequest makeRequest(std::string id, const char* source,
                       std::string tenant = "t0") {
  JobRequest req;
  req.id = std::move(id);
  req.tenant = std::move(tenant);
  req.command = "profile";
  req.source = source;
  return req;
}

// ---------------------------------------------------------------------------
// Harness

std::uint64_t counterValue(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

bool eventually(const std::function<bool()>& cond, int timeoutMs = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

class JepodTest : public ::testing::Test {
 protected:
  void startDaemon(DaemonConfig cfg = {}) {
    char tmpl[] = "/tmp/jepodtXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    cfg.socketPath = dir_ + "/s";
    daemon_ = std::make_unique<Daemon>(cfg);
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_) daemon_->stop();
    daemon_.reset();
    if (!dir_.empty()) {
      ::unlink((dir_ + "/s").c_str());
      ::rmdir(dir_.c_str());
    }
  }

  Client connect() {
    Client c;
    c.connect(daemon_->config().socketPath);
    return c;
  }

  std::string dir_;
  std::unique_ptr<Daemon> daemon_;
};

// ---------------------------------------------------------------------------
// Protocol edge cases

TEST_F(JepodTest, MalformedJsonGetsTypedErrorAndConnectionSurvives) {
  startDaemon();
  Client c = connect();

  const Response bad = jepod::parseResponse(c.roundTrip("{this is not json"));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.errorCode, "bad-json");
  EXPECT_EQ(bad.id, "");

  // The daemon neither crashed nor closed the connection.
  const Response good = c.submit(makeRequest("after-bad", kQuickSource));
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.profile.stdoutText, "acc=897\n");
}

TEST_F(JepodTest, BadRequestsAreTypedAndEchoTheId) {
  startDaemon();
  Client c = connect();

  // Valid JSON, invalid request: the id still comes back for correlation.
  const Response noCmd =
      jepod::parseResponse(c.roundTrip(R"({"v":1,"id":"x7"})"));
  EXPECT_FALSE(noCmd.ok);
  EXPECT_EQ(noCmd.errorCode, "bad-request");
  EXPECT_EQ(noCmd.id, "x7");

  const Response badVersion = jepod::parseResponse(c.roundTrip(
      R"({"v":99,"id":"v9","command":"profile","source":"class A {}"})"));
  EXPECT_FALSE(badVersion.ok);
  EXPECT_EQ(badVersion.errorCode, "bad-request");

  const Response unknown = jepod::parseResponse(c.roundTrip(
      R"({"v":1,"id":"u1","command":"launch","source":"class A {}"})"));
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.errorCode, "unknown-command");

  JobRequest unparsable = makeRequest("p1", "class { nope");
  const Response parseErr = c.submit(unparsable);
  EXPECT_FALSE(parseErr.ok);
  EXPECT_EQ(parseErr.errorCode, "parse-error");

  JobRequest aborts = makeRequest("r1", kQuickSource);
  aborts.maxSteps = 10;  // step-limit abort inside the VM
  const Response runtime = c.submit(aborts);
  EXPECT_FALSE(runtime.ok);
  EXPECT_EQ(runtime.errorCode, "runtime-error");

  JobRequest badPlan = makeRequest("f1", kQuickSource);
  badPlan.faultPlan = "no-such-preset";
  const Response planErr = c.submit(badPlan);
  EXPECT_FALSE(planErr.ok);
  EXPECT_EQ(planErr.errorCode, "bad-request");
}

TEST_F(JepodTest, DeeplyNestedSourceIsATypedParseError) {
  // 20 000 nested parentheses (~40 KB): untrusted input must come back as a
  // typed error on every command, and the daemon must keep serving.
  startDaemon();
  Client c = connect();
  const std::string deep = "class Main { static void main(String[] a) { "
                           "int x = " + std::string(20000, '(') + "1" +
                           std::string(20000, ')') + "; } }";
  for (const char* command : {"suggest", "optimize", "profile"}) {
    JobRequest req = makeRequest(std::string("deep-") + command, "");
    req.command = command;
    req.source = deep;
    const Response r = c.submit(req);
    EXPECT_FALSE(r.ok) << command;
    EXPECT_EQ(r.errorCode, "parse-error") << command;
  }
  const Response good = c.submit(makeRequest("after-deep", kQuickSource));
  EXPECT_TRUE(good.ok);
}

TEST_F(JepodTest, UncaughtJavaExceptionIsARuntimeError) {
  // A program whose exception escapes main is the tenant's bug: a typed
  // error response, never a lost job.
  startDaemon();
  Client c = connect();
  const Response r = c.submit(makeRequest(
      "throws", "class Main { static void main(String[] a) { "
                "throw new IllegalStateException(\"boom\"); } }"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.errorCode, "runtime-error");
  EXPECT_NE(r.errorMessage.find("uncaught IllegalStateException: boom"),
            std::string::npos)
      << r.errorMessage;
  EXPECT_TRUE(c.submit(makeRequest("after-throw", kQuickSource)).ok);
}

TEST_F(JepodTest, OversizedLineIsRejectedNotBuffered) {
  DaemonConfig cfg;
  cfg.maxLineBytes = 1024;
  startDaemon(cfg);
  Client c = connect();
  const Response r = jepod::parseResponse(
      c.roundTrip(std::string(4096, 'x')));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.errorCode, "bad-request");
}

// ---------------------------------------------------------------------------
// Caching

TEST_F(JepodTest, CacheHitIsBitIdenticalToColdCompile) {
  startDaemon();
  Client c = connect();
  const std::uint64_t hits0 = counterValue("jepod.cache.hits");
  const std::uint64_t miss0 = counterValue("jepod.cache.misses");

  const Response cold = c.submit(makeRequest("c1", kChurnSource));
  const Response warm = c.submit(makeRequest("c1", kChurnSource));
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  EXPECT_FALSE(cold.cached);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(counterValue("jepod.cache.misses"), miss0 + 1);
  EXPECT_EQ(counterValue("jepod.cache.hits"), hits0 + 1);

  // Same id, same payload: the raw lines must differ ONLY in the cached
  // flag — the result object is byte-identical.
  const auto payloadOf = [](const std::string& raw) -> std::string {
    const std::size_t at = raw.find("\"result\":");
    EXPECT_NE(at, std::string::npos);
    return at == std::string::npos ? std::string() : raw.substr(at);
  };
  EXPECT_EQ(payloadOf(cold.raw), payloadOf(warm.raw));
}

std::shared_ptr<jepod::CachedProgram> cacheEntry(std::uint64_t hash,
                                                 std::size_t bytes,
                                                 std::string source = "") {
  auto e = std::make_shared<jepod::CachedProgram>();
  if (source.empty()) source = "src-" + std::to_string(hash);
  // An unparsed unit holding the source bytes the cache compares.
  jlang::CompilationUnit unit;
  unit.source = e->program.arena().copy(source);
  e->program.units.push_back(unit);
  e->hash = hash;
  e->bytes = bytes;
  return e;
}

std::shared_ptr<const jepod::CachedProgram> cacheGet(
    jepod::ProgramCache& cache, std::uint64_t hash) {
  return cache.get(hash, "src-" + std::to_string(hash));
}

TEST(ProgramCache, EvictsLeastRecentlyUsedPastByteBudget) {
  jepod::ProgramCache cache(/*byteBudget=*/100);
  const std::uint64_t evict0 = counterValue("jepod.cache.evictions");
  cache.put(cacheEntry(1, 60));
  cache.put(cacheEntry(2, 30));
  EXPECT_EQ(cache.entryCount(), 2u);
  // Refresh 1, insert 3: 2 is now the LRU and must go.
  EXPECT_NE(cacheGet(cache, 1), nullptr);
  cache.put(cacheEntry(3, 40));
  EXPECT_EQ(counterValue("jepod.cache.evictions"), evict0 + 1);
  EXPECT_EQ(cacheGet(cache, 2), nullptr);
  EXPECT_NE(cacheGet(cache, 1), nullptr);
  EXPECT_NE(cacheGet(cache, 3), nullptr);
  EXPECT_LE(cache.byteCount(), 100u);

  // An entry larger than the whole budget is admitted (the job must run)
  // but evicts everything else.
  cache.put(cacheEntry(4, 500));
  EXPECT_NE(cacheGet(cache, 4), nullptr);
  EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ProgramCache, FirstInsertWinsCompileRaces) {
  jepod::ProgramCache cache(0);
  auto a = cacheEntry(7, 10, "same source");
  auto b = cacheEntry(7, 10, "same source");
  EXPECT_EQ(cache.put(a), a);
  EXPECT_EQ(cache.put(b), a);  // the racing duplicate is dropped
  EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ProgramCache, HashCollisionIsNeitherServedNorAllowedToDisplace) {
  // FNV-1a collisions are adversarially constructible; model one with two
  // different sources pinned to the same 64-bit key. The victim's entry
  // must survive untouched and the collider must never be served it.
  jepod::ProgramCache cache(0);
  const std::uint64_t miss0 = counterValue("jepod.cache.misses");
  auto victim = cacheEntry(7, 10, "victim source");
  auto attacker = cacheEntry(7, 10, "attacker source");
  EXPECT_EQ(cache.put(victim), victim);
  // A colliding lookup is a miss, not the victim's program.
  EXPECT_EQ(cache.get(7, "attacker source"), nullptr);
  EXPECT_EQ(counterValue("jepod.cache.misses"), miss0 + 1);
  // A colliding insert does not evict or replace the incumbent; the
  // newcomer just stays uncached.
  EXPECT_EQ(cache.put(attacker), attacker);
  EXPECT_EQ(cache.entryCount(), 1u);
  EXPECT_EQ(cache.get(7, "victim source"), victim);
  EXPECT_EQ(cache.get(7, "attacker source"), nullptr);
}

TEST(ProgramCache, BytecodeCompilesOnceOnFirstUse) {
  auto entry = std::make_shared<jepod::CachedProgram>();
  entry->program = jlang::Parser::parseProgram("<t>", kQuickSource);
  EXPECT_EQ(entry->bytecodeCompiled, nullptr);  // nothing until asked

  // Concurrent first uses share one compile.
  std::vector<const jbc::CompiledProgram*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = &entry->bytecode(); });
  }
  for (auto& t : threads) t.join();
  for (const auto* p : seen) EXPECT_EQ(p, entry->bytecodeCompiled.get());
  EXPECT_NE(entry->bytecode().findClass("Quick"), nullptr);
}

TEST(ProgramCache, SourceHashIsStable) {
  // FNV-1a 64 of "abc" — pinned so cache keys are comparable across
  // processes, logs and future sessions.
  EXPECT_EQ(jepod::sourceHash("abc"), 0xe71fa2190541574bULL);
  EXPECT_NE(jepod::sourceHash("abc"), jepod::sourceHash("abd"));
}

// ---------------------------------------------------------------------------
// Bit-identity with the one-shot pipeline

TEST_F(JepodTest, JobMatchesDirectProfilerBitForBit) {
  startDaemon();
  Client c = connect();

  JobRequest req = makeRequest("bi1", kChurnSource, "edge-a");
  req.seed = 42;
  req.heapLimit = 16;  // forces mark-compact collections mid-job
  req.faultPlan = "transient:seed=3,transient-prob=0.05,transient-burst=1";
  const Response resp = c.submit(req);
  ASSERT_TRUE(resp.ok) << resp.errorMessage;

  // The same job, run in-process the way jepo_cli profile does.
  const jlang::Program program =
      jlang::Parser::parseProgram("<jepod>", kChurnSource);
  core::Profiler profiler;
  profiler.setHeapLimit(16);
  profiler.setSeed(42);
  profiler.setFaultSpec(
      fault::parseFaultPlan("transient:seed=3,transient-prob=0.05,transient-burst=1"));
  profiler.profile(program, "", jepod::kDefaultMaxSteps);

  EXPECT_EQ(resp.profile.stdoutText, profiler.programOutput());
  const auto& direct = profiler.records();
  ASSERT_EQ(resp.profile.records.size(), direct.size());
  bool sawRetry = false;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const auto& a = resp.profile.records[i];
    const auto& b = direct[i];
    EXPECT_EQ(a.method, b.method);
    // Exact double equality: the wire format is shortest-round-trip.
    EXPECT_EQ(a.seconds, b.seconds) << a.method;
    EXPECT_EQ(a.packageJoules, b.packageJoules) << a.method;
    EXPECT_EQ(a.coreJoules, b.coreJoules) << a.method;
    EXPECT_EQ(a.dramJoules, b.dramJoules) << a.method;
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.quality, b.quality) << a.method;
    EXPECT_EQ(a.readRetries, b.readRetries) << a.method;
    sawRetry = sawRetry || b.readRetries > 0;
  }
  // The fault plan actually fired (otherwise this test proves nothing
  // about per-job fault streams).
  EXPECT_TRUE(sawRetry);

  // And a different seed derives a different fault stream.
  JobRequest other = req;
  other.id = "bi2";
  other.seed = 43;
  const Response resp2 = c.submit(other);
  ASSERT_TRUE(resp2.ok);
  EXPECT_TRUE(resp2.cached);
  int retriesA = 0;
  int retriesB = 0;
  for (const auto& r : resp.profile.records) retriesA += r.readRetries;
  for (const auto& r : resp2.profile.records) retriesB += r.readRetries;
  EXPECT_NE(retriesA, retriesB);
}

TEST_F(JepodTest, SuggestAndOptimizeMatchInProcessResults) {
  startDaemon();
  Client c = connect();

  JobRequest suggest = makeRequest("s1", kQuickSource);
  suggest.command = "suggest";
  const Response sResp = c.submit(suggest);
  ASSERT_TRUE(sResp.ok);
  const jlang::Program program =
      jlang::Parser::parseProgram("<jepod>", kQuickSource);
  core::SuggestionEngine engine;
  EXPECT_EQ(sResp.view,
            core::renderOptimizerView(engine.analyzeProgram(program)));

  JobRequest optimize = makeRequest("o1", kQuickSource);
  optimize.command = "optimize";
  const Response oResp = c.submit(optimize);
  ASSERT_TRUE(oResp.ok);
  EXPECT_TRUE(oResp.cached);  // suggest compiled it already
  EXPECT_NE(oResp.rewrittenSource.find("class Quick"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiling tiers over the wire

TEST_F(JepodTest, TieredJobMatchesLocalRenderByteForByte) {
  startDaemon();
  Client c = connect();
  const std::uint64_t sampled0 = counterValue("jepod.tier.sampled");
  const std::uint64_t tenant0 =
      counterValue("jepod.tenant.edge-a.tier.sampled");

  JobRequest req = makeRequest("t1", kChurnSource, "edge-a");
  req.seed = 42;
  req.tier = "sampled:4";
  const Response resp = c.submit(req);
  ASSERT_TRUE(resp.ok) << resp.errorMessage;
  EXPECT_EQ(counterValue("jepod.tier.sampled"), sampled0 + 1);
  EXPECT_EQ(counterValue("jepod.tenant.edge-a.tier.sampled"), tenant0 + 1);

  // The acceptance contract: the daemon's payload for a tiered job is
  // byte-identical to rendering the same job run locally (jepo_cli's
  // path) through the same protocol writer.
  const jlang::Program program =
      jlang::Parser::parseProgram("<jepod>", kChurnSource);
  core::Profiler profiler;
  profiler.setSeed(42);
  profiler.setTier(jvm::parseTierSpec("sampled:4"));
  profiler.profile(program, "", jepod::kDefaultMaxSteps);
  const std::string local = jepod::renderProfileResponse(
      req, /*cached=*/false,
      {profiler.programOutput(), profiler.records()});
  EXPECT_EQ(resp.raw, local);

  // Tier provenance survives the response parse.
  bool sawSampled = false;
  for (const auto& r : resp.profile.records) {
    if (r.tier == jvm::InstrTier::kSampled) sawSampled = true;
    EXPECT_GT(r.samplingRate, 0.0);
    EXPECT_LE(r.samplingRate, 1.0);
  }
  EXPECT_TRUE(sawSampled);

  core::Profiler fullProfiler;
  fullProfiler.setSeed(42);
  fullProfiler.profile(program, "", jepod::kDefaultMaxSteps);
  EXPECT_LT(resp.profile.records.size(), fullProfiler.records().size())
      << "sampling must drop records";
}

TEST_F(JepodTest, FullTierRequestKeepsPreTierWireBytes) {
  startDaemon();
  Client c = connect();
  const std::uint64_t full0 = counterValue("jepod.tier.full");

  // "full", "" and an absent field are the same wire request — and the
  // rendered request line for both omits the tier key entirely, so old
  // clients and new ones produce identical bytes.
  JobRequest plain = makeRequest("w1", kQuickSource);
  JobRequest full = makeRequest("w1", kQuickSource);
  full.tier = "full";
  EXPECT_EQ(jepod::renderRequest(plain), jepod::renderRequest(full));
  EXPECT_EQ(jepod::renderRequest(plain).find("tier"), std::string::npos);

  const Response a = c.submit(plain);
  const Response b = c.submit(full);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(counterValue("jepod.tier.full"), full0 + 2);
  // Identical payloads (the second is a cache hit, so compare from the
  // result object on).
  const auto payloadOf = [](const std::string& raw) {
    return raw.substr(raw.find("\"result\":"));
  };
  EXPECT_EQ(payloadOf(a.raw), payloadOf(b.raw));
  // Full-tier records carry no tier/samplingRate keys on the wire.
  EXPECT_EQ(a.raw.find("\"tier\""), std::string::npos);
  EXPECT_EQ(a.raw.find("samplingRate"), std::string::npos);
}

TEST_F(JepodTest, MalformedTierIsATypedBadRequest) {
  startDaemon();
  Client c = connect();

  // "hot:8" named a tier that no longer exists; it gets the same reject.
  for (const char* tier : {"sampled:0", "hot:8"}) {
    JobRequest req = makeRequest(std::string("bt-") + tier, kQuickSource);
    req.tier = tier;
    const Response resp = c.submit(req);
    EXPECT_FALSE(resp.ok) << tier;
    EXPECT_EQ(resp.errorCode, "bad-request") << tier;
    EXPECT_NE(resp.errorMessage.find("tier:"), std::string::npos)
        << resp.errorMessage;
    EXPECT_NE(resp.errorMessage.find("bad tier spec"), std::string::npos)
        << resp.errorMessage;
  }

  // The tier is validated at the parse boundary, before any compile or
  // admission work — a raw line with a bogus tier gets the same answer.
  const Response raw = jepod::parseResponse(c.roundTrip(
      R"({"v":1,"id":"bt2","command":"profile","tier":"warm",)"
      R"("source":"class A { static void main(String[] a) {} }"})"));
  EXPECT_FALSE(raw.ok);
  EXPECT_EQ(raw.errorCode, "bad-request");
}

TEST_F(JepodTest, DeadlineAboveInt32MillisecondsIsATypedBadRequest) {
  // Admission time + such a deadline would overflow the steady clock's
  // int64 nanoseconds and land in the past, cancelling the job at once.
  startDaemon();
  Client c = connect();
  for (const std::uint64_t ms :
       {std::uint64_t{10'000'000'000'000}, std::uint64_t{UINT64_MAX}}) {
    JobRequest req = makeRequest("dl-" + std::to_string(ms), kQuickSource);
    req.deadlineMs = ms;
    const Response resp = c.submit(req);
    EXPECT_FALSE(resp.ok) << ms;
    EXPECT_EQ(resp.errorCode, "bad-request") << ms;
    EXPECT_EQ(resp.id, req.id);
    EXPECT_NE(resp.errorMessage.find("deadlineMs"), std::string::npos)
        << resp.errorMessage;
  }

  // The connection still serves, and the largest accepted deadline
  // (INT32_MAX ms) is admitted and runs to completion.
  JobRequest longest = makeRequest("dl-max", kQuickSource);
  longest.deadlineMs = 2147483647;
  const Response done = c.submit(longest);
  EXPECT_TRUE(done.ok) << done.errorMessage;
  EXPECT_EQ(done.profile.stdoutText, "acc=897\n");
}

TEST_F(JepodTest, DeadlineLimitIsInt32MaxMillisecondsAtParse) {
  EXPECT_EQ(jepod::kMaxDeadlineMs,
            static_cast<std::uint64_t>(INT32_MAX));
  JobRequest req = makeRequest("dl-edge", kQuickSource);
  req.deadlineMs = jepod::kMaxDeadlineMs;
  EXPECT_EQ(jepod::parseRequest(jepod::renderRequest(req)).deadlineMs,
            jepod::kMaxDeadlineMs);

  req.deadlineMs = jepod::kMaxDeadlineMs + 1;
  try {
    jepod::parseRequest(jepod::renderRequest(req));
    FAIL() << "a deadline one past the limit parsed";
  } catch (const jepod::ProtocolError& e) {
    EXPECT_EQ(e.code(), jepod::ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("deadlineMs"), std::string::npos)
        << e.what();
  }
}

TEST_F(JepodTest, TierRoundTripsThroughRequestRenderAndParse) {
  JobRequest req = makeRequest("rt1", kQuickSource, "edge-a");
  req.tier = "sampled:32";
  const std::string line = jepod::renderRequest(req);
  const JobRequest back = jepod::parseRequest(line);
  EXPECT_EQ(back.tier, "sampled:32");
  EXPECT_EQ(back.id, "rt1");

  // Sampled records round-trip tier + samplingRate through the response.
  jvm::MethodRecord rec;
  rec.method = "A.m";
  rec.seconds = 0.25;
  rec.packageJoules = 1.5;
  rec.tier = jvm::InstrTier::kSampled;
  rec.samplingRate = 0.25;
  const std::string respLine =
      jepod::renderProfileResponse(req, false, {"out\n", {rec}});
  const Response parsed = jepod::parseResponse(respLine);
  ASSERT_EQ(parsed.profile.records.size(), 1u);
  EXPECT_EQ(parsed.profile.records[0].tier, jvm::InstrTier::kSampled);
  EXPECT_EQ(parsed.profile.records[0].samplingRate, 0.25);
}

// The profile response's wire bytes, pinned literally: the daemon and every
// in-process comparison render through the same writer, so only a fixed
// expectation catches a byte change in it.
TEST(ProfileResponseWire, RecordsRenderToPinnedBytes) {
  JobRequest req = makeRequest("pin-1", kQuickSource);
  const auto record = [](std::string method, double seconds, double pkg,
                         double core, double dram) {
    jvm::MethodRecord r;
    r.method = std::move(method);
    r.seconds = seconds;
    r.packageJoules = pkg;
    r.coreJoules = core;
    r.dramJoules = dram;
    return r;
  };
  std::vector<jvm::MethodRecord> rs;
  rs.push_back(record("Main.work", 0.25, 1.5, 0.75, 0.125));
  rs.push_back(record("Main.main", 1e-06, 3.0517578125e-05, 0.0, 0.0));
  rs.back().truncated = true;
  rs.push_back(record("Io.read", 0.5, 2.0, 1.0, 0.5));
  rs.back().quality = rapl::MeasurementQuality::kRetried;
  rs.back().readRetries = 2;
  rs.push_back(record("Io.read", 0.5, 2.0, 1.0, 0.0));
  rs.back().quality = rapl::MeasurementQuality::kDegraded;
  rs.back().readRetries = 1;
  rs.push_back(record("Io.read", 0.5, 0.0, 0.0, 0.0));
  rs.back().quality = rapl::MeasurementQuality::kInvalid;
  rs.back().readRetries = 4;
  rs.push_back(record("Hot.step", 0.1, 1.0 / 3.0, 0.2, 1e-300));
  rs.back().tier = jvm::InstrTier::kSampled;
  rs.back().samplingRate = 0.125;
  rs.push_back(record("Bad.nan", std::nan(""), INFINITY, -INFINITY, 0.0));
  rs.push_back(record("Odd\"Na\\me\x01\n", 2.0, 123456789.0, 1e21, 0.0));
  for (const char* name : {"A.s", "A.s", "B.t", "A.s", "B.t"}) {
    rs.push_back(record(name, 0.0, 0.0, 0.0, 0.0));
  }

  EXPECT_EQ(
      jepod::renderProfileResponse(req, /*cached=*/true,
                                   {"hi \"q\" \\ \t\x1f\n", rs}),
      R"({"v":1,"id":"pin-1","ok":true,"cached":true,"result":{)"
      R"("stdout":"hi \"q\" \\ \t\u001f\n","records":[)"
      R"({"method":"Main.work","seconds":0.25,"packageJoules":1.5,)"
      R"("coreJoules":0.75,"dramJoules":0.125,"truncated":false,)"
      R"("quality":"ok","readRetries":0},)"
      R"({"method":"Main.main","seconds":1e-06,)"
      R"("packageJoules":3.0517578125e-05,"coreJoules":0,"dramJoules":0,)"
      R"("truncated":true,"quality":"ok","readRetries":0},)"
      R"({"method":"Io.read","seconds":0.5,"packageJoules":2,)"
      R"("coreJoules":1,"dramJoules":0.5,"truncated":false,)"
      R"("quality":"retried","readRetries":2},)"
      R"({"method":"Io.read","seconds":0.5,"packageJoules":2,)"
      R"("coreJoules":1,"dramJoules":0,"truncated":false,)"
      R"("quality":"degraded","readRetries":1},)"
      R"({"method":"Io.read","seconds":0.5,"packageJoules":0,)"
      R"("coreJoules":0,"dramJoules":0,"truncated":false,)"
      R"("quality":"invalid","readRetries":4},)"
      R"({"method":"Hot.step","seconds":0.1,)"
      R"("packageJoules":0.3333333333333333,"coreJoules":0.2,)"
      R"("dramJoules":1e-300,"truncated":false,"quality":"ok",)"
      R"("readRetries":0,"tier":"sampled","samplingRate":0.125},)"
      R"({"method":"Bad.nan","seconds":null,"packageJoules":null,)"
      R"("coreJoules":null,"dramJoules":0,"truncated":false,)"
      R"("quality":"ok","readRetries":0},)"
      R"({"method":"Odd\"Na\\me\u0001\n","seconds":2,)"
      R"("packageJoules":123456789,"coreJoules":1e+21,"dramJoules":0,)"
      R"("truncated":false,"quality":"ok","readRetries":0},)"
      R"({"method":"A.s","seconds":0,"packageJoules":0,"coreJoules":0,)"
      R"("dramJoules":0,"truncated":false,"quality":"ok","readRetries":0},)"
      R"({"method":"A.s","seconds":0,"packageJoules":0,"coreJoules":0,)"
      R"("dramJoules":0,"truncated":false,"quality":"ok","readRetries":0},)"
      R"({"method":"B.t","seconds":0,"packageJoules":0,"coreJoules":0,)"
      R"("dramJoules":0,"truncated":false,"quality":"ok","readRetries":0},)"
      R"({"method":"A.s","seconds":0,"packageJoules":0,"coreJoules":0,)"
      R"("dramJoules":0,"truncated":false,"quality":"ok","readRetries":0},)"
      R"({"method":"B.t","seconds":0,"packageJoules":0,"coreJoules":0,)"
      R"("dramJoules":0,"truncated":false,"quality":"ok","readRetries":0})"
      R"(]}})");

  // Zero records: an empty array, and the ok/cached prefix unchanged.
  EXPECT_EQ(jepod::renderProfileResponse(req, /*cached=*/false, {"", {}}),
            R"({"v":1,"id":"pin-1","ok":true,"cached":false,"result":{)"
            R"("stdout":"","records":[]}})");
}

TEST(ProfileResponseWire, GeneratedRecordsRoundTripThroughTheParser) {
  // Random names (escapable bytes included), bit-pattern doubles, every
  // quality and both tiers: the parsed response returns each field exactly.
  Rng rng(0x9e11);
  const JobRequest req = makeRequest("gen", kQuickSource);
  const auto finite = [&rng] {
    double v;
    do {
      v = std::bit_cast<double>(rng());
    } while (!std::isfinite(v));
    return v;
  };
  for (int round = 0; round < 50; ++round) {
    std::vector<jvm::MethodRecord> rs(rng.nextBelow(40));
    for (auto& r : rs) {
      for (std::uint64_t i = rng.nextBelow(24); i > 0; --i) {
        r.method += static_cast<char>(1 + rng.nextBelow(0x7f));
      }
      r.seconds = finite();
      r.packageJoules = finite();
      r.coreJoules = rng.nextDouble();
      r.dramJoules = static_cast<double>(rng.nextBelow(1000)) / 64.0;
      r.truncated = rng.nextBelow(2) == 0;
      r.quality = rapl::qualityFromIndex(static_cast<int>(rng.nextBelow(4)));
      r.readRetries = static_cast<int>(rng.nextBelow(9));
      if (rng.nextBelow(2) == 0) {
        r.tier = jvm::InstrTier::kSampled;
        r.samplingRate = rng.nextDouble();
      }
    }
    const Response back = jepod::parseResponse(
        jepod::renderProfileResponse(req, false, {"out", rs}));
    ASSERT_EQ(back.profile.records.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const jvm::MethodRecord& a = rs[i];
      const jvm::MethodRecord& b = back.profile.records[i];
      ASSERT_EQ(b.method, a.method) << "round " << round;
      EXPECT_EQ(b.seconds, a.seconds);
      EXPECT_EQ(b.packageJoules, a.packageJoules);
      EXPECT_EQ(b.coreJoules, a.coreJoules);
      EXPECT_EQ(b.dramJoules, a.dramJoules);
      EXPECT_EQ(b.truncated, a.truncated);
      EXPECT_EQ(b.quality, a.quality);
      EXPECT_EQ(b.readRetries, a.readRetries);
      EXPECT_EQ(b.tier, a.tier);
      EXPECT_EQ(b.samplingRate, a.samplingRate);
    }
  }
}

TEST_F(JepodTest, U64FieldsAtAndAbove2To63RoundTripThroughTheWire) {
  for (const std::uint64_t v : {std::uint64_t{1} << 63, UINT64_MAX}) {
    JobRequest req = makeRequest("big", kQuickSource);
    req.seed = v;
    req.heapLimit = v;
    req.maxSteps = v;
    const std::string line = jepod::renderRequest(req);
    EXPECT_NE(line.find("\"seed\":" + std::to_string(v) + ","),
              std::string::npos)
        << line;
    const JobRequest back = jepod::parseRequest(line);
    EXPECT_EQ(back.seed, v);
    EXPECT_EQ(back.heapLimit, v);
    EXPECT_EQ(back.maxSteps, v);
  }
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(JepodTest, QueueFullRejectIsDeterministicAndTyped) {
  DaemonConfig cfg;
  cfg.threads = 1;
  cfg.maxQueue = 1;
  cfg.retryAfterMs = 25;
  startDaemon(cfg);
  Client c = connect();

  // Pipeline both requests in one write: the reader admits the slow job,
  // then — in the same thread, microseconds later, while the job still
  // has ~seconds to run — evaluates the second against pending == 1.
  // The reject is therefore a pure function of config, not of timing.
  const std::uint64_t rejected0 =
      counterValue("jepod.jobs.rejected.queuefull");
  JobRequest slow = makeRequest("slow-1", kSlowSource);
  JobRequest second = makeRequest("fast-2", kQuickSource);
  const std::string reject =
      c.roundTrip(jepod::renderRequest(slow) + "\n" +
                  jepod::renderRequest(second));

  // Completion order: the reject is written inline, so it arrives first.
  EXPECT_EQ(reject,
            "{\"v\":1,\"id\":\"fast-2\",\"ok\":false,\"error\":"
            "{\"code\":\"queue-full\",\"message\":\"job queue is full "
            "(1/1 jobs in flight)\"},\"retryAfterMs\":25}");
  EXPECT_EQ(counterValue("jepod.jobs.rejected.queuefull"), rejected0 + 1);

  const Response slowResp = jepod::parseResponse(c.awaitLine());
  EXPECT_TRUE(slowResp.ok);
  EXPECT_EQ(slowResp.id, "slow-1");
  EXPECT_EQ(slowResp.profile.stdoutText, "179999700000\n");
}

TEST_F(JepodTest, PerTenantCountersTrackRequestsAndSanitizeNames) {
  startDaemon();
  Client c = connect();
  const std::uint64_t a0 = counterValue("jepod.tenant.edge-a.requests");
  const std::uint64_t weird0 = counterValue("jepod.tenant.___etc_.requests");

  ASSERT_TRUE(c.submit(makeRequest("t1", kQuickSource, "edge-a")).ok);
  ASSERT_TRUE(c.submit(makeRequest("t2", kQuickSource, "edge-a")).ok);
  ASSERT_TRUE(c.submit(makeRequest("t3", kQuickSource, "../etc!")).ok);

  EXPECT_EQ(counterValue("jepod.tenant.edge-a.requests"), a0 + 2);
  EXPECT_EQ(counterValue("jepod.tenant.___etc_.requests"), weird0 + 1);
  EXPECT_GE(obs::Registry::global()
                .histogram("jepod.tenant.edge-a.latencyUs")
                .count(),
            2u);
}

// ---------------------------------------------------------------------------
// Drain

TEST_F(JepodTest, DrainCompletesInFlightJobsAndRejectsNewOnes) {
  startDaemon();
  const std::uint64_t conns0 = counterValue("jepod.connections");
  Client inflight = connect();
  Client late = connect();  // connected BEFORE the drain begins
  // connect() returns once the kernel queues the handshake; wait until the
  // daemon has actually accept()ed both, or the drain below could reset the
  // still-backlogged connection instead of serving it a typed reject.
  ASSERT_TRUE(eventually(
      [&] { return counterValue("jepod.connections") >= conns0 + 2; }));

  const std::uint64_t admitted0 = counterValue("jepod.jobs.admitted");
  ASSERT_TRUE(inflight.connected());
  // Submit without waiting: send the raw line, then poll for admission.
  JobRequest slow = makeRequest("drain-slow", kSlowSource);
  std::thread sender([&] {
    const Response r = jepod::parseResponse(
        inflight.roundTrip(jepod::renderRequest(slow)));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.profile.stdoutText, "179999700000\n");
  });
  ASSERT_TRUE(eventually(
      [&] { return counterValue("jepod.jobs.admitted") > admitted0; }));

  daemon_->requestDrain();
  EXPECT_TRUE(daemon_->draining());

  // A request on an already-open connection gets the typed drain reject.
  const Response rejected =
      jepod::parseResponse(late.roundTrip(
          jepod::renderRequest(makeRequest("too-late", kQuickSource))));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.errorCode, "shutting-down");
  EXPECT_GE(rejected.retryAfterMs, 0);

  // The in-flight job still completes and flushes before teardown.
  sender.join();
  daemon_->waitDrained();

  // The socket file is gone and new connections fail.
  struct stat st;
  EXPECT_NE(::stat(daemon_->config().socketPath.c_str(), &st), 0);
  Client fresh;
  EXPECT_THROW(fresh.connect(daemon_->config().socketPath), Error);
}

TEST_F(JepodTest, DisconnectedClientsAreReapedWhileRunning) {
  startDaemon();
  const std::uint64_t conns0 = counterValue("jepod.connections");
  {
    Client a = connect();
    Client b = connect();
    ASSERT_TRUE(eventually(
        [&] { return counterValue("jepod.connections") >= conns0 + 2; }));
    ASSERT_TRUE(a.submit(makeRequest("reap-1", kQuickSource)).ok);
    EXPECT_EQ(daemon_->openConnectionCount(), 2u);
  }  // both clients close their sockets here

  // The reader threads see EOF and reclaim their registry entries (and
  // with them the fds) while the daemon keeps running — a long-lived
  // daemon serving short-lived clients must not grow without bound until
  // drain. Before the fix, this count stayed at 2 forever.
  EXPECT_TRUE(eventually([&] { return daemon_->openConnectionCount() == 0; }));

  // New clients are served as usual afterwards (this accept also joins
  // the parked reader threads of the reaped connections).
  Client c = connect();
  EXPECT_TRUE(c.submit(makeRequest("reap-2", kQuickSource)).ok);
  EXPECT_EQ(daemon_->openConnectionCount(), 1u);
}

TEST_F(JepodTest, SigtermTriggersGracefulDrain) {
  startDaemon();
  jepod::SignalDrain signals(*daemon_);
  Client c = connect();

  const std::uint64_t admitted0 = counterValue("jepod.jobs.admitted");
  JobRequest slow = makeRequest("sig-slow", kSlowSource);
  std::thread sender([&] {
    const Response r =
        jepod::parseResponse(c.roundTrip(jepod::renderRequest(slow)));
    EXPECT_TRUE(r.ok);
  });
  ASSERT_TRUE(eventually(
      [&] { return counterValue("jepod.jobs.admitted") > admitted0; }));

  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  ASSERT_TRUE(eventually([&] { return signals.triggered(); }));

  sender.join();          // in-flight job completed despite the signal
  daemon_->waitDrained();  // and the daemon wound down cleanly
  EXPECT_TRUE(daemon_->draining());
}

// ---------------------------------------------------------------------------
// Concurrency soak: many tenants, shared cache, bit-identical answers

TEST_F(JepodTest, ConcurrentTenantsGetBitIdenticalIsolatedResults) {
  DaemonConfig cfg;
  cfg.threads = 4;
  startDaemon(cfg);

  const char* sources[] = {kQuickSource, kChurnSource, kSlowSource};
  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 4;
  const std::uint64_t hits0 = counterValue("jepod.cache.hits");

  // Reference payloads, computed through the daemon's own job runner.
  std::string expected[3];
  for (int s = 0; s < 3; ++s) {
    JobRequest ref = makeRequest("ref", sources[s]);
    ref.seed = 7;
    const std::string line = daemon_->runJobForTest(ref);
    const std::size_t at = line.find("\"result\":");
    ASSERT_NE(at, std::string::npos);
    expected[s] = line.substr(at);
  }

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c;
      c.connect(daemon_->config().socketPath);
      for (int k = 0; k < kJobsPerClient; ++k) {
        const int s = (i + k) % 3;
        JobRequest req = makeRequest(
            "c" + std::to_string(i) + "-" + std::to_string(k), sources[s],
            "tenant-" + std::to_string(i));
        req.seed = 7;
        const Response resp = c.submit(req);
        if (!resp.ok) {
          ++failures;
          continue;
        }
        const std::size_t at = resp.raw.find("\"result\":");
        if (at == std::string::npos ||
            resp.raw.substr(at) != expected[s]) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The repeated-source workload hit the cache every time: the reference
  // runs compiled all 3 sources up front, so every one of the 32 socket
  // jobs was a hit.
  EXPECT_GE(counterValue("jepod.cache.hits") - hits0,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));
}

TEST_F(JepodTest, EvictionWhileJobsHoldProgramsKeepsResponsesExact) {
  // A one-byte budget: every insert evicts every other entry, so programs
  // are freed while jobs on other workers still hold them.
  DaemonConfig cfg;
  cfg.threads = 4;
  cfg.cacheBytes = 1;
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 6;
  const char* const commands[] = {"suggest", "optimize", "profile"};
  // Every request has a source of its own: each job misses the cache.
  const auto requestFor = [&](int client, int k) {
    const int n = 40 + client * kJobsPerClient + k;
    JobRequest req = makeRequest(
        "c" + std::to_string(client) + "-" + std::to_string(k), "",
        "tenant-" + std::to_string(client));
    req.command = commands[(client + k) % 3];
    req.seed = 7;
    req.source = "class Evict {\n"
                 "  static int LIMIT = " + std::to_string(n) + ";\n"
                 "  static void main(String[] args) {\n"
                 "    String s = \"\";\n"
                 "    for (int i = 0; i < LIMIT; i++) { s = s + i % 10; }\n"
                 "    int m = LIMIT > 50 ? LIMIT : 50;\n"
                 "    double big = 25000.0;\n"
                 "    System.out.println(s + \" \" + m + \" \" + big);\n"
                 "  }\n"
                 "}\n";
    return req;
  };

  // Each request's response when sent alone, to a daemon of its own.
  std::vector<std::vector<std::string>> expected(kClients);
  {
    Daemon alone(cfg);
    for (int i = 0; i < kClients; ++i) {
      for (int k = 0; k < kJobsPerClient; ++k) {
        expected[i].push_back(alone.runJobForTest(requestFor(i, k)));
      }
    }
  }

  startDaemon(cfg);
  const std::uint64_t evictions0 = counterValue("jepod.cache.evictions");
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c;
      c.connect(daemon_->config().socketPath);
      for (int k = 0; k < kJobsPerClient; ++k) {
        const Response resp = c.submit(requestFor(i, k));
        if (!resp.ok || resp.raw != expected[i][k]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(counterValue("jepod.cache.evictions") - evictions0,
            static_cast<std::uint64_t>(kClients * kJobsPerClient - 1));
}

}  // namespace
}  // namespace jepo
