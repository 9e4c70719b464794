// End-to-end resilience: cooperative cancellation (engine polls, profiler
// truncated records, the daemon's deadline watchdog and disconnect
// cancellation), seeded transport-fault injection at the socket seam
// (torn frames, resets, slow-loris trickles — the daemon survives all of
// them), idle-connection reaping, and the retrying client (deterministic
// backoff schedule, reconnect after reset, bounded read timeouts).
//
// The load-bearing invariant throughout: resilience machinery is
// host-time-only. A job that finishes before its deadline, a stream whose
// fault plan never fires, a token that is never armed — all leave the
// response bit-identical to the clean path. Chaos here mangles *when and
// whether* bytes move, never *which* bytes.
//
// Runs under `ctest -L jepod` and `ctest -L chaos` — both labels repeat
// under ASan in CI.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "energy/machine.hpp"
#include "fault/transport.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jepo/profiler.hpp"
#include "jepod/client.hpp"
#include "jepod/daemon.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace jepo {
namespace {

using jepod::Client;
using jepod::Daemon;
using jepod::DaemonConfig;
using jepod::JobRequest;
using jepod::Response;
using jepod::RetryPolicy;
using jepod::TransportError;

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

// Effectively infinite under any realistic step budget (~2e15 inner
// iterations), with the inner loop shaped so the bytecode compiler fuses
// it into kCountedAccumLoop — the worst case for cancellation latency,
// since the fused fast path must still pass a poll point every iteration.
const char* const kSpinSource = R"(
class Spin {
  static void main(String[] args) {
    int acc = 0;
    int r = 0;
    while (r < 2000000000) {
      for (int i = 0; i < 1000000; i++) { acc = acc + (i & 7); }
      r = r + 1;
    }
    System.out.println(acc);
  }
}
)";

// 2001 method executions: a profile response of ~300 KiB, several times
// the client's read chunk.
const char* const kTwoThousandCallsSource = R"(
class Calls {
  static int step(int x) { return x + 1; }
  static void main(String[] args) {
    int acc = 0;
    for (int i = 0; i < 2000; i++) { acc = step(acc); }
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

class JepodResilienceTest : public ::testing::Test {
 protected:
  void startDaemon(DaemonConfig cfg = {}) {
    char tmpl[] = "/tmp/jepodrXXXXXX";
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

  // A raw client socket, for tests that must half-send or vanish without
  // the Client's framing discipline.
  int rawConnect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = daemon_->config().socketPath;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  std::string dir_;
  std::unique_ptr<Daemon> daemon_;
};

// ---------------------------------------------------------------------------
// CancelToken + engine-level cancellation

TEST(CancelToken, FirstReasonWinsAndLaterCancelsAreNoOps) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.cancel(CancelReason::kDeadline);
  token.cancel(CancelReason::kDisconnect);  // loses the race; no-op
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

// The acceptance case for the VM: polls must fire *inside* the fused
// counted-accumulate fast path, because kCountedAccumLoop's backedge
// re-enters the dispatch top (where the poll lives) every iteration. A
// fuser that hoisted the whole loop out of dispatch would hang here.
TEST(EngineCancel, FusedCountedAccumLoopStaysCancellable) {
  const auto prog = jlang::Parser::parseProgram("spin.mjava", kSpinSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  bool sawFusedLoop = false;
  for (const auto& [name, cls] : compiled.classes) {
    const auto it = cls.methods.find("main");
    if (!cls.hasMain || it == cls.methods.end()) continue;
    for (const auto& in : it->second.code) {
      if (in.op == jbc::Op::kCountedAccumLoop) sawFusedLoop = true;
    }
  }
  ASSERT_TRUE(sawFusedLoop) << "spin loop did not fuse; test is vacuous";

  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(0);  // unlimited: only the token can stop this run
  CancelToken token;
  vm.setCancelToken(&token);
  std::thread watcher([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.cancel(CancelReason::kDeadline);
  });
  try {
    vm.runMain();
    FAIL() << "spin loop finished without cancellation";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  watcher.join();
}

TEST(EngineCancel, PreArmedTokenAbortsBeforeRealWork) {
  const auto prog = jlang::Parser::parseProgram("spin.mjava", kSpinSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(0);
  CancelToken token;
  token.cancel(CancelReason::kDisconnect);  // armed before the run starts
  vm.setCancelToken(&token);
  EXPECT_THROW(vm.runMain(), CancelledError);
}

// ---------------------------------------------------------------------------
// Profiler-level cancellation

TEST(ProfilerCancel, CancelRetainsOutputAndTruncatedRecords) {
  const auto prog = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static void spin() { while (true) { int x = 1; } }
      static void main(String[] args) {
        System.out.println("starting");
        spin();
      }
    }
  )");
  core::Profiler prof;
  CancelToken token;
  prof.setCancelToken(&token);
  std::thread watcher([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.cancel(CancelReason::kDeadline);
  });
  try {
    prof.profile(prog, {}, /*maxSteps=*/0);
    FAIL() << "infinite loop finished without cancellation";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  watcher.join();
  // The abort path is the step-limit path: output and in-flight methods
  // survive as truncated records, innermost first.
  EXPECT_EQ(prof.programOutput(), "starting\n");
  ASSERT_EQ(prof.records().size(), 2u);
  EXPECT_EQ(prof.records()[0].method, "Main.spin");
  EXPECT_TRUE(prof.records()[0].truncated);
  EXPECT_TRUE(prof.records()[1].truncated);
}

TEST(ProfilerCancel, UnfiredTokenLeavesRunBitIdentical) {
  const auto prog = jlang::Parser::parseProgram("q.mjava", kQuickSource);
  core::Profiler plain;
  plain.profile(prog);

  core::Profiler watched;
  CancelToken token;  // installed but never armed
  watched.setCancelToken(&token);
  watched.profile(prog);

  EXPECT_EQ(watched.programOutput(), plain.programOutput());
  ASSERT_EQ(watched.records().size(), plain.records().size());
  for (std::size_t i = 0; i < plain.records().size(); ++i) {
    EXPECT_EQ(watched.records()[i].method, plain.records()[i].method);
    EXPECT_EQ(watched.records()[i].packageJoules,
              plain.records()[i].packageJoules);
    EXPECT_EQ(watched.records()[i].seconds, plain.records()[i].seconds);
    EXPECT_EQ(watched.records()[i].truncated, plain.records()[i].truncated);
  }
}

// ---------------------------------------------------------------------------
// Daemon: deadline watchdog

TEST_F(JepodResilienceTest, DeadlineExceededIsTypedAndNeighborsStayClean) {
  DaemonConfig cfg;
  cfg.threads = 2;
  startDaemon(cfg);
  const std::uint64_t deadlineBefore = counterValue("jepod.cancel.deadline");

  // Warm the cache so the neighbor comparison is cached-vs-cached.
  JobRequest neighbor = makeRequest("bystander", kQuickSource, "calm");
  daemon_->runJobForTest(neighbor);
  const std::string reference = daemon_->runJobForTest(neighbor);

  JobRequest doomed = makeRequest("doomed", kSpinSource, "reckless");
  doomed.deadlineMs = 50;  // vs the default effectively-infinite maxSteps

  Client doomedClient = connect();
  std::thread doomedThread([&] {
    const Response resp = doomedClient.submit(doomed);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "deadline-exceeded");
    EXPECT_EQ(resp.id, "doomed");
    EXPECT_NE(resp.errorMessage.find("deadlineMs=50"), std::string::npos);
  });

  // While the doomed job burns its 50 ms, a neighbor tenant's job runs to
  // completion on the other worker, byte-identical to the clean run.
  Client calm = connect();
  const Response ok = calm.submit(neighbor);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.raw, reference);

  doomedThread.join();
  EXPECT_EQ(counterValue("jepod.cancel.deadline"), deadlineBefore + 1);
}

TEST_F(JepodResilienceTest, QueuedJobsHonorTheirDeadlineToo) {
  DaemonConfig cfg;
  cfg.threads = 1;  // one worker: the second job must queue
  cfg.maxQueue = 4;
  startDaemon(cfg);
  const std::uint64_t admittedBefore = counterValue("jepod.jobs.admitted");
  const std::uint64_t deadlineBefore = counterValue("jepod.cancel.deadline");

  JobRequest blocker = makeRequest("blocker", kSpinSource);
  blocker.deadlineMs = 400;
  Client blockerClient = connect();
  std::thread blockerThread([&] {
    const Response resp = blockerClient.submit(blocker);
    EXPECT_EQ(resp.errorCode, "deadline-exceeded");
  });
  ASSERT_TRUE(eventually([&] {
    return counterValue("jepod.jobs.admitted") == admittedBefore + 1;
  }));

  // The quick job would finish in microseconds once running — but it sits
  // queued behind the blocker past its own 50 ms deadline. The watchdog
  // arms its token while it is still queued; the first poll kills it.
  JobRequest queued = makeRequest("queued", kQuickSource);
  queued.deadlineMs = 50;
  Client queuedClient = connect();
  const Response resp = queuedClient.submit(queued);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.errorCode, "deadline-exceeded");

  blockerThread.join();
  EXPECT_EQ(counterValue("jepod.cancel.deadline"), deadlineBefore + 2);
}

// ---------------------------------------------------------------------------
// Daemon: disconnect cancellation + idle reaping

TEST_F(JepodResilienceTest, DisconnectCancelsInflightJobAndFreesTheWorker) {
  DaemonConfig cfg;
  cfg.threads = 1;  // the runaway job owns the only worker
  startDaemon(cfg);
  const std::uint64_t admittedBefore = counterValue("jepod.jobs.admitted");
  const std::uint64_t cancelBefore = counterValue("jepod.cancel.disconnect");

  const int fd = rawConnect();
  const std::string line =
      jepod::renderRequest(makeRequest("walkaway", kSpinSource)) + "\n";
  ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<long>(line.size()));
  ASSERT_TRUE(eventually([&] {
    return counterValue("jepod.jobs.admitted") == admittedBefore + 1;
  }));
  ::close(fd);  // nobody is waiting for the result anymore

  // The reader observes the EOF, arms the job's token with kDisconnect,
  // and the worker comes free — without waiting out the step budget.
  ASSERT_TRUE(eventually([&] {
    return counterValue("jepod.cancel.disconnect") == cancelBefore + 1;
  }));
  ASSERT_TRUE(eventually([&] { return daemon_->openConnectionCount() == 0; }));

  Client c = connect();
  const Response resp = c.submit(makeRequest("after", kQuickSource));
  EXPECT_TRUE(resp.ok);
}

TEST_F(JepodResilienceTest, SilentConnectionsAreReapedHalfFrameIncluded) {
  DaemonConfig cfg;
  cfg.idleTimeoutMs = 50;
  startDaemon(cfg);
  const std::uint64_t reapedBefore =
      counterValue("jepod.connections.idleReaped");

  // A classic slow-loris opener: half a frame, then silence forever.
  const int loris = rawConnect();
  const std::string line =
      jepod::renderRequest(makeRequest("loris", kQuickSource)) + "\n";
  ASSERT_EQ(::send(loris, line.data(), line.size() / 2, MSG_NOSIGNAL),
            static_cast<long>(line.size() / 2));
  // And one that never sends a byte at all.
  const int mute = rawConnect();
  ASSERT_TRUE(eventually([&] { return daemon_->openConnectionCount() == 2; }));

  ASSERT_TRUE(eventually([&] {
    return counterValue("jepod.connections.idleReaped") == reapedBefore + 2;
  }));
  ASSERT_TRUE(eventually([&] { return daemon_->openConnectionCount() == 0; }));
  ::close(loris);
  ::close(mute);

  // The daemon shrugged it off and still serves.
  Client c = connect();
  EXPECT_TRUE(c.submit(makeRequest("after-loris", kQuickSource)).ok);
}

TEST_F(JepodResilienceTest, ClientWaitingOnASlowJobIsNeverReaped) {
  DaemonConfig cfg;
  cfg.idleTimeoutMs = 100;
  startDaemon(cfg);
  const std::uint64_t reapedBefore =
      counterValue("jepod.connections.idleReaped");

  // The client is silent for ~400 ms — four idle timeouts — but its job
  // is in flight, so the reaper must leave it alone until the (typed)
  // response arrives.
  JobRequest req = makeRequest("patient", kSpinSource);
  req.deadlineMs = 400;
  Client c = connect();
  const Response resp = c.submit(req);
  EXPECT_EQ(resp.errorCode, "deadline-exceeded");
  EXPECT_EQ(counterValue("jepod.connections.idleReaped"), reapedBefore);
}

// ---------------------------------------------------------------------------
// Client: bounded reads + typed transport errors

TEST_F(JepodResilienceTest, ReadTimesOutAgainstAMuteServer) {
  // A listener that accepts the connect but never answers — the shape of
  // a wedged daemon. Before the timeout existed this hung forever.
  char tmpl[] = "/tmp/jepodrXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/mute";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  Client c;
  c.connect(path);
  c.setReadTimeoutMs(50);
  try {
    c.roundTrip("{\"v\":1}");
    FAIL() << "read returned against a mute server";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
  ::close(listener);
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(JepodResilienceTest, DaemonDyingMidConnectionIsATypedError) {
  startDaemon();
  Client c = connect();
  EXPECT_TRUE(c.submit(makeRequest("warm", kQuickSource)).ok);
  daemon_->stop();
  // EOF, not a hang and not a crash.
  EXPECT_THROW(c.submit(makeRequest("orphan", kQuickSource)), TransportError);
}

// ---------------------------------------------------------------------------
// Client: retry policy

TEST(RetryPolicyTest, BackoffScheduleIsDeterministicSeededAndCapped) {
  RetryPolicy policy;
  policy.baseBackoffMs = 10;
  policy.maxBackoffMs = 40;
  policy.jitterSeed = 42;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Documented contract: min(base * 2^k, cap) plus seeded jitter in
    // [0, base/2], pure in (jitterSeed, attempt).
    std::uint64_t base = 10;
    for (int i = 0; i < attempt && base < 40; ++i) base *= 2;
    if (base > 40) base = 40;
    Rng rng(deriveSeed(policy.jitterSeed, static_cast<std::uint64_t>(attempt),
                       0x4A17u));
    const int expected = static_cast<int>(base + rng.nextBelow(base / 2 + 1));
    EXPECT_EQ(Client::backoffDelayMs(policy, attempt, -1), expected);
    // Replaying the same attempt yields the same delay.
    EXPECT_EQ(Client::backoffDelayMs(policy, attempt, -1), expected);
    // A server hint is a floor, never ignored.
    EXPECT_GE(Client::backoffDelayMs(policy, attempt, 1000), 1000);
    // The cap bounds the exponential part: base 40 + jitter <= 20.
    EXPECT_LE(Client::backoffDelayMs(policy, attempt, -1), 60);
  }
}

TEST_F(JepodResilienceTest, RetryOnQueueFullHonorsRetryAfterAndSucceeds) {
  DaemonConfig cfg;
  cfg.threads = 1;
  cfg.maxQueue = 1;
  cfg.retryAfterMs = 30;
  startDaemon(cfg);
  const std::uint64_t admittedBefore = counterValue("jepod.jobs.admitted");

  JobRequest blocker = makeRequest("hog", kSpinSource);
  blocker.deadlineMs = 250;  // hold the only slot for ~250 ms
  Client blockerClient = connect();
  std::thread blockerThread([&] { blockerClient.submit(blocker); });
  ASSERT_TRUE(eventually([&] {
    return counterValue("jepod.jobs.admitted") == admittedBefore + 1;
  }));

  RetryPolicy policy;
  policy.maxRetries = 20;
  policy.jitterSeed = 7;
  Client c = connect();
  c.setRetryPolicy(policy);
  std::vector<int> slept;
  c.setSleeper([&slept](int ms) {
    slept.push_back(ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  });
  const Response resp = c.submit(makeRequest("persistent", kQuickSource));
  blockerThread.join();

  EXPECT_TRUE(resp.ok);
  ASSERT_GE(c.retries(), 1u);
  ASSERT_EQ(slept.size(), c.retries());
  for (std::size_t attempt = 0; attempt < slept.size(); ++attempt) {
    // Every sleep is exactly the deterministic schedule, floored by the
    // server's retryAfterMs=30 hint that rode on the queue-full reject.
    EXPECT_EQ(slept[attempt],
              Client::backoffDelayMs(policy, static_cast<int>(attempt), 30));
    EXPECT_GE(slept[attempt], 30);
  }
}

TEST_F(JepodResilienceTest, ResetEveryWriteExhaustsRetriesThenRecovers) {
  startDaemon();

  fault::TransportFaultSpec alwaysReset;
  alwaysReset.seed = 5;
  alwaysReset.resetProb = 1.0;
  RetryPolicy policy;
  policy.maxRetries = 3;
  policy.baseBackoffMs = 1;
  policy.maxBackoffMs = 4;
  Client c;
  c.setTransportFaults(alwaysReset);
  c.setRetryPolicy(policy);
  std::vector<int> slept;
  c.setSleeper([&slept](int ms) { slept.push_back(ms); });
  c.connect(daemon_->config().socketPath);

  // Every attempt's first write resets mid-frame; after maxRetries
  // reconnect-and-retry cycles the final TransportError surfaces.
  EXPECT_THROW(c.submit(makeRequest("cursed", kQuickSource)), TransportError);
  EXPECT_EQ(c.retries(), 3u);
  EXPECT_EQ(c.reconnects(), 3u);
  ASSERT_EQ(slept.size(), 3u);
  for (std::size_t attempt = 0; attempt < slept.size(); ++attempt) {
    EXPECT_EQ(slept[attempt],
              Client::backoffDelayMs(policy, static_cast<int>(attempt), -1));
  }

  // Clear the plan: the same client reconnects and the daemon — which ate
  // three torn frames without flinching — serves it normally.
  c.setTransportFaults({});
  const Response resp = c.submit(makeRequest("blessed", kQuickSource));
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(c.reconnects(), 4u);
}

// ---------------------------------------------------------------------------
// Transport-fault injection: survival + bit-identity under chaos

TEST_F(JepodResilienceTest, TornFramesOnTheDaemonSideStayByteIdentical) {
  DaemonConfig cfg;
  cfg.transportFaults = fault::parseTransportPlan("torn:seed=11");
  startDaemon(cfg);

  JobRequest req = makeRequest("torn", kQuickSource);
  daemon_->runJobForTest(req);  // warm the cache
  const std::string reference = daemon_->runJobForTest(req);

  // Twenty connections, each with its own seeded tear schedule (keyed by
  // accept ordinal). Short reads and short writes tear frames across
  // syscall boundaries but lose no bytes — every response must land
  // byte-identical to the clean run, with no retries needed.
  for (int i = 0; i < 20; ++i) {
    Client c = connect();
    const Response resp = c.submit(req);
    EXPECT_TRUE(resp.ok) << "iteration " << i;
    EXPECT_EQ(resp.raw, reference) << "iteration " << i;
  }
}

TEST_F(JepodResilienceTest, LargeResponseSurvivesTornReadsByteExact) {
  DaemonConfig cfg;
  cfg.transportFaults = fault::parseTransportPlan("torn:seed=5");
  startDaemon(cfg);

  JobRequest req = makeRequest("big", kTwoThousandCallsSource);
  daemon_->runJobForTest(req);  // warm the cache
  const std::string reference = daemon_->runJobForTest(req);
  ASSERT_GT(reference.size(), 64u * 1024u);

  // Short writes on the daemon side and short reads on the client side
  // split the response at seeded offsets; readLine must stitch it back.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    fault::TransportFaultSpec torn = fault::parseTransportPlan("torn");
    torn.seed = seed;
    Client c;
    c.setTransportFaults(torn);
    c.connect(daemon_->config().socketPath);
    const Response resp = c.submit(req);
    ASSERT_TRUE(resp.ok) << "seed " << seed;
    EXPECT_EQ(resp.raw, reference) << "seed " << seed;
  }
}

TEST_F(JepodResilienceTest, PipelinedResponsesInOneReadSplitByteExact) {
  // A fake server writes a response larger than the client's read chunk,
  // then a second one, in a single write: the tail of the first and all
  // of the second arrive in one read. A third line follows in two writes.
  char tmpl[] = "/tmp/jepodrXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/pipe";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  Rng rng(77);
  std::string first(100 * 1024, 'x');
  for (char& ch : first) ch = static_cast<char>('a' + rng.nextBelow(26));
  const std::string second = "{\"v\":1,\"id\":\"second\"}";
  const std::string third = "third-line";
  std::thread server([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const auto sendAll = [fd](const std::string& bytes) {
      std::size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<std::size_t>(n);
      }
    };
    sendAll(first + "\n" + second + "\n" + third.substr(0, 4));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sendAll(third.substr(4) + "\n");
    char byte;
    [[maybe_unused]] const ssize_t eof = ::read(fd, &byte, 1);  // client close
    ::close(fd);
  });

  std::vector<std::string> lines;
  try {
    Client c;
    c.connect(path);
    for (int i = 0; i < 3; ++i) lines.push_back(c.awaitLine());
  } catch (const Error& e) {
    ADD_FAILURE() << e.what();
  }
  // Unblocks the server's accept() if the client never connected.
  ::shutdown(listener, SHUT_RDWR);
  server.join();
  EXPECT_EQ(lines, (std::vector<std::string>{first, second, third}));
  ::close(listener);
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(JepodResilienceTest, ChaosSoakTwoHundredIterationsBitIdentical) {
  DaemonConfig cfg;
  cfg.threads = 2;
  cfg.transportFaults = fault::parseTransportPlan("chaos:seed=3,delay-ms=1");
  startDaemon(cfg);

  // Fault-free references, cache warmed so every comparison is
  // cached-vs-cached.
  struct Workload {
    JobRequest req;
    std::string reference;
  };
  std::vector<Workload> workloads;
  const char* sources[] = {kQuickSource, kChurnSource};
  const char* names[] = {"quick", "churn"};
  for (int s = 0; s < 2; ++s) {
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      JobRequest req = makeRequest(std::string("soak-") + names[s] + "-" +
                                       std::to_string(seed),
                                   sources[s], "chaos");
      req.seed = seed;
      daemon_->runJobForTest(req);
      workloads.push_back({req, daemon_->runJobForTest(req)});
    }
  }

  // 200 iterations: every connection tears, stalls and occasionally
  // resets (both sides of the wire, seeded per iteration), every client
  // retries through it. The daemon must neither crash nor ever serve a
  // response that differs from the fault-free run — a torn frame either
  // reassembles intact or surfaces as a transport error and is retried.
  RetryPolicy policy;
  policy.maxRetries = 8;
  policy.baseBackoffMs = 1;
  policy.maxBackoffMs = 8;
  for (int i = 0; i < 200; ++i) {
    fault::TransportFaultSpec clientChaos =
        fault::parseTransportPlan("chaos:delay-ms=0");
    clientChaos.seed = 1000 + static_cast<std::uint64_t>(i);
    RetryPolicy p = policy;
    p.jitterSeed = static_cast<std::uint64_t>(i);
    Client c;
    c.setTransportFaults(clientChaos);
    c.setRetryPolicy(p);
    c.connect(daemon_->config().socketPath);
    const Workload& w = workloads[static_cast<std::size_t>(i) %
                                  workloads.size()];
    const Response resp = c.submit(w.req);
    ASSERT_TRUE(resp.ok) << "iteration " << i << ": " << resp.errorCode
                         << " " << resp.errorMessage;
    ASSERT_EQ(resp.raw, w.reference) << "iteration " << i;
  }

  // No leaked connections: every reader thread noticed its peer leave.
  EXPECT_TRUE(eventually([&] { return daemon_->openConnectionCount() == 0; }));
  // TearDown's stop() then proves the drain completes cleanly under
  // injected faults (it would hang this test if a thread leaked).
}

// ---------------------------------------------------------------------------
// Transport-fault plan unit coverage

TEST(TransportPlan, ParsePresetsAndOverrides) {
  EXPECT_FALSE(fault::parseTransportPlan("none").active());
  EXPECT_FALSE(fault::parseTransportPlan("").active());
  const auto torn = fault::parseTransportPlan("torn:seed=7,reset-prob=0.5");
  EXPECT_TRUE(torn.active());
  EXPECT_EQ(torn.seed, 7u);
  EXPECT_DOUBLE_EQ(torn.resetProb, 0.5);
  EXPECT_GT(torn.shortWriteProb, 0.0);
  EXPECT_THROW(fault::parseTransportPlan("lagswitch"), Error);
  EXPECT_THROW(fault::parseTransportPlan("torn:bogus-knob=1"), Error);
  // describe() round-trips through the parser.
  const auto again = fault::parseTransportPlan(torn.describe());
  EXPECT_EQ(again.seed, torn.seed);
  EXPECT_DOUBLE_EQ(again.resetProb, torn.resetProb);
  EXPECT_DOUBLE_EQ(again.shortWriteProb, torn.shortWriteProb);
}

TEST(TransportPlan, DecisionsArePureInSeedConnectionAndOpOrdinal) {
  const auto spec = fault::parseTransportPlan("chaos:seed=9");
  const fault::TransportFaultPlan a(spec, 4);
  const fault::TransportFaultPlan b(spec, 4);
  const fault::TransportFaultPlan other(spec, 5);
  bool anyFault = false;
  bool anyDivergence = false;
  for (std::uint64_t op = 0; op < 256; ++op) {
    for (const bool isWrite : {false, true}) {
      EXPECT_EQ(a.decide(op, isWrite), b.decide(op, isWrite));
      if (a.decide(op, isWrite) != fault::TransportFaultKind::kNone) {
        anyFault = true;
      }
      if (a.decide(op, isWrite) != other.decide(op, isWrite)) {
        anyDivergence = true;
      }
    }
    const std::size_t split = a.splitPoint(op, 64);
    EXPECT_GE(split, 1u);
    EXPECT_LE(split, 63u);
  }
  EXPECT_TRUE(anyFault) << "chaos preset never fired in 512 ops";
  EXPECT_TRUE(anyDivergence) << "connection ordinal does not vary the plan";
}

}  // namespace
}  // namespace jepo
