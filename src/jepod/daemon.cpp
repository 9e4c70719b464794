#include "jepod/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "fault/fault.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "support/json_reader.hpp"

namespace jepo::jepod {

namespace {

/// Tenant names come off the wire; clamp them to a bounded, registry-safe
/// alphabet so a hostile client cannot mint unbounded or unprintable
/// instrument names.
std::string sanitizeTenant(const std::string& tenant) {
  std::string out;
  const std::size_t n = std::min<std::size_t>(tenant.size(), 48);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = tenant[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? "default" : out;
}

/// Best-effort id recovery for error responses: the request failed
/// validation, but if it was at least JSON we can still echo its id so
/// the client can correlate the reject.
std::string recoverId(std::string_view line) {
  try {
    return json::parseJson(line).stringOr("id", "");
  } catch (const Error&) {
    return "";
  }
}

}  // namespace

Daemon::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cacheBytes) {
  obs::Registry& reg = obs::Registry::global();
  admitted_ = &reg.counter("jepod.jobs.admitted");
  completed_ = &reg.counter("jepod.jobs.completed");
  rejectedFull_ = &reg.counter("jepod.jobs.rejected.queuefull");
  rejectedDraining_ = &reg.counter("jepod.jobs.rejected.draining");
  badRequests_ = &reg.counter("jepod.requests.bad");
  connections_ = &reg.counter("jepod.connections");
  cancelDeadline_ = &reg.counter("jepod.cancel.deadline");
  cancelDisconnect_ = &reg.counter("jepod.cancel.disconnect");
  idleReaped_ = &reg.counter("jepod.connections.idleReaped");
  inflight_ = &reg.gauge("jepod.jobs.inflight");
  latencyUs_ = &reg.histogram("jepod.job.latencyUs");
  cancelLatencyUs_ = &reg.histogram("jepod.cancel.latencyUs");
  tierFull_ = &reg.counter("jepod.tier.full");
  tierSampled_ = &reg.counter("jepod.tier.sampled");
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // Destructor teardown must not throw.
  }
}

void Daemon::start() {
  JEPO_REQUIRE(!started_, "Daemon::start called twice");
  JEPO_REQUIRE(!cfg_.socketPath.empty(), "DaemonConfig.socketPath is empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  JEPO_REQUIRE(cfg_.socketPath.size() < sizeof(addr.sun_path),
               "socket path too long for AF_UNIX");
  std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
              cfg_.socketPath.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("jepod: socket(): " + std::string(std::strerror(errno)));
  }
  // A stale socket file from a dead daemon would make bind fail forever;
  // replace it. (A *live* daemon would still be reachable through its own
  // open fd — single-daemon-per-path is the operator's contract.)
  ::unlink(cfg_.socketPath.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("jepod: bind(" + cfg_.socketPath + "): " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(cfg_.socketPath.c_str());
    throw Error("jepod: listen(): " + err);
  }
  listenFd_.store(fd, std::memory_order_relaxed);

  pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  started_ = true;
  watchdogThread_ = std::thread([this] { watchdogLoop(); });
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void Daemon::requestDrain() {
  {
    std::lock_guard lock(admissionMu_);
    if (draining_.load(std::memory_order_relaxed)) return;
    draining_.store(true, std::memory_order_relaxed);
  }
  idleCv_.notify_all();
  const int fd = listenFd_.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // Unblocks accept() (returns EINVAL on Linux); the fd itself is
    // closed in waitDrained after the accept thread has exited.
    ::shutdown(fd, SHUT_RDWR);
  }
}

void Daemon::waitDrained() {
  std::lock_guard stopLock(stopMu_);
  if (!started_ || drained_) return;

  // 1. Block until a drain has been requested (the jepod binary parks
  //    here until SignalDrain fires) AND every admitted job has completed
  //    and written its response.
  {
    std::unique_lock lock(admissionMu_);
    idleCv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) && pending_ == 0;
    });
  }
  // 2. No new connections (accept already unblocked by requestDrain).
  if (acceptThread_.joinable()) acceptThread_.join();
  const int listenFd = listenFd_.exchange(-1, std::memory_order_relaxed);
  if (listenFd >= 0) ::close(listenFd);
  // 3. Unblock readers still waiting on idle clients; join them. Their
  //    pending work is only "shutting-down" rejects, which have all been
  //    written inline before this point or will fail harmlessly.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(connsMu_);
    conns.swap(conns_);
    for (auto& [key, thread] : connThreads_) threads.push_back(std::move(thread));
    connThreads_.clear();
    for (auto& thread : doneThreads_) threads.push_back(std::move(thread));
    doneThreads_.clear();
  }
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  conns.clear();
  // 4. Stop the watchdog: every admitted job has completed, so there is
  //    nothing left to cancel.
  {
    std::lock_guard lock(jobsMu_);
    watchdogStop_ = true;
  }
  watchdogCv_.notify_all();
  if (watchdogThread_.joinable()) watchdogThread_.join();
  // 5. The pool is idle (pending_ == 0); destroy it and remove the socket.
  pool_.reset();
  ::unlink(cfg_.socketPath.c_str());
  drained_ = true;
}

void Daemon::stop() {
  if (!started_) return;
  requestDrain();
  waitDrained();
}

void Daemon::acceptLoop() {
  for (;;) {
    const int fd = ::accept4(listenFd_.load(std::memory_order_relaxed),
                             nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EINVAL after shutdown(), or a fatal accept error
    }
    if (draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    connections_->add();
    // The stream seam: raw fd I/O, or seeded chaos when a transport fault
    // plan is active. The accept ordinal keys this connection's fault
    // schedule, so a soak replays identically run to run.
    std::unique_ptr<fault::ByteStream> stream =
        std::make_unique<fault::FdStream>(fd);
    if (cfg_.transportFaults.active()) {
      stream = std::make_unique<fault::FaultyStream>(
          std::move(stream),
          fault::TransportFaultPlan(cfg_.transportFaults, acceptOrdinal_));
    }
    ++acceptOrdinal_;
    auto conn = std::make_shared<Connection>(fd, std::move(stream));
    std::vector<std::thread> finished;
    {
      std::lock_guard lock(connsMu_);
      finished.swap(doneThreads_);
      conns_.push_back(conn);
      const Connection* key = conn.get();
      // Constructed under connsMu_: the new thread's reapConnection blocks
      // on this mutex, so its handle is registered before it can look.
      connThreads_.emplace(
          key, std::thread([this, conn = std::move(conn)]() mutable {
            connectionLoop(std::move(conn));
          }));
    }
    // Join outside the lock; these threads have already run their cleanup.
    for (auto& t : finished) t.join();
  }
}

void Daemon::connectionLoop(std::shared_ptr<Connection> conn) {
  readLoop(conn);
  // The submitter is gone: nobody will read the responses, so stop
  // burning workers on its in-flight jobs.
  cancelJobsForConnection(conn.get());
  reapConnection(conn.get());
  // `conn` drops here; once in-flight jobs release their captured refs the
  // Connection destructor closes the fd.
}

void Daemon::reapConnection(const Connection* conn) {
  std::lock_guard lock(connsMu_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn) {
      conns_.erase(it);
      break;
    }
  }
  const auto it = connThreads_.find(conn);
  if (it != connThreads_.end()) {
    // Can't join ourselves; park the handle for acceptLoop/waitDrained.
    doneThreads_.push_back(std::move(it->second));
    connThreads_.erase(it);
  }
}

std::size_t Daemon::openConnectionCount() const {
  std::lock_guard lock(connsMu_);
  return conns_.size();
}

void Daemon::readLoop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  // Large reads take a typical request in one call, as Client::readLine.
  char chunk[64 * 1024];
  // A line over the cap is refused whether or not its newline has arrived.
  const auto rejectOversized = [&] {
    badRequests_->add();
    writeLine(conn, renderErrorResponse(
                        "", ErrorCode::kBadRequest,
                        "request line exceeds " +
                            std::to_string(cfg_.maxLineBytes) + " bytes"));
  };
  for (;;) {
    // Drain complete lines before reading more; only bytes that arrived
    // since the last scan are searched. Each line is parsed where it lies.
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', std::max(start, scanned));
      if (nl == std::string::npos) break;
      if (nl - start > cfg_.maxLineBytes) return rejectOversized();
      std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) handleLine(line, conn);
    }
    if (start > 0) buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > cfg_.maxLineBytes) return rejectOversized();

    if (cfg_.idleTimeoutMs > 0) {
      // Idle reaping: wait for readability so a half-open peer (or a
      // slow-loris trickling a partial line) can be cut loose. A client
      // with jobs in flight is *waiting*, not idle — never reap it.
      bool readable = false;
      while (!readable) {
        pollfd pfd{};
        pfd.fd = conn->fd;
        pfd.events = POLLIN;
        const std::uint64_t respondedBefore =
            conn->responded.load(std::memory_order_acquire);
        const int pr = ::poll(&pfd, 1, cfg_.idleTimeoutMs);
        if (pr > 0) {
          readable = true;
        } else if (pr < 0) {
          if (errno == EINTR) continue;
          return;
        } else if (conn->inflight.load(std::memory_order_acquire) == 0 &&
                   conn->responded.load(std::memory_order_acquire) ==
                       respondedBefore) {
          idleReaped_->add();
          return;
        }
      }
    }
    const long n = conn->stream->read(chunk, sizeof chunk);
    if (n <= 0) return;  // EOF, client reset, or drain shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void Daemon::handleLine(std::string_view line,
                        const std::shared_ptr<Connection>& conn) {
  JobRequest req;
  try {
    req = parseRequest(line);
  } catch (const ProtocolError& e) {
    badRequests_->add();
    writeLine(conn, renderErrorResponse(recoverId(line), e.code(), e.what()));
    return;
  }

  TenantMetrics& tenant = tenantMetrics(req.tenant);
  tenant.requests.add();

  // Admission: the draining check and the queue-bound check share one
  // critical section with pending_ bookkeeping, so a drain observed by
  // waitDrained() can never race a late admission, and a queue-full
  // decision is an exact function of admitted-but-uncompleted jobs. Only
  // the decision happens under the lock — the reject is written after
  // release, because writeLine blocks in send() when a client stops
  // reading, and a stalled client must wedge its own connection only,
  // never every worker and reader parked on admissionMu_.
  enum class Verdict { kAdmit, kDraining, kQueueFull };
  Verdict verdict = Verdict::kAdmit;
  std::size_t pendingSeen = 0;
  {
    std::lock_guard lock(admissionMu_);
    if (draining_.load(std::memory_order_relaxed)) {
      verdict = Verdict::kDraining;
    } else if (cfg_.maxQueue > 0 && pending_ >= cfg_.maxQueue) {
      verdict = Verdict::kQueueFull;
      pendingSeen = pending_;
    } else {
      ++pending_;
      inflight_->set(static_cast<std::int64_t>(pending_));
    }
  }
  if (verdict == Verdict::kDraining) {
    rejectedDraining_->add();
    tenant.rejected.add();
    writeLine(conn,
              renderErrorResponse(req.id, ErrorCode::kShuttingDown,
                                  "daemon is draining; resubmit elsewhere",
                                  cfg_.retryAfterMs));
    return;
  }
  if (verdict == Verdict::kQueueFull) {
    rejectedFull_->add();
    tenant.rejected.add();
    writeLine(conn,
              renderErrorResponse(
                  req.id, ErrorCode::kQueueFull,
                  "job queue is full (" + std::to_string(pendingSeen) + "/" +
                      std::to_string(cfg_.maxQueue) + " jobs in flight)",
                  cfg_.retryAfterMs));
    return;
  }
  admitted_->add();

  const auto admittedAt = std::chrono::steady_clock::now();
  // Register the job for cancellation before it can run: the deadline is
  // measured from admission (queue time counts — a queued job whose
  // deadline lapses is cancelled by its very first poll), and a client
  // disconnect must find every job it submitted.
  auto ctx = std::make_shared<JobContext>();
  ctx->conn = conn.get();
  if (req.deadlineMs > 0) {
    ctx->hasDeadline = true;
    ctx->deadline = admittedAt + std::chrono::milliseconds(req.deadlineMs);
  }
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(jobsMu_);
    liveJobs_.push_back(ctx);
  }
  if (ctx->hasDeadline) watchdogCv_.notify_all();

  pool_->submit([this, req = std::move(req), conn, ctx, tenant = &tenant,
                 admittedAt]() mutable {
    std::string response = runJob(req, *tenant, ctx.get());
    // Job latency runs from admission to response ready; it and the
    // completion count land before the write, so a client that has read
    // its response always finds its job counted. responded/inflight and
    // finishJob stay after the write: the idle reaper and drain must not
    // see the job done before its bytes are out.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - admittedAt)
                        .count();
    latencyUs_->record(static_cast<std::uint64_t>(us));
    tenant->latencyUs.record(static_cast<std::uint64_t>(us));
    completed_->add();
    writeLine(conn, std::move(response));
    finishJobContext(ctx);
    conn->responded.fetch_add(1, std::memory_order_acq_rel);
    conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
    finishJob();
  });
}

void Daemon::watchdogLoop() {
  std::unique_lock lock(jobsMu_);
  for (;;) {
    if (watchdogStop_) return;
    auto next = std::chrono::steady_clock::time_point::max();
    for (const auto& job : liveJobs_) {
      if (job->hasDeadline && !job->token.cancelled() &&
          job->deadline < next) {
        next = job->deadline;
      }
    }
    if (next == std::chrono::steady_clock::time_point::max()) {
      watchdogCv_.wait(lock);
    } else {
      watchdogCv_.wait_until(lock, next);
    }
    if (watchdogStop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& job : liveJobs_) {
      if (job->hasDeadline && !job->token.cancelled() &&
          job->deadline <= now) {
        // cancelledAt is published by the token's release store; the job
        // thread reads it only after observing the token fired.
        job->cancelledAt = now;
        job->token.cancel(CancelReason::kDeadline);
        cancelDeadline_->add();
      }
    }
  }
}

void Daemon::cancelJobsForConnection(const Connection* conn) {
  std::lock_guard lock(jobsMu_);
  const auto now = std::chrono::steady_clock::now();
  for (const auto& job : liveJobs_) {
    if (job->conn == conn && !job->token.cancelled()) {
      job->cancelledAt = now;
      job->token.cancel(CancelReason::kDisconnect);
      cancelDisconnect_->add();
    }
  }
}

void Daemon::finishJobContext(const std::shared_ptr<JobContext>& ctx) {
  std::lock_guard lock(jobsMu_);
  for (auto it = liveJobs_.begin(); it != liveJobs_.end(); ++it) {
    if (it->get() == ctx.get()) {
      liveJobs_.erase(it);
      return;
    }
  }
}

void Daemon::finishJob() {
  std::lock_guard lock(admissionMu_);
  --pending_;
  inflight_->set(static_cast<std::int64_t>(pending_));
  if (pending_ == 0) idleCv_.notify_all();
}

std::shared_ptr<const CachedProgram> Daemon::compileCached(
    const JobRequest& req, bool* cached) {
  const std::uint64_t hash = sourceHash(req.source);
  if (auto hit = cache_.get(hash, req.source)) {
    *cached = true;
    return hit;
  }
  *cached = false;
  auto entry = std::make_shared<CachedProgram>();
  try {
    entry->program = jlang::Parser::parseProgram("<jepod>", req.source);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kParseError, e.what());
  }
  entry->hash = hash;
  entry->bytes = req.source.size();
  // Compile-once: resolve here so cache hits skip parse AND resolution.
  jlang::ensureResolved(entry->program);
  return cache_.put(std::move(entry));
}

std::string Daemon::runJob(const JobRequest& req, TenantMetrics& tenant,
                           JobContext* ctx) {
  bool cached = false;
  try {
    const auto compiled = compileCached(req, &cached);
    const jlang::Program& program = compiled->program;

    if (req.command == "suggest") {
      core::SuggestionEngine engine;
      return renderSuggestResponse(
          req, cached,
          core::renderOptimizerView(engine.analyzeProgram(program)));
    }
    if (req.command == "optimize") {
      const core::OptimizeResult result = core::Optimizer().optimize(program);
      std::vector<OptimizeChange> changes;
      changes.reserve(result.changes.size());
      for (const auto& c : result.changes) {
        changes.push_back({c.className, c.line, c.description});
      }
      std::string source;
      for (const auto& unit : result.program.units) {
        jlang::printUnitTo(source, unit);
      }
      return renderOptimizeResponse(req, cached, changes, source);
    }

    // profile — per-job isolation: fresh Profiler/SimMachine/BytecodeVm,
    // explicit heap limit (the daemon's environment must never leak into
    // a tenant's result), fault/RNG streams derived from the job seed.
    core::Profiler profiler;
    profiler.setHeapLimit(static_cast<std::size_t>(req.heapLimit));
    profiler.setSeed(req.seed);
    if (ctx != nullptr) profiler.setCancelToken(&ctx->token);
    if (!req.faultPlan.empty()) {
      try {
        profiler.setFaultSpec(fault::parseFaultPlan(req.faultPlan));
      } catch (const Error& e) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            std::string("faultPlan: ") + e.what());
      }
    }
    jvm::TierSpec tierSpec;
    if (!req.tier.empty()) {
      try {
        tierSpec = jvm::parseTierSpec(req.tier);
      } catch (const Error& e) {
        // parseRequest validates the spec at the trust boundary; this
        // guards programmatic JobRequest construction (tests, embedding).
        throw ProtocolError(ErrorCode::kBadRequest,
                            std::string("tier: ") + e.what());
      }
      profiler.setTier(tierSpec);
    }
    // Which tier each tenant's profile jobs actually run — the capacity-
    // planning signal for tiered sampling (global + per-tenant).
    const bool sampled = tierSpec.tier == jvm::InstrTier::kSampled;
    (sampled ? *tierSampled_ : *tierFull_).add();
    (sampled ? tenant.tierSampled : tenant.tierFull).add();
    profiler.profile(compiled->bytecode(), req.mainClass, req.maxSteps);
    ProfileResult result;
    result.stdoutText = profiler.takeOutput();
    result.records = profiler.takeRecords();
    return renderProfileResponse(req, cached, result);
  } catch (const ProtocolError& e) {
    tenant.errors.add();
    return renderErrorResponse(req.id, e.code(), e.what());
  } catch (const CancelledError& e) {
    // The watchdog or the reader armed this job's token mid-run (or
    // before it started). Record how long the cancel took to land —
    // poll-to-unwind latency, the number that proves the fused fast path
    // doesn't starve cancellation — and answer with the typed code. The
    // messages depend only on the request, never on timing, so responses
    // stay byte-stable.
    tenant.cancelled.add();
    if (ctx != nullptr) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - ctx->cancelledAt)
                          .count();
      cancelLatencyUs_->record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
    }
    if (e.reason() == CancelReason::kDeadline) {
      return renderErrorResponse(
          req.id, ErrorCode::kDeadlineExceeded,
          "deadline exceeded (deadlineMs=" + std::to_string(req.deadlineMs) +
              ")");
    }
    return renderErrorResponse(req.id, ErrorCode::kCancelled,
                               "job cancelled: client disconnected");
  } catch (const Error& e) {
    // VM aborts (step limit, runtime error) and main-class ambiguity.
    tenant.errors.add();
    return renderErrorResponse(req.id, ErrorCode::kRuntimeError, e.what());
  } catch (const std::exception& e) {
    tenant.errors.add();
    return renderErrorResponse(req.id, ErrorCode::kInternal, e.what());
  }
}

void Daemon::writeLine(const std::shared_ptr<Connection>& conn,
                       std::string line) {
  line += '\n';
  std::lock_guard lock(conn->writeMu);
  std::size_t sent = 0;
  while (sent < line.size()) {
    const long n = conn->stream->write(line.data() + sent, line.size() - sent);
    if (n <= 0) return;  // client went away; its loss
    sent += static_cast<std::size_t>(n);
  }
}

Daemon::TenantMetrics& Daemon::tenantMetrics(const std::string& tenant) {
  const std::string name = sanitizeTenant(tenant);
  std::lock_guard lock(tenantsMu_);
  std::unique_ptr<TenantMetrics>& slot = tenants_[name];
  if (slot == nullptr) {
    obs::Registry& reg = obs::Registry::global();
    const std::string prefix = "jepod.tenant." + name + ".";
    slot.reset(new TenantMetrics{
        reg.counter(prefix + "requests"), reg.counter(prefix + "rejected"),
        reg.counter(prefix + "errors"), reg.counter(prefix + "cancelled"),
        reg.counter(prefix + "tier.full"),
        reg.counter(prefix + "tier.sampled"),
        reg.histogram(prefix + "latencyUs")});
  }
  return *slot;
}

// ---------------------------------------------------------------------------
// SignalDrain

namespace {
// The write end of the self-pipe, visible to the async handler. -1 when no
// SignalDrain is live.
std::atomic<int> gSignalPipeFd{-1};

void drainSignalHandler(int) {
  const int fd = gSignalPipeFd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct sigaction gPrevTerm;
struct sigaction gPrevInt;
}  // namespace

SignalDrain::SignalDrain(Daemon& daemon) : daemon_(&daemon) {
  JEPO_REQUIRE(::pipe(pipeFds_) == 0, "SignalDrain: pipe() failed");
  gSignalPipeFd.store(pipeFds_[1], std::memory_order_relaxed);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = drainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, &gPrevTerm);
  ::sigaction(SIGINT, &sa, &gPrevInt);

  watcher_ = std::thread([this] {
    char byte;
    for (;;) {
      const ssize_t n = ::read(pipeFds_[0], &byte, 1);
      if (n > 0) {
        triggered_.store(true, std::memory_order_relaxed);
        daemon_->requestDrain();
        continue;  // keep draining further signals until teardown
      }
      if (n == 0) return;  // write end closed: destructor
      if (errno != EINTR) return;
    }
  });
}

SignalDrain::~SignalDrain() {
  ::sigaction(SIGTERM, &gPrevTerm, nullptr);
  ::sigaction(SIGINT, &gPrevInt, nullptr);
  gSignalPipeFd.store(-1, std::memory_order_relaxed);
  ::close(pipeFds_[1]);  // watcher's read() returns 0
  if (watcher_.joinable()) watcher_.join();
  ::close(pipeFds_[0]);
}

}  // namespace jepo::jepod
