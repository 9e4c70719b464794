#include "jepod/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/rng.hpp"

namespace jepo::jepod {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      stream_(std::move(other.stream_)),
      buffer_(std::move(other.buffer_)),
      socketPath_(std::move(other.socketPath_)),
      retry_(other.retry_),
      sleeper_(std::move(other.sleeper_)),
      readTimeoutMs_(other.readTimeoutMs_),
      transportFaults_(other.transportFaults_),
      connectOrdinal_(other.connectOrdinal_),
      retries_(other.retries_),
      reconnects_(other.reconnects_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    stream_ = std::move(other.stream_);
    buffer_ = std::move(other.buffer_);
    socketPath_ = std::move(other.socketPath_);
    retry_ = other.retry_;
    sleeper_ = std::move(other.sleeper_);
    readTimeoutMs_ = other.readTimeoutMs_;
    transportFaults_ = other.transportFaults_;
    connectOrdinal_ = other.connectOrdinal_;
    retries_ = other.retries_;
    reconnects_ = other.reconnects_;
  }
  return *this;
}

void Client::connect(const std::string& socketPath) {
  JEPO_REQUIRE(fd_ < 0, "Client already connected");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  JEPO_REQUIRE(socketPath.size() < sizeof(addr.sun_path),
               "socket path too long for AF_UNIX");
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw TransportError("jepod client: socket(): " +
                         std::string(std::strerror(errno)));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("jepod client: connect(" + socketPath + "): " + err);
  }
  socketPath_ = socketPath;
  stream_ = std::make_unique<fault::FdStream>(fd_);
  if (transportFaults_.active()) {
    stream_ = std::make_unique<fault::FaultyStream>(
        std::move(stream_),
        fault::TransportFaultPlan(transportFaults_, connectOrdinal_));
  }
  ++connectOrdinal_;
}

void Client::close() {
  stream_.reset();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void Client::setSleeper(std::function<void(int)> sleeper) {
  sleeper_ = std::move(sleeper);
}

int Client::backoffDelayMs(const RetryPolicy& policy, int attempt,
                           int retryAfterMs) {
  std::uint64_t base = static_cast<std::uint64_t>(
      policy.baseBackoffMs < 1 ? 1 : policy.baseBackoffMs);
  const std::uint64_t cap =
      static_cast<std::uint64_t>(policy.maxBackoffMs < 1 ? 1
                                                         : policy.maxBackoffMs);
  for (int i = 0; i < attempt && base < cap; ++i) base *= 2;
  if (base > cap) base = cap;
  // Seeded jitter in [0, base/2]: pure in (jitterSeed, attempt), so two
  // clients with different seeds desynchronize their retry storms while
  // each one's schedule replays exactly.
  Rng rng(deriveSeed(policy.jitterSeed, static_cast<std::uint64_t>(attempt),
                     0x4A17u));
  std::uint64_t delay = base + rng.nextBelow(base / 2 + 1);
  if (retryAfterMs > 0 && delay < static_cast<std::uint64_t>(retryAfterMs)) {
    delay = static_cast<std::uint64_t>(retryAfterMs);
  }
  return static_cast<int>(delay);
}

Response Client::submit(const JobRequest& req) {
  if (!sleeper_) {
    sleeper_ = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  for (int attempt = 0;; ++attempt) {
    try {
      if (!connected()) {
        // A previous attempt tore the connection down; re-establish it.
        // Safe because jobs are deterministic and idempotent — a job whose
        // response was lost in flight returns bit-identically when re-run.
        JEPO_REQUIRE(!socketPath_.empty(), "Client not connected");
        connect(socketPath_);
        ++reconnects_;
      }
      Response resp = submitOnce(req);
      if (!resp.ok && resp.errorCode == "queue-full" &&
          attempt < retry_.maxRetries) {
        ++retries_;
        sleeper_(backoffDelayMs(retry_, attempt, resp.retryAfterMs));
        continue;
      }
      return resp;
    } catch (const TransportError&) {
      // The wire broke (reset, timeout, refused reconnect). Drop the
      // connection — its read buffer may hold a torn frame — and back off.
      close();
      if (attempt >= retry_.maxRetries) throw;
      ++retries_;
      sleeper_(backoffDelayMs(retry_, attempt, -1));
    }
  }
}

Response Client::submitOnce(const JobRequest& req) {
  return parseResponse(roundTrip(renderRequest(req)));
}

std::string Client::roundTrip(const std::string& rawLine) {
  JEPO_REQUIRE(fd_ >= 0, "Client not connected");
  std::string framed = rawLine;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const long n = stream_->write(framed.data() + sent, framed.size() - sent);
    if (n <= 0) {
      throw TransportError("jepod client: send failed (daemon gone?)");
    }
    sent += static_cast<std::size_t>(n);
  }
  return readLine();
}

std::string Client::readLine() {
  JEPO_REQUIRE(fd_ >= 0, "Client not connected");
  // Large reads keep a big profile response to a handful of syscalls; each
  // byte is searched for the newline once, when it arrives.
  char chunk[64 * 1024];
  std::size_t scanned = 0;  // buffer_[0, scanned) holds no newline
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::string line;
      if (nl + 1 == buffer_.size()) {
        // Nothing pipelined behind this line: hand the buffer over.
        buffer_.pop_back();
        line.swap(buffer_);
      } else {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
      }
      return line;
    }
    scanned = buffer_.size();
    if (readTimeoutMs_ > 0) {
      // Bounded wait: a daemon dying mid-response (or never responding)
      // surfaces as a typed error instead of hanging this thread forever.
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int pr;
      do {
        pr = ::poll(&pfd, 1, readTimeoutMs_);
      } while (pr < 0 && errno == EINTR);
      if (pr == 0) {
        throw TransportError("jepod client: read timed out after " +
                             std::to_string(readTimeoutMs_) + " ms");
      }
      if (pr < 0) {
        throw TransportError("jepod client: poll(): " +
                             std::string(std::strerror(errno)));
      }
    }
    const long n = stream_->read(chunk, sizeof chunk);
    if (n <= 0) {
      throw TransportError(
          "jepod client: connection closed before a response line");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace jepo::jepod
