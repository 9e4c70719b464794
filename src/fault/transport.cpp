#include "fault/transport.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace jepo::fault {

namespace {

obs::Counter& transportCounter(const char* name) {
  return obs::Registry::global().counter(name);
}

// Direction tags folded into the decision seed so a read and a write at
// the same op ordinal draw independent streams.
constexpr std::uint64_t kWriteTag = 0x57u;  // 'W'
constexpr std::uint64_t kReadTag = 0x52u;   // 'R'
constexpr std::uint64_t kSplitTag = 0x5Bu;

TransportFaultSpec transportPreset(std::string_view name) {
  TransportFaultSpec s;
  if (name == "none") return s;
  if (name == "torn") {
    // Frames torn across syscall boundaries in both directions.
    s.shortWriteProb = 0.35;
    s.shortReadProb = 0.35;
    return s;
  }
  if (name == "slow-loris") {
    // Bytes trickle: most ops are a short transfer, half stall first.
    s.shortWriteProb = 0.5;
    s.shortReadProb = 0.3;
    s.delayProb = 0.5;
    s.delayMs = 2;
    return s;
  }
  if (name == "reset") {
    s.resetProb = 0.05;
    return s;
  }
  if (name == "chaos") {
    s.shortWriteProb = 0.25;
    s.shortReadProb = 0.25;
    s.resetProb = 0.02;
    s.delayProb = 0.1;
    s.delayMs = 1;
    return s;
  }
  throw Error("transport plan: unknown preset '" + std::string(name) +
              "' (expected none|torn|slow-loris|reset|chaos)");
}

double parseTransportProb(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    throw Error("transport plan: " + key + "=" + value +
                " is not a probability in [0,1]");
  }
  return p;
}

}  // namespace

long FdStream::read(char* buf, std::size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd_, buf, n, 0);
    if (r >= 0) return static_cast<long>(r);
    if (errno == EINTR) continue;
    return -1;
  }
}

long FdStream::write(const char* buf, std::size_t n) {
  for (;;) {
    const ssize_t r = ::send(fd_, buf, n, MSG_NOSIGNAL);
    if (r >= 0) return static_cast<long>(r);
    if (errno == EINTR) continue;
    return -1;
  }
}

void FdStream::closeNow() { ::shutdown(fd_, SHUT_RDWR); }

bool TransportFaultSpec::active() const noexcept {
  return shortWriteProb > 0.0 || shortReadProb > 0.0 || resetProb > 0.0 ||
         delayProb > 0.0;
}

std::string TransportFaultSpec::describe() const {
  // Canonical form: the empty preset plus explicit overrides, so the
  // string round-trips through parseTransportPlan.
  std::string out = "none:seed=" + std::to_string(seed);
  if (shortWriteProb > 0.0) {
    out += ",short-write-prob=" + fixed(shortWriteProb, 3);
  }
  if (shortReadProb > 0.0) {
    out += ",short-read-prob=" + fixed(shortReadProb, 3);
  }
  if (resetProb > 0.0) out += ",reset-prob=" + fixed(resetProb, 3);
  if (delayProb > 0.0) {
    out += ",delay-prob=" + fixed(delayProb, 3) +
           ",delay-ms=" + std::to_string(delayMs);
  }
  return out;
}

TransportFaultSpec parseTransportPlan(const std::string& text) {
  const std::string trimmed(trim(text));
  if (trimmed.empty()) return TransportFaultSpec{};
  const auto colon = trimmed.find(':');
  TransportFaultSpec spec =
      transportPreset(colon == std::string::npos
                          ? std::string_view(trimmed)
                          : std::string_view(trimmed).substr(0, colon));
  if (colon == std::string::npos) return spec;

  for (const std::string& kv : split(trimmed.substr(colon + 1), ',')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      throw Error("transport plan: expected key=value, got '" + kv + "'");
    }
    const std::string key(trim(kv.substr(0, eq)));
    const std::string value(trim(kv.substr(eq + 1)));
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "short-write-prob") {
      spec.shortWriteProb = parseTransportProb(key, value);
    } else if (key == "short-read-prob") {
      spec.shortReadProb = parseTransportProb(key, value);
    } else if (key == "reset-prob") {
      spec.resetProb = parseTransportProb(key, value);
    } else if (key == "delay-prob") {
      spec.delayProb = parseTransportProb(key, value);
    } else if (key == "delay-ms") {
      spec.delayMs =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      if (spec.delayMs < 0) {
        throw Error("transport plan: delay-ms must be >= 0");
      }
    } else {
      throw Error("transport plan: unknown key '" + key +
                  "' (expected seed|short-write-prob|short-read-prob|"
                  "reset-prob|delay-prob|delay-ms)");
    }
  }
  return spec;
}

TransportFaultPlan::TransportFaultPlan(TransportFaultSpec spec,
                                       std::uint64_t connOrdinal)
    : spec_(spec), conn_(connOrdinal) {}

TransportFaultKind TransportFaultPlan::decide(std::uint64_t opOrdinal,
                                              bool isWrite) const {
  // One private RNG per (connection, op, direction): the decision never
  // depends on call history, threads, or the clock.
  Rng rng(deriveSeed(spec_.seed, conn_, opOrdinal,
                     isWrite ? kWriteTag : kReadTag));
  const double u = rng.nextDouble();
  if (isWrite) {
    double edge = spec_.resetProb;
    if (u < edge) return TransportFaultKind::kReset;
    if (u < (edge += spec_.shortWriteProb)) {
      return TransportFaultKind::kShortWrite;
    }
    if (u < (edge += spec_.delayProb)) return TransportFaultKind::kDelay;
  } else {
    double edge = spec_.shortReadProb;
    if (u < edge) return TransportFaultKind::kShortRead;
    if (u < (edge += spec_.delayProb)) return TransportFaultKind::kDelay;
  }
  return TransportFaultKind::kNone;
}

std::size_t TransportFaultPlan::splitPoint(std::uint64_t opOrdinal,
                                           std::size_t n) const {
  if (n < 2) return n;
  Rng rng(deriveSeed(spec_.seed, conn_, opOrdinal, kSplitTag));
  return 1 + static_cast<std::size_t>(
                 rng.nextBelow(static_cast<std::uint64_t>(n - 1)));
}

FaultyStream::FaultyStream(std::unique_ptr<ByteStream> inner,
                           TransportFaultPlan plan,
                           std::function<void(int)> sleeper)
    : inner_(std::move(inner)), plan_(plan), sleeper_(std::move(sleeper)) {
  if (!sleeper_) {
    sleeper_ = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  transportCounter("fault.transport.streams").add();
}

long FaultyStream::read(char* buf, std::size_t n) {
  if (resetDone_) return 0;  // the peer is gone; reads see EOF
  const std::uint64_t op = ordinal_.fetch_add(1);
  std::size_t ask = n;
  switch (plan_.decide(op, /*isWrite=*/false)) {
    case TransportFaultKind::kShortRead:
      ask = plan_.splitPoint(op, n);
      transportCounter("fault.transport.shortReads").add();
      break;
    case TransportFaultKind::kDelay:
      transportCounter("fault.transport.delays").add();
      sleeper_(plan_.spec().delayMs);
      break;
    default:
      break;
  }
  return inner_->read(buf, ask);
}

long FaultyStream::write(const char* buf, std::size_t n) {
  if (resetDone_) return -1;
  const std::uint64_t op = ordinal_.fetch_add(1);
  switch (plan_.decide(op, /*isWrite=*/true)) {
    case TransportFaultKind::kReset: {
      // A peer dying mid-frame: part of the buffer escapes, then the
      // transport is gone. The neighbour-safety proof rests here — the
      // receiver must treat the torn frame as this connection's problem
      // only.
      transportCounter("fault.transport.resets").add();
      if (n >= 2) {
        const std::size_t cut = plan_.splitPoint(op, n);
        (void)inner_->write(buf, cut);
      }
      inner_->closeNow();
      resetDone_ = true;
      return -1;
    }
    case TransportFaultKind::kShortWrite: {
      transportCounter("fault.transport.shortWrites").add();
      if (n >= 2) return inner_->write(buf, plan_.splitPoint(op, n));
      return inner_->write(buf, n);
    }
    case TransportFaultKind::kDelay:
      transportCounter("fault.transport.delays").add();
      sleeper_(plan_.spec().delayMs);
      break;
    default:
      break;
  }
  return inner_->write(buf, n);
}

void FaultyStream::closeNow() { inner_->closeNow(); }

}  // namespace jepo::fault
