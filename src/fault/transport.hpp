// Deterministic fault injection for the socket transport.
//
// PR 3 taught the MSR substrate to glitch on demand; this module does the
// same for the jepod wire. Real daemons die to the transport, not the
// happy path: frames torn across short writes, connections reset mid-frame,
// slow-loris peers that trickle bytes with long pauses. A FaultyStream
// decorates any ByteStream (the read/write seam both the daemon's
// connections and jepod::Client sit behind) and injects exactly those
// failure modes so chaos tests can prove the daemon survives them and a
// retrying client recovers from them.
//
// Determinism contract, mirroring FaultPlan: every decision is a pure
// function of (spec.seed, connection ordinal, per-stream op ordinal) — no
// wall clock, no shared state — so a chaos soak replays the same fault
// schedule on every run. Injected delays are host-time-only; a job's
// response payload is unaffected by how its bytes were mangled in flight
// (either the frame arrives intact and bit-identical, or the transport
// error surfaces and the client retries).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace jepo::fault {

/// Minimal byte-stream seam over a connected socket. Return conventions
/// follow recv/send: > 0 bytes transferred, 0 EOF (reads), -1 error.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  virtual long read(char* buf, std::size_t n) = 0;
  virtual long write(const char* buf, std::size_t n) = 0;
  /// Tear down the underlying transport immediately (used by reset
  /// injection). Must be safe when other threads are blocked on the fd —
  /// implementations shut the socket down rather than close the fd, so
  /// the descriptor itself stays valid for its owner to close.
  virtual void closeNow() = 0;
};

/// ByteStream over a connected socket fd. Non-owning: whoever accepted or
/// connected the fd still closes it.
class FdStream final : public ByteStream {
 public:
  explicit FdStream(int fd) : fd_(fd) {}
  long read(char* buf, std::size_t n) override;
  long write(const char* buf, std::size_t n) override;
  void closeNow() override;

 private:
  int fd_;
};

/// The knobs of a transport fault plan. Probabilities are per I/O
/// operation. Resets apply to writes (a peer vanishing mid-frame); short
/// reads/writes tear frames across syscall boundaries; delays stall the
/// op by delayMs first (the slow-loris ingredient).
struct TransportFaultSpec {
  std::uint64_t seed = 1;
  double shortWriteProb = 0.0;
  double shortReadProb = 0.0;
  double resetProb = 0.0;
  double delayProb = 0.0;
  int delayMs = 2;

  /// Does this spec inject anything at all? Inactive specs let callers
  /// skip the decorator entirely (the clean path stays untouched).
  bool active() const noexcept;

  /// Canonical spec string, parseable by parseTransportPlan.
  std::string describe() const;
};

/// Parse "--transport-plan=" syntax: a preset name optionally followed by
/// ':' and comma-separated key=value overrides.
///
///   none | torn | slow-loris | reset | chaos
///
/// overrides: seed=<n> short-write-prob=<p> short-read-prob=<p>
///            reset-prob=<p> delay-prob=<p> delay-ms=<n>
///
/// e.g. "torn:seed=7,reset-prob=0.05". Throws Error on unknown names/keys.
TransportFaultSpec parseTransportPlan(const std::string& text);

enum class TransportFaultKind {
  kNone,
  kShortWrite,  // transfer only a seeded prefix of the buffer
  kShortRead,   // ask the kernel for fewer bytes than the caller did
  kReset,       // write a prefix, then hard-close the transport
  kDelay,       // sleep delayMs before the op (host time only)
};

/// The schedule: decide(op ordinal, direction) is pure in (spec.seed,
/// connection ordinal, op ordinal), so two streams built from the same
/// identity replay identical fault sequences.
class TransportFaultPlan {
 public:
  TransportFaultPlan() = default;
  TransportFaultPlan(TransportFaultSpec spec, std::uint64_t connOrdinal);

  const TransportFaultSpec& spec() const noexcept { return spec_; }
  std::uint64_t connectionOrdinal() const noexcept { return conn_; }
  TransportFaultKind decide(std::uint64_t opOrdinal, bool isWrite) const;
  /// Seeded split point in [1, n-1] for short/reset ops (n >= 2).
  std::size_t splitPoint(std::uint64_t opOrdinal, std::size_t n) const;

 private:
  TransportFaultSpec spec_;
  std::uint64_t conn_ = 0;
};

/// Chaos decorator over any ByteStream. Not thread-safe for concurrent
/// reads or concurrent writes, matching the streams it wraps (jepod
/// serializes writes per connection under writeMu; reads have one owner).
class FaultyStream final : public ByteStream {
 public:
  /// `sleeper` services kDelay (injectable so tests need no wall time);
  /// defaults to std::this_thread::sleep_for.
  FaultyStream(std::unique_ptr<ByteStream> inner, TransportFaultPlan plan,
               std::function<void(int)> sleeper = {});

  long read(char* buf, std::size_t n) override;
  long write(const char* buf, std::size_t n) override;
  void closeNow() override;

 private:
  std::unique_ptr<ByteStream> inner_;
  TransportFaultPlan plan_;
  std::function<void(int)> sleeper_;
  // A connection's reader thread and its writer (under the daemon's write
  // mutex) drive one stream concurrently, so the shared state is atomic.
  std::atomic<std::uint64_t> ordinal_{0};  // one op stream, both directions
  // After a reset every op fails like a dead peer.
  std::atomic<bool> resetDone_{false};
};

}  // namespace jepo::fault
