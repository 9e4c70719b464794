#include "tracer.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "support/json_writer.hpp"

namespace perfbench {

namespace {

std::atomic<bool> gEnabled{false};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> records;
  std::vector<std::int64_t> open;  // indices of open spans, innermost last
};

struct BufferRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by mu
};

BufferRegistry& registry() {
  static BufferRegistry r;
  return r;
}

/// The calling thread's buffer. Shared with the registry so spans survive
/// the thread (pool workers end before collect()).
ThreadBuffer& localBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferRegistry& r = registry();
    std::lock_guard lock(r.mu);
    b->thread = static_cast<std::uint32_t>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

double nowMicros() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tracer::setEnabled(bool on) noexcept {
  gEnabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() noexcept {
  return gEnabled.load(std::memory_order_relaxed);
}

void Tracer::clear() {
  BufferRegistry& r = registry();
  std::lock_guard lock(r.mu);
  for (const auto& b : r.buffers) b->records.clear();
}

std::vector<SpanRecord> Tracer::collect() {
  BufferRegistry& r = registry();
  std::lock_guard lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (SpanRecord rec : b->records) {
      if (rec.parent >= 0) rec.parent += base;
      out.push_back(rec);
    }
  }
  return out;
}

std::map<std::string, LayerTotal> Tracer::reduce(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> childUs(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      childUs[static_cast<std::size_t>(s.parent)] += s.endUs - s.startUs;
    }
  }
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].endUs - spans[i].startUs;
    LayerTotal& t = out[spans[i].name];
    ++t.spans;
    t.totalUs += dur;
    t.selfUs += dur - childUs[i];
    t.durationsUs.push_back(dur);
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::vector<SpanRecord>& spans,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    jepo::JsonWriter w;
    w.beginObject();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("ts", s.startUs);
    w.kv("dur", s.endUs - s.startUs);
    w.kv("pid", 1);
    w.kv("tid", static_cast<unsigned long>(s.thread));
    w.key("args");
    w.beginObject();
    w.kv("job", static_cast<unsigned long long>(s.job));
    w.kv("span", static_cast<unsigned long long>(i));
    w.kv("parent", static_cast<long long>(s.parent));
    w.endObject();
    w.endObject();
    std::fputs(w.str().c_str(), f);
    std::fputs(i + 1 < spans.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Tracer::Scope::Scope(const char* name, std::uint64_t job) {
  if (!enabled()) return;
  ThreadBuffer& b = localBuffer();
  index_ = static_cast<std::int64_t>(b.records.size());
  SpanRecord rec;
  rec.name = name;
  rec.job = job;
  rec.parent = b.open.empty() ? -1 : b.open.back();
  rec.thread = b.thread;
  rec.startUs = nowMicros();
  b.records.push_back(rec);
  b.open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuffer& b = localBuffer();
  b.records[static_cast<std::size_t>(index_)].endUs = nowMicros();
  b.open.pop_back();
}

}  // namespace perfbench
