#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace sabench {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<uint32_t> open;  // stack of open span ids
  uint64_t dropped = 0;
};

std::atomic<uint32_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
std::atomic<uint64_t> g_generation{0};

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local uint64_t generation = ~uint64_t{0};
  const uint64_t current = g_generation.load(std::memory_order_acquire);
  if (buffer == nullptr || generation != current) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
    buffer = fresh.get();
    generation = current;
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(fresh));
  }
  return *buffer;
}

// Span ids start at 1; 0 means "no parent".
uint32_t NextId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Record(const Span& span) {
  ThreadBuffer& b = Local();
  if (b.spans.size() >= Tracer::kMaxSpansPerThread) {
    ++b.dropped;
    return;
  }
  Span s = span;
  s.thread = b.thread;
  b.spans.push_back(s);
}

// Id of the innermost open span on the calling thread (0 when none).
uint32_t CurrentParent() {
  const ThreadBuffer& b = Local();
  return b.open.empty() ? 0 : b.open.back();
}

}  // namespace

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

uint64_t Tracer::dropped() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t total = 0;
  for (const auto& b : g_buffers) {
    total += b->dropped;
  }
  return total;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  // The generation bump makes every thread drop its cached buffer pointer
  // and register a fresh buffer on its next span. Callers guarantee no
  // thread is recording while the old buffers are freed.
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_buffers.clear();
}

ScopedSpan::ScopedSpan(bool active, Layer layer, const char* name, uint64_t request,
                       uint64_t work)
    : ScopedSpan(active, layer, name, active ? CurrentParent() : 0, request, work) {}

ScopedSpan::ScopedSpan(bool active, Layer layer, const char* name, uint32_t parent,
                       uint64_t request, uint64_t work)
    : active_(active) {
  if (!active_) {
    return;
  }
  span_.id = NextId();
  span_.parent = parent;
  span_.layer = layer;
  span_.name = name;
  span_.request = request;
  span_.work = work;
  Local().open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  std::vector<uint32_t>& open = Local().open;
  if (!open.empty()) {  // empty only if Clear() ran while this span was open
    open.pop_back();
  }
  Record(span_);
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu,\"work\":%llu}}",
                 first ? "" : ",", s.name, LayerName(s.layer), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.work));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace sabench
