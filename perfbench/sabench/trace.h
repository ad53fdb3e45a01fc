// In-memory span recorder for the traced run. Spans are taken only in the
// benchmark's own code, around each call into a layer; nothing inside the
// program under test is instrumented. Recording is off unless a span is
// constructed with `active` true, so the untraced run pays one branch.
#ifndef SABENCH_TRACE_H_
#define SABENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace sabench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Per-thread span buffers; a thread's buffer is created on its first span
// and lives until Clear(). Spans past kMaxSpansPerThread are counted as
// dropped instead of recorded, which bounds the recorder's memory.
class Tracer {
 public:
  static constexpr size_t kMaxSpansPerThread = 1 << 19;

  // Every recorded span, all threads. Call only while no span is open.
  static std::vector<Span> Collect();
  static uint64_t dropped();
  static void Clear();
};

// RAII span. With `active` false it records nothing. The parent defaults to
// the innermost open span of this thread; pass `parent` explicitly for a
// child that runs on another thread (a ParallelFor body).
class ScopedSpan {
 public:
  ScopedSpan(bool active, Layer layer, const char* name, uint64_t request = 0,
             uint64_t work = 0);
  ScopedSpan(bool active, Layer layer, const char* name, uint32_t parent, uint64_t request,
             uint64_t work);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  bool active_;
  Span span_;
};

// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
// loadable in Perfetto or chrome://tracing. Returns false when the file
// cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace sabench

#endif  // SABENCH_TRACE_H_
