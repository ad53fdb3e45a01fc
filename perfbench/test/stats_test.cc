// Tests of the benchmark's own statistics: the percentile rule (at least
// kMinBeyond samples beyond the reported percentile), self time from
// nested and cross-thread spans, and error-rate accounting.
// Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

sabench::Span MakeSpan(uint32_t id, uint32_t parent, uint32_t thread, sabench::Layer layer,
                       uint64_t start, uint64_t end) {
  sabench::Span s;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestPercentileRule() {
  using sabench::TailPercentile;
  // 1000 samples: p99 sits at rank 990 with exactly 10 samples beyond.
  auto p = TailPercentile(Ramp(1000), 99.0);
  CHECK(p.pct == 99.0 && p.value == 990.0 && p.beyond == 10 && p.samples == 1000);
  // 999 samples: p99 would leave 9 beyond, so p95 is reported.
  p = TailPercentile(Ramp(999), 99.0);
  CHECK(p.pct == 95.0 && p.value == 950.0 && p.beyond == 49);
  // p99.9 needs 10000 samples.
  p = TailPercentile(Ramp(10000), 99.9);
  CHECK(p.pct == 99.9 && p.value == 9990.0 && p.beyond == 10);
  p = TailPercentile(Ramp(9999), 99.9);
  CHECK(p.pct == 99.0);
  // The cap is respected even with plenty of samples.
  p = TailPercentile(Ramp(100000), 90.0);
  CHECK(p.pct == 90.0 && p.value == 90000.0);
  // 100 samples: p90 leaves exactly 10; 99 samples fall back to p75.
  p = TailPercentile(Ramp(100), 90.0);
  CHECK(p.pct == 90.0 && p.value == 90.0 && p.beyond == 10);
  p = TailPercentile(Ramp(99), 90.0);
  CHECK(p.pct == 75.0 && p.value == 75.0 && p.beyond == 24);
  // Too few samples for any percentile: pct 0, value is the median.
  p = TailPercentile(Ramp(15), 99.0);
  CHECK(p.pct == 0.0 && p.value == 8.0);
  p = TailPercentile({}, 99.0);
  CHECK(p.pct == 0.0 && p.samples == 0);
  CHECK(sabench::Median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(sabench::Median({4.0, 1.0, 3.0, 2.0}) == 2.0);
  CHECK(sabench::Median({}) == 0.0);
}

void TestSelfTimes() {
  using sabench::Layer;
  // root [0,100) on thread 1 with children A [10,40) and B [30,60) that
  // overlap; A has its own child [15,20); C runs on thread 2 [50,90) under
  // root; D's parent is unknown, so D is a root.
  std::vector<sabench::Span> spans = {
      MakeSpan(1, 0, 1, Layer::kBench, 0, 100),    MakeSpan(2, 1, 1, Layer::kRuntime, 10, 40),
      MakeSpan(3, 1, 1, Layer::kRts, 30, 60),      MakeSpan(4, 2, 1, Layer::kSmart, 15, 20),
      MakeSpan(5, 1, 2, Layer::kSmart, 50, 90),    MakeSpan(6, 99, 2, Layer::kTable, 95, 99),
  };
  const sabench::SelfTimes self = sabench::ComputeSelfTimes(spans);
  CHECK(self.span_self_ns[0] == 20);  // 100 - |[10,90)|
  CHECK(self.span_self_ns[1] == 25);  // 30 - 5
  CHECK(self.span_self_ns[2] == 30);
  CHECK(self.span_self_ns[3] == 5);
  CHECK(self.span_self_ns[4] == 40);
  CHECK(self.span_self_ns[5] == 4);
  CHECK(self.layer_self_ns[static_cast<int>(Layer::kSmart)] == 45);
  CHECK(self.layer_self_ns[static_cast<int>(Layer::kGraph)] == 0);
  // Per thread, self time never exceeds the thread's wall time.
  CHECK(self.thread_self_ns.at(1) == 80 && self.thread_self_ns.at(1) <= 100);
  CHECK(self.thread_self_ns.at(2) == 44);
  // A child sticking out of its parent only covers the parent's part.
  spans = {MakeSpan(1, 0, 1, Layer::kBench, 100, 200), MakeSpan(2, 1, 2, Layer::kRts, 150, 400)};
  CHECK(sabench::ComputeSelfTimes(spans).span_self_ns[0] == 50);
  // Children covering the whole parent leave zero, never a wrapped value.
  spans = {MakeSpan(1, 0, 1, Layer::kBench, 0, 10), MakeSpan(2, 1, 2, Layer::kRts, 0, 10),
           MakeSpan(3, 1, 3, Layer::kRts, 0, 10)};
  CHECK(sabench::ComputeSelfTimes(spans).span_self_ns[0] == 0);
}

void TestErrorRate() {
  sabench::OpTally t;
  CHECK(t.error_rate() == 0.0);
  t.attempted = 200;
  t.wrong = 1;
  t.rejected = 2;  // refused by the program counts as an error too
  t.failed = 1;
  CHECK(t.errors() == 4);
  CHECK(std::fabs(t.error_rate() - 0.02) < 1e-12);
  sabench::OpTally u;
  u.attempted = 50;
  u.rejected = 1;
  t.Add(u);
  CHECK(t.attempted == 250 && t.rejected == 3 && t.errors() == 5);
  CHECK(std::fabs(t.error_rate() - 0.02) < 1e-12);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTimes();
  TestErrorRate();
  if (g_failures == 0) std::printf("sabench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
