#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "obs/entry_points.h"
#include "obs/trace.h"

namespace sabench {

Window::Window(double seconds, bool trace, double slice_s)
    : start_ns_(NowNs()),
      end_ns_(start_ns_ + static_cast<uint64_t>(seconds * 1e9)),
      trace_(trace),
      slice_ns_(static_cast<uint64_t>(slice_s * 1e9)) {}

bool Window::traced(uint64_t now_ns) const {
  if (!trace_) {
    return false;
  }
  return ((now_ns - start_ns_) / slice_ns_) % 2 == 1;
}

void ModeSamples::Add(const Window& window, uint64_t start_ns, uint64_t end_ns) {
  const double ms = static_cast<double>(end_ns - start_ns) / 1e6;
  latency_ms.push_back(ms);
  const size_t slice = window.slice(start_ns);
  if (slice >= slice_ops.size()) {
    slice_ops.resize(window.num_slices(), 0);
    slice_busy_ms.resize(window.num_slices(), 0.0);
  }
  ++slice_ops[slice];
  slice_busy_ms[slice] += ms;
}

void ModeSamples::Merge(const ModeSamples& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  slice_ops.resize(std::max(slice_ops.size(), other.slice_ops.size()), 0);
  slice_busy_ms.resize(slice_ops.size(), 0.0);
  for (size_t i = 0; i < other.slice_ops.size(); ++i) {
    slice_ops[i] += other.slice_ops[i];
    slice_busy_ms[i] += other.slice_busy_ms[i];
  }
}

namespace {

double SliceRate(const ModeSamples& m, int streams, Rate rate) {
  std::vector<double> rates;
  uint64_t ops = 0;
  double busy_ms = 0.0;
  for (size_t i = 0; i < m.slice_ops.size(); ++i) {
    if (m.slice_ops[i] != 0 && m.slice_busy_ms[i] > 0.0) {
      rates.push_back(static_cast<double>(m.slice_ops[i]) * streams * 1e3 / m.slice_busy_ms[i]);
      ops += m.slice_ops[i];
      busy_ms += m.slice_busy_ms[i];
    }
  }
  if (rate == Rate::kWholeRun) {
    return busy_ms > 0.0 ? static_cast<double>(ops) * streams * 1e3 / busy_ms : 0.0;
  }
  return Median(std::move(rates));
}

}  // namespace

void ReportThroughput(bool trace, ModeSamples untraced, const ModeSamples& traced, int streams,
                      Rate rate, const LatencyNames& names, Report& report) {
  const double ops_per_s = SliceRate(untraced, streams, rate);
  std::sort(untraced.latency_ms.begin(), untraced.latency_ms.end());
  const double median = untraced.latency_ms.empty() ? 0.0
                                                     : NearestRank(untraced.latency_ms, 50.0);
  const Percentile tail = TailPercentile(untraced.latency_ms, names.tail_max_pct);
  report.E2e("ops_per_s", ops_per_s, "1/s");
  report.E2e("p50_ms", median, "ms");
  report.E2e("tail_ms", tail.value, "ms");
  if (names.throughput != nullptr) {
    report.Named(names.throughput, ops_per_s, "1/s");
  }
  report.Named(names.median, median / names.unit_ms, names.unit);
  report.Named(names.tail, tail.value / names.unit_ms, names.unit);
  report.meta.emplace_back("latency_samples", std::to_string(tail.samples));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g (%llu samples beyond)", tail.pct,
                static_cast<unsigned long long>(tail.beyond));
  report.meta.emplace_back("tail_percentile", buf);
  if (trace) {
    report.Layer("bench.trace_overhead",
                 ops_per_s > 0 ? SliceRate(traced, streams, rate) / ops_per_s : 0.0, "x");
  }
}

uint64_t Counter(const char* name) { return saObsCounterByName(name); }

CounterDelta::CounterDelta(std::vector<const char*> names) : names_(std::move(names)) {
  for (const char* n : names_) {
    base_.push_back(Counter(n));
  }
}

uint64_t CounterDelta::operator()(size_t i) const { return Counter(names_[i]) - base_[i]; }

HistogramDelta::HistogramDelta(const char* name) : name_(name), base_(Buckets()) {}

std::vector<uint64_t> HistogramDelta::Buckets() const {
  std::vector<uint64_t> out(65, 0);
  const int n = saObsHistograms(nullptr, 0);
  std::vector<SaObsHistogramEntry> all(static_cast<size_t>(n));
  const int got = saObsHistograms(all.data(), n);
  for (int i = 0; i < std::min(n, got); ++i) {
    if (std::strcmp(all[i].name, name_) == 0) {
      std::copy(std::begin(all[i].buckets), std::end(all[i].buckets), out.begin());
    }
  }
  return out;
}

double HistogramDelta::Median() const {
  const std::vector<uint64_t> now = Buckets();
  uint64_t total = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    total += now[i] - base_[i];
  }
  if (total == 0) {
    return 0.0;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    seen += now[i] - base_[i];
    if (2 * seen >= total) {
      // Bucket i >= 1 holds [2^(i-1), 2^i).
      return i == 0 ? 0.0 : std::ldexp(std::sqrt(2.0), static_cast<int>(i) - 1);
    }
  }
  return 0.0;
}

void RingStats::Drain() {
  SaObsTraceEvent events[256];
  while (true) {
    const int n = saObsTraceDrain(events, 256);
    for (int i = 0; i < n; ++i) {
      const SaObsTraceEvent& e = events[i];
      switch (e.kind) {
        case sa::obs::kTraceRestructureEnd:
          restructure_ms.push_back(static_cast<double>(e.a) / 1e6);
          break;
        case sa::obs::kTraceDecision:
          ++decisions;
          accepted += (e.c & 0xff) == sa::obs::kDecisionAccepted ? 1 : 0;
          break;
        case sa::obs::kTraceFlapHold:
          ++decisions;
          break;
        default:
          break;
      }
    }
    if (n < 256) {
      return;
    }
  }
}

void ReportSelfTimes(const std::vector<Span>& spans, double window_s, Report& report) {
  const SelfTimes self = ComputeSelfTimes(spans);
  uint64_t roots = 0;
  for (const Span& s : spans) {
    roots += s.parent == 0 && s.layer == Layer::kBench ? 1 : 0;
  }
  const double ops = static_cast<double>(std::max<uint64_t>(roots, 1));
  for (int l = 0; l < kNumLayers; ++l) {
    report.Layer(std::string("self_us_per_op.") + LayerName(static_cast<Layer>(l)),
                 static_cast<double>(self.layer_self_ns[l]) / 1e3 / ops, "us");
  }
  uint64_t worst = 0;
  for (const auto& [thread, ns] : self.thread_self_ns) {
    worst = std::max(worst, ns);
  }
  const double share = static_cast<double>(worst) / (window_s * 1e9);
  report.Layer("bench.self_over_wall", share, "frac");
  if (share > 1.0) {
    report.Problem("per-thread self time exceeds wall time");
  }
}

SpanTotals TotalsOf(const std::vector<Span>& spans, const char* name) {
  SpanTotals t;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      t.ns += s.duration_ns();
      t.work += s.work;
      t.durations_ms.push_back(static_cast<double>(s.duration_ns()) / 1e6);
    }
  }
  return t;
}

void ReportAcquire(SpanTotals acquire, Report& report) {
  std::vector<double>& ms = acquire.durations_ms;
  std::sort(ms.begin(), ms.end());
  report.Layer("runtime.acquire_p50_ns", ms.empty() ? 0.0 : NearestRank(ms, 50.0) * 1e6, "ns");
  report.Layer("runtime.acquire_p99_ns", TailPercentile(ms, 99.0).value * 1e6, "ns");
}

void WriteTrace(const Options& options, const std::vector<Span>& spans, Report& report) {
  const std::string path = options.trace_dir + "/trace-" + options.workload + ".json";
  if (WriteChromeTrace(path, spans)) {
    report.meta.emplace_back("chrome_trace", path);
  } else {
    report.Problem("cannot write " + path);
  }
  report.meta.emplace_back("spans", std::to_string(spans.size()));
  report.meta.emplace_back("spans_dropped", std::to_string(Tracer::dropped()));
}

uint64_t Hash3(uint64_t seed, uint64_t stream, uint64_t index) {
  return sa::SplitMix64(sa::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream) ^ index);
}

}  // namespace sabench
