// Shared plumbing of the three workloads: options, the report every
// workload fills, the measurement window, and readers for the program's
// telemetry (only through its public C-ABI).
#ifndef SABENCH_BENCH_H_
#define SABENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace sabench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  // Workload-independent end-to-end figures (the JSON of untraced runs).
  std::vector<Metric> e2e;
  // The same figures under their workload-specific names, for people.
  std::vector<Metric> named;
  // Per-layer figures (the JSON of traced runs).
  std::vector<Metric> layer;
  OpTally ops;
  // Why the run is not correct (empty when every answer matched).
  std::vector<std::string> problems;
  // Workload facts recorded with the run metadata.
  std::vector<std::pair<std::string, std::string>> meta;
  // Storage widths the workload's arrays used (for the kernel table).
  std::vector<uint32_t> widths;
  double warmup_s = 0.0;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Problem(std::string what) { problems.push_back(std::move(what)); }
};

// The timed window. A traced run alternates untraced and traced slices of
// `slice_s` seconds, so one process measures both and the tracing overhead
// is their throughput ratio; an untraced run is one untraced slice.
class Window {
 public:
  Window(double seconds, bool trace, double slice_s);

  uint64_t start_ns() const { return start_ns_; }
  bool done(uint64_t now_ns) const { return now_ns >= end_ns_; }
  // Whether an operation starting at `now_ns` runs traced.
  bool traced(uint64_t now_ns) const;
  // Slice an operation starting at `now_ns` belongs to (also the
  // throughput bucket of untraced runs).
  size_t slice(uint64_t now_ns) const { return (now_ns - start_ns_) / slice_ns_; }
  size_t num_slices() const { return (end_ns_ - start_ns_ + slice_ns_ - 1) / slice_ns_; }
  double seconds() const { return static_cast<double>(end_ns_ - start_ns_) / 1e9; }

 private:
  uint64_t start_ns_;
  uint64_t end_ns_;
  bool trace_;
  uint64_t slice_ns_;
};

// Operations of one mode (traced or untraced): every latency, and per
// window slice the operations started and their summed latency.
struct ModeSamples {
  std::vector<double> latency_ms;
  std::vector<uint64_t> slice_ops;
  std::vector<double> slice_busy_ms;

  void Add(const Window& window, uint64_t start_ns, uint64_t end_ns);
  void Merge(const ModeSamples& other);
};

// How a workload names its latency figures for people: the throughput
// name (nullptr when the workload has none), the median and tail names,
// their unit and its size in milliseconds, and the highest tail percentile.
struct LatencyNames {
  const char* throughput;
  const char* median;
  const char* tail;
  const char* unit;
  double unit_ms;
  double tail_max_pct;
};

// How ops_per_s summarises the window's slices.
enum class Rate {
  // Median over slices of ops x streams / busy time: a burst of
  // interference from outside the process moves a few slices rather than
  // the whole figure. For workloads in a steady state from the start.
  kSliceMedian,
  // All ops x streams / all busy time: every slice counts, so a workload
  // that changes during the window (the daemon converging) shows both
  // phases.
  kWholeRun,
};

// Fills ops_per_s, p50_ms and tail_ms (plus their named twins) from the
// untraced samples, and bench.trace_overhead in a traced run. `streams` is
// the number of closed-loop clients.
void ReportThroughput(bool trace, ModeSamples untraced, const ModeSamples& traced, int streams,
                      Rate rate, const LatencyNames& names, Report& report);

class Workload {
 public:
  virtual ~Workload() = default;
  // Generation, upload, oracles and warm-up: everything setup_s charges.
  virtual void Setup(Report& report) = 0;
  // The timed window.
  virtual void Measure(const Window& window, Report& report) = 0;
};

std::unique_ptr<Workload> MakeScan(const Options& options);
std::unique_ptr<Workload> MakeServe(const Options& options);
std::unique_ptr<Workload> MakeGraph(const Options& options);

// ---- the program's telemetry, read through its C-ABI ----

uint64_t Counter(const char* name);

// Counter deltas over a window.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<const char*> names);
  // Delta of names[i] since construction.
  uint64_t operator()(size_t i) const;

 private:
  std::vector<const char*> names_;
  std::vector<uint64_t> base_;
};

// Histogram bucket deltas over a window (buckets as in SaObsHistogramEntry).
class HistogramDelta {
 public:
  explicit HistogramDelta(const char* name);
  // Median of the values recorded since construction, resolved to the
  // geometric middle of its power-of-two bucket; 0 when nothing was recorded.
  double Median() const;

 private:
  std::vector<uint64_t> Buckets() const;
  const char* name_;
  std::vector<uint64_t> base_;
};

// Drains the adaptation trace ring and keeps what the per-layer metrics
// need: restructure wall times and decision outcomes.
struct RingStats {
  std::vector<double> restructure_ms;
  uint64_t decisions = 0;
  uint64_t accepted = 0;
  void Drain();
};

// Per-layer self time per traced operation (one root span of the bench
// layer each), and the largest per-thread share of the window wall time
// that self time covers (must not exceed 1).
void ReportSelfTimes(const std::vector<Span>& spans, double window_s, Report& report);

// Sum of span durations and work over spans named `name`.
struct SpanTotals {
  uint64_t ns = 0;
  uint64_t work = 0;
  std::vector<double> durations_ms;
};
SpanTotals TotalsOf(const std::vector<Span>& spans, const char* name);

// runtime.acquire_p50_ns / runtime.acquire_p99_ns from "acquire" spans.
void ReportAcquire(SpanTotals acquire, Report& report);

// Writes the traced run's spans as Chrome-trace JSON into
// options.trace_dir and records the file in the run metadata.
void WriteTrace(const Options& options, const std::vector<Span>& spans, Report& report);

// splitmix64 of (seed, stream, index): the stateless generator every
// workload derives its inputs from, so oracles can regenerate any value.
uint64_t Hash3(uint64_t seed, uint64_t stream, uint64_t index);

}  // namespace sabench

#endif  // SABENCH_BENCH_H_
