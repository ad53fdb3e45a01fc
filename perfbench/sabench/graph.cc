// graph: PGX-style analytics over registry-held CSR graphs with the
// daemon live. A uniform and a power-law graph are uploaded into
// RegistryCsrGraph during set-up; each pass pins a GraphSnapshot of each
// and runs BFS, connected components, PageRank (fixed iteration count),
// degree centrality and triangle counting on the pool, checking every
// answer against serial references computed at set-up.
#include <algorithm>
#include <array>

#include "bench.h"
#include "graph/concurrent.h"
#include "graph/generators.h"
#include "platform/topology.h"
#include "rts/parallel_for.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"
#include "smart/parallel_ops.h"

namespace sabench {
namespace {

namespace g = sa::graph;

constexpr int kAlgos = 5;
constexpr const char* kAlgoNames[kAlgos] = {"bfs", "cc", "pagerank", "degree", "triangles"};
constexpr const char* kGraphNames[2] = {"uniform", "powerlaw"};
// Span names "<algo>.<graph>" (span names must outlive the recorder).
constexpr const char* kSpanNames[2][kAlgos] = {
    {"bfs.uniform", "cc.uniform", "pagerank.uniform", "degree.uniform", "triangles.uniform"},
    {"bfs.powerlaw", "cc.powerlaw", "pagerank.powerlaw", "degree.powerlaw",
     "triangles.powerlaw"}};
// Warm-up: passes with the daemon live for at least kMinWarmSeconds, then
// until it has not adapted for kQuietSeconds (three daemon intervals), at
// most kMaxWarmSeconds.
constexpr double kMinWarmSeconds = 1.0;
constexpr double kQuietSeconds = 0.75;
constexpr double kMaxWarmSeconds = 8.0;
constexpr auto kDaemonInterval = std::chrono::milliseconds(250);
constexpr int kSpeedupReps = 3;
constexpr int kRegionProbes = 200;

struct GraphCase {
  g::CsrGraph csr;
  std::unique_ptr<g::RegistryCsrGraph> reg;
  uint32_t source = 0;
  std::vector<uint64_t> bfs;
  std::vector<uint64_t> cc;
  g::PageRankResult pagerank;
  std::vector<uint64_t> degree;
  uint64_t triangles = 0;
};

class Graph final : public Workload {
 public:
  explicit Graph(const Options& options) : options_(options) {}
  ~Graph() override {
    if (daemon_ != nullptr) daemon_->Stop();
  }

  void Setup(Report& report) override;
  void Measure(const Window& window, Report& report) override;

 private:
  // One algorithm on a pinned snapshot; true when it matches the reference.
  bool RunAlgo(sa::rts::WorkerPool& pool, GraphCase& gc, g::GraphSnapshot& snap, int algo);
  // One pass over both graphs; returns the number of wrong answers.
  int Pass(bool traced, uint64_t request);
  size_t RetiredDebt() const;

  Options options_;
  sa::platform::Topology topo_ = sa::platform::Topology::Host();
  std::unique_ptr<sa::rts::WorkerPool> pool_;
  std::unique_ptr<sa::rts::WorkerPool> daemon_pool_;
  std::unique_ptr<sa::runtime::ArrayRegistry> registry_;
  std::unique_ptr<sa::runtime::AdaptationDaemon> daemon_;
  std::array<GraphCase, 2> graphs_;
  g::PageRankOptions pagerank_options_;
  // Adaptation telemetry from the daemon's start (the last set-up's
  // warm-up) to the end of the window.
  RingStats ring_;
  std::unique_ptr<HistogramDelta> calibration_;
  uint64_t daemon_start_ns_ = 0;
  uint64_t last_adaptation_ns_ = 0;
  uint64_t adaptations_seen_ = 0;
};

bool Graph::RunAlgo(sa::rts::WorkerPool& pool, GraphCase& gc, g::GraphSnapshot& snap, int algo) {
  switch (algo) {
    case 0:
      return g::BfsLevels(pool, snap, gc.source, topo_) == gc.bfs;
    case 1:
      return g::ConnectedComponents(pool, snap, topo_) == gc.cc;
    case 2: {
      const g::PageRankResult pr = g::PageRank(pool, snap, topo_, pagerank_options_);
      return pr.iterations == gc.pagerank.iterations && pr.ranks == gc.pagerank.ranks;
    }
    case 3:
      return g::DegreeCentrality(pool, snap, topo_) == gc.degree;
    default:
      return g::CountTriangles(pool, snap) == gc.triangles;
  }
}

int Graph::Pass(bool traced, uint64_t request) {
  ScopedSpan root(traced, Layer::kBench, "pass", request);
  int wrong = 0;
  for (int gi = 0; gi < 2; ++gi) {
    GraphCase& gc = graphs_[gi];
    g::GraphSnapshot snap;
    {
      ScopedSpan span(traced, Layer::kRuntime, "pin", request);
      snap = gc.reg->Pin();
    }
    for (int a = 0; a < kAlgos; ++a) {
      ScopedSpan span(traced, Layer::kGraph, kSpanNames[gi][a], request,
                      snap.num_edges());
      wrong += RunAlgo(*pool_, gc, snap, a) ? 0 : 1;
    }
    snap.Release();  // flushes the pass's access mix into the slots
  }
  if (daemon_ != nullptr && daemon_->adaptations() != adaptations_seen_) {
    adaptations_seen_ = daemon_->adaptations();
    last_adaptation_ns_ = NowNs();
  }
  return wrong;
}

size_t Graph::RetiredDebt() const {
  size_t debt = 0;
  for (int s = 0; s < registry_->num_shards(); ++s) debt += registry_->shard_retired(s);
  return debt;
}

void Graph::Setup(Report& report) {
  const int workers = std::max(1, options_.nproc - 1);  // the daemon takes one
  pool_ = std::make_unique<sa::rts::WorkerPool>(
      topo_, sa::rts::WorkerPool::Options{.num_threads = workers, .pin_threads = true});
  daemon_pool_ = std::make_unique<sa::rts::WorkerPool>(
      topo_, sa::rts::WorkerPool::Options{.num_threads = 1, .pin_threads = false});
  registry_ = std::make_unique<sa::runtime::ArrayRegistry>(topo_);
  pagerank_options_.tolerance = 0.0;  // always the full iteration count
  pagerank_options_.max_iterations = 5;

  graphs_[0].csr = g::UniformRandomGraph(1 << 17, 4, options_.seed);
  graphs_[1].csr = g::PowerLawGraph(1 << 16, 1 << 17, 0.7, options_.seed ^ 0x9e37);
  for (int gi = 0; gi < 2; ++gi) {
    GraphCase& gc = graphs_[gi];
    // BFS starts at the vertex of highest out-degree, so every seed's
    // traversal covers the giant component instead of a random fringe.
    for (uint32_t v = 1; v < gc.csr.num_vertices(); ++v) {
      if (gc.csr.OutDegree(v) > gc.csr.OutDegree(gc.source)) gc.source = v;
    }
    gc.bfs = g::BfsLevels(gc.csr, gc.source);
    gc.cc = g::ConnectedComponents(gc.csr);
    gc.pagerank = g::PageRank(gc.csr, pagerank_options_);
    gc.degree = g::DegreeCentrality(gc.csr);
    gc.triangles = g::CountTriangles(gc.csr);
    // Uploaded uncompressed and interleaved: the daemon owns the layout.
    gc.reg = std::make_unique<g::RegistryCsrGraph>(*registry_, std::string("graph.") + kGraphNames[gi],
                                                   gc.csr, g::SmartGraphOptions{});
    for (sa::runtime::ArraySlot* slot : gc.reg->slots()) slot->DrainSample();
  }
  report.meta.emplace_back("graph_uniform", std::to_string(graphs_[0].csr.num_vertices()) + "v/" +
                                                std::to_string(graphs_[0].csr.num_edges()) + "e");
  report.meta.emplace_back("graph_powerlaw", std::to_string(graphs_[1].csr.num_vertices()) + "v/" +
                                                 std::to_string(graphs_[1].csr.num_edges()) + "e");
  report.meta.emplace_back("pool_workers", std::to_string(workers));

  sa::runtime::DaemonOptions daemon_options;
  daemon_options.interval = kDaemonInterval;
  daemon_options.num_workers = 1;
  daemon_ = std::make_unique<sa::runtime::AdaptationDaemon>(
      *registry_, *daemon_pool_,
      // The paper's machine, as the registry C-ABI defaults to: graph
      // traffic on this scale is far from memory-bound there, so the daemon
      // keeps the upload layout instead of flipping on sampling noise.
      sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core()),
      sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()), daemon_options);

  // Warm-up: passes with the daemon live until it converges (first touch,
  // kernel-table calibration, the daemon's restructures).
  ring_ = RingStats{};
  ring_.Drain();
  ring_ = RingStats{};
  calibration_ = std::make_unique<HistogramDelta>("sa_daemon_calibration_error_ppm");
  const uint64_t warm_start = NowNs();
  daemon_start_ns_ = warm_start;
  last_adaptation_ns_ = warm_start;
  adaptations_seen_ = 0;
  daemon_->Start();
  int passes = 0;
  while (true) {
    if (Pass(false, 0) != 0) report.Problem("warm-up pass answer mismatch");
    ring_.Drain();
    ++passes;
    const uint64_t now = NowNs();
    const double elapsed = static_cast<double>(now - warm_start) / 1e9;
    const double quiet = static_cast<double>(now - last_adaptation_ns_) / 1e9;
    if (elapsed >= kMaxWarmSeconds || (elapsed >= kMinWarmSeconds && quiet >= kQuietSeconds)) {
      break;
    }
  }
  report.warmup_s = static_cast<double>(NowNs() - warm_start) / 1e9;
  report.meta.emplace_back("warmup_passes", std::to_string(passes));
  report.meta.emplace_back("warmup_adaptations", std::to_string(daemon_->adaptations()));
  report.widths = {64, 32};
  for (const GraphCase& gc : graphs_) {
    for (const sa::runtime::ArraySlot* slot : gc.reg->slots()) report.widths.push_back(slot->bits());
  }
  std::sort(report.widths.begin(), report.widths.end());
  report.widths.erase(std::unique(report.widths.begin(), report.widths.end()), report.widths.end());
}

void Graph::Measure(const Window& window, Report& report) {
  CounterDelta counters({"sa_parallel_for_batches_total", "sa_parallel_for_steals_total",
                         "sa_publish_lost_writes_total", "sa_daemon_backpressure_drops_total"});
  std::array<ModeSamples, 2> modes;
  size_t debt_peak = RetiredDebt();
  const uint64_t adaptations_before = daemon_->adaptations();
  uint64_t request = 0;
  for (uint64_t now = NowNs(); !window.done(now); now = NowNs()) {
    const bool traced = window.traced(now);
    const int wrong = Pass(traced, ++request);
    const uint64_t end = NowNs();
    report.ops.attempted += 2 * kAlgos;
    report.ops.wrong += static_cast<uint64_t>(wrong);
    if (wrong != 0 && report.problems.size() < 4) report.Problem("graph answer mismatch");
    modes[traced ? 1 : 0].Add(window, now, end);
    debt_peak = std::max(debt_peak, RetiredDebt());
    ring_.Drain();
  }
  daemon_->Stop();
  ring_.Drain();

  uint64_t footprint = 0;
  uint64_t values = 0;
  for (const GraphCase& gc : graphs_) {
    for (sa::runtime::ArraySlot* slot : gc.reg->slots()) {
      footprint += slot->Acquire().array().footprint_bytes();
      values += slot->length();
    }
  }
  const double bytes_per_value = static_cast<double>(footprint) / static_cast<double>(values);
  ReportThroughput(options_.trace, std::move(modes[0]), modes[1], 1, Rate::kSliceMedian,
                   {nullptr, "graph_pass_s", "graph_pass_p90_s", "s", 1e3, 90.0}, report);
  report.E2e("bytes_per_value", bytes_per_value, "B");
  report.Named("bytes_per_value", bytes_per_value, "B");
  report.meta.emplace_back("window_adaptations",
                           std::to_string(daemon_->adaptations() - adaptations_before));
  if (!options_.trace) return;

  const std::vector<Span> window_spans = Tracer::Collect();
  ReportSelfTimes(window_spans, window.seconds(), report);
  for (int gi = 0; gi < 2; ++gi) {
    for (int a = 0; a < kAlgos; ++a) {
      report.Layer(std::string("graph.") + kAlgoNames[a] + "_s." + kGraphNames[gi],
                   Median(TotalsOf(window_spans, kSpanNames[gi][a]).durations_ms) / 1e3, "s");
    }
  }
  report.Layer("graph.snapshot_pin_us", Median(TotalsOf(window_spans, "pin").durations_ms) * 1e3,
               "us");
  report.Layer("rts.steal_frac",
               static_cast<double>(counters(1)) / std::max(1.0, static_cast<double>(counters(0))),
               "frac");
  report.Layer("smart.restructure_ms", Median(ring_.restructure_ms), "ms");
  report.Layer("runtime.retired_debt_peak", static_cast<double>(debt_peak), "count");
  report.Layer("runtime.publish_refusals", static_cast<double>(counters(2)), "count");
  report.Layer("daemon.adaptations", static_cast<double>(daemon_->adaptations()), "count");
  report.Layer("daemon.converge_s", static_cast<double>(last_adaptation_ns_ - daemon_start_ns_) / 1e9,
               "s");
  report.Layer("daemon.backpressure_drops", static_cast<double>(counters(3)), "count");
  report.Layer("adapt.accept_frac",
               static_cast<double>(ring_.accepted) /
                   std::max(1.0, static_cast<double>(ring_.decisions)),
               "frac");
  report.Layer("adapt.calibration_error_p50", calibration_->Median() / 1e6, "frac");
  WriteTrace(options_, window_spans, report);

  // Probes after the window, on one pinned snapshot per graph (the daemon
  // is stopped, so the layouts stay fixed):
  //  * rts.speedup: the same kernel on a one-worker pool vs the pool;
  //  * smart.unpack_range_gb_per_s: streaming decode of the edge arrays;
  //  * rts.region_overhead_us: self time of near-empty ParallelFor regions.
  Tracer::Clear();
  sa::rts::WorkerPool serial_pool(
      topo_, sa::rts::WorkerPool::Options{.num_threads = 1, .pin_threads = true});
  for (int gi = 0; gi < 2; ++gi) {
    GraphCase& gc = graphs_[gi];
    g::GraphSnapshot snap = gc.reg->Pin();
    for (int a = 0; a < kAlgos; ++a) {
      std::vector<double> serial_ms;
      std::vector<double> parallel_ms;
      for (int rep = 0; rep < kSpeedupReps; ++rep) {
        for (sa::rts::WorkerPool* pool : {&serial_pool, pool_.get()}) {
          const uint64_t t0 = NowNs();
          if (!RunAlgo(*pool, gc, snap, a)) report.Problem("speedup probe answer mismatch");
          (pool == &serial_pool ? serial_ms : parallel_ms)
              .push_back(static_cast<double>(NowNs() - t0) / 1e6);
        }
      }
      report.Layer(std::string("rts.speedup.") + kAlgoNames[a] + "." + kGraphNames[gi],
                   Median(serial_ms) / std::max(1e-9, Median(parallel_ms)), "x");
    }
    const sa::graph::CsrView view = snap.view();
    std::vector<uint64_t> buffer(view.num_edges);
    for (int rep = 0; rep < 8; ++rep) {
      for (const sa::smart::SmartArray* array : {view.edge, view.redge}) {
        ScopedSpan span(true, Layer::kSmart, "unpack_range", 0, view.num_edges * 8);
        sa::smart::UnpackRange(*array, 0, view.num_edges, buffer.data());
      }
    }
  }
  for (int p = 0; p < kRegionProbes; ++p) {
    ScopedSpan region(true, Layer::kRts, "parallel_for", 0);
    const uint32_t parent = region.id();
    sa::rts::ParallelFor(*pool_, 0, static_cast<uint64_t>(pool_->num_workers()), 1,
                         [&](int, uint64_t, uint64_t) {
                           ScopedSpan body(true, Layer::kBench, "body", parent, 0, 0);
                         });
  }
  const std::vector<Span> probes = Tracer::Collect();
  const SpanTotals unpack = TotalsOf(probes, "unpack_range");
  report.Layer("smart.unpack_range_gb_per_s",
               static_cast<double>(unpack.work) / static_cast<double>(std::max<uint64_t>(unpack.ns, 1)),
               "GB/s");
  const SelfTimes self = ComputeSelfTimes(probes);
  std::vector<double> region_us;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (std::string_view(probes[i].name) == "parallel_for") {
      region_us.push_back(static_cast<double>(self.span_self_ns[i]) / 1e3);
    }
  }
  report.Layer("rts.region_overhead_us", Median(region_us), "us");
}

}  // namespace

std::unique_ptr<Workload> MakeGraph(const Options& options) {
  return std::make_unique<Graph>(options);
}

}  // namespace sabench
