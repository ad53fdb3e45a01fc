// Concurrent graph analytics over registry-held property arrays: the
// GraphSnapshot wrappers (BFS, connected components, triangle counting,
// degree centrality, PageRank) must agree with the serial plain-CSR
// references while the AdaptationDaemon restructures the five CSR slots —
// the snapshot-consistency contract DESIGN.md §4i spells out.
//
// Thread-safety note for the sanitizer CI lane: every test here uploads the
// graph slots FIRST and only then lets the daemon run, so the daemon's
// rebuild scans never overlap slot writes — traversals are read-only
// through epoch-pinned snapshots, which is the race-free production shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/concurrent.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/smart_graph.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "smart/restructure.h"
#include "sim/machine_spec.h"

namespace sa::graph {
namespace {

using runtime::AdaptationDaemon;
using runtime::ArrayRegistry;
using runtime::DaemonOptions;

// The §5.1 memory-bound streaming shape (same as the daemon tests): enough
// headroom that AdaptSlot deterministically publishes a restructure for a
// read-heavy slot.
adapt::WorkloadCounters MemBoundStreamingCounters(const adapt::MachineCaps& caps) {
  adapt::WorkloadCounters c;
  c.exec_current_per_socket = caps.exec_max_per_socket * 0.2;
  c.bw_current_memory = std::min(caps.bw_max_memory, 2 * caps.bw_max_interconnect) * 0.95;
  c.max_mem_utilization = 0.95;
  c.max_ic_utilization = 0.92;
  c.accesses_per_second = c.bw_current_memory * 2 / 8.0;
  c.elem_bytes = 8.0;
  c.dataset_bytes = 1e9;
  return c;
}

// Serial plain-CSR answers for every algorithm the snapshot wrappers run.
struct Reference {
  std::vector<uint64_t> bfs;
  std::vector<uint64_t> cc;
  uint64_t triangles = 0;
  std::vector<uint64_t> degree;
  PageRankResult pagerank;
};

Reference ComputeReference(const CsrGraph& csr, VertexId source) {
  Reference ref;
  if (csr.num_vertices() > 0) {
    ref.bfs = BfsLevels(csr, source);
    ref.pagerank = PageRank(csr);
  }
  ref.cc = ConnectedComponents(csr);
  ref.triangles = CountTriangles(csr);
  ref.degree = DegreeCentrality(csr);
  return ref;
}

class ConcurrentGraphTest : public ::testing::Test {
 protected:
  ConcurrentGraphTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        daemon_pool_(topo_, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false}),
        registry_(topo_),
        machine_(adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core())),
        costs_(adapt::ArrayCosts::FromCostModel(sim::CostModel::Default())) {}

  // The daemon rebuilds on its own pool: analytics own pool_, and one
  // WorkerPool cannot run two parallel regions at once (the production
  // service splits them the same way).
  AdaptationDaemon MakeDaemon(DaemonOptions options = {}) {
    return AdaptationDaemon(registry_, daemon_pool_, machine_, costs_, options);
  }

  // Pins a fresh snapshot per algorithm (so daemon publishes between runs
  // take effect) and checks all five answers against the reference.
  void ExpectMatchesReference(const RegistryCsrGraph& g, const CsrGraph& csr, VertexId source,
                              const Reference& ref, const std::string& label) {
    if (csr.num_vertices() > 0) {
      GraphSnapshot snapshot = g.Pin();
      ASSERT_TRUE(snapshot.valid()) << label;
      EXPECT_EQ(BfsLevels(pool_, snapshot, source, topo_), ref.bfs) << label;
      const PageRankResult pr = PageRank(pool_, snapshot, topo_);
      EXPECT_EQ(pr.iterations, ref.pagerank.iterations) << label;
      EXPECT_EQ(pr.ranks, ref.pagerank.ranks) << label;  // bitwise
      snapshot.Release();
    }
    GraphSnapshot snapshot = g.Pin();
    EXPECT_EQ(ConnectedComponents(pool_, snapshot, topo_), ref.cc) << label;
    EXPECT_EQ(CountTriangles(pool_, snapshot), ref.triangles) << label;
    EXPECT_EQ(DegreeCentrality(pool_, snapshot, topo_), ref.degree) << label;
    snapshot.Release();
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  rts::WorkerPool daemon_pool_;
  ArrayRegistry registry_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
};

// Every wrapper agrees with its serial reference across the Fig. 12
// representation tiers and NUMA placements, on uniform and power-law
// topologies — before any daemon gets involved.
TEST_F(ConcurrentGraphTest, MatchesSerialReferencesAcrossRepresentations) {
  using smart::PlacementSpec;
  struct GraphCase {
    const char* name;
    CsrGraph csr;
  };
  const GraphCase graphs[] = {
      {"uniform", UniformRandomGraph(/*num_vertices=*/401, /*out_degree=*/3, /*seed=*/11)},
      {"power-law", PowerLawGraph(/*num_vertices=*/301, /*num_edges=*/1500, /*alpha=*/0.7,
                                  /*seed=*/5)},
  };
  const struct {
    const char* tier;
    bool compress_indexes;
    bool compress_edges;
  } tiers[] = {{"U", false, false}, {"V", true, false}, {"V+E", true, true}};
  const PlacementSpec placements[] = {PlacementSpec::OsDefault(), PlacementSpec::Interleaved(),
                                      PlacementSpec::Replicated()};

  int upload = 0;
  for (const auto& graph_case : graphs) {
    const Reference ref = ComputeReference(graph_case.csr, /*source=*/0);
    for (const auto& tier : tiers) {
      for (const auto& placement : placements) {
        SmartGraphOptions options;
        options.placement = placement;
        options.compress_indexes = tier.compress_indexes;
        options.compress_edges = tier.compress_edges;
        RegistryCsrGraph g(registry_, "rep" + std::to_string(upload++), graph_case.csr, options);
        ExpectMatchesReference(g, graph_case.csr, /*source=*/0, ref,
                               std::string(graph_case.name) + " " + tier.tier + " " +
                                   ToString(placement));
      }
    }
  }
}

// Degenerate topologies the generators never emit: vertexless, edgeless,
// self-loops, zero-degree vertices, disconnected components. The compressed
// tier is the interesting one (1-bit-ish arrays, ragged chunk tails).
TEST_F(ConcurrentGraphTest, EdgeCaseGraphsMatchSerialReferences) {
  struct EdgeCase {
    const char* name;
    VertexId source;
    CsrGraph csr;
  };
  const EdgeCase cases[] = {
      {"vertexless", 0, CsrGraph::FromEdges(0, {})},
      {"edgeless", 3, CsrGraph::FromEdges(6, {})},
      {"self-loops", 0, CsrGraph::FromEdges(5, {{0, 0}, {1, 1}, {2, 0}, {0, 2}, {3, 4}})},
      {"disconnected", 1,
       CsrGraph::FromEdges(9, {{0, 1}, {1, 2}, {2, 0}, {5, 6}, {6, 5}, {6, 7}, {7, 5}})},
  };
  for (const auto& edge_case : cases) {
    const Reference ref = ComputeReference(edge_case.csr, edge_case.source);
    for (const bool compressed : {false, true}) {
      SmartGraphOptions options;
      options.compress_indexes = compressed;
      options.compress_edges = compressed;
      RegistryCsrGraph g(registry_,
                         std::string(edge_case.name) + (compressed ? ".ve" : ".u"),
                         edge_case.csr, options);
      ExpectMatchesReference(g, edge_case.csr, edge_case.source, ref,
                             std::string(edge_case.name) + (compressed ? " V+E" : " U"));
    }
  }
}

// Deterministic restructure: AdaptSlot with crafted mem-bound counters
// publishes new representations for the five slots; fresh pins observe the
// new versions (sequence_sum moves) and every answer is unchanged. This is
// the per-array divergence case — each slot narrows to ITS OWN data width,
// so begin/rbegin (offset-valued) and edge/redge (id-valued) come out at
// different widths and the kernels must not assume any two match.
TEST_F(ConcurrentGraphTest, DaemonRestructurePreservesAnswersAcrossPins) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/257, /*num_edges=*/1300, /*alpha=*/0.7,
                                     /*seed=*/3);
  const Reference ref = ComputeReference(csr, /*source=*/2);
  RegistryCsrGraph g(registry_, "adapt", csr, SmartGraphOptions{});  // U tier: room to narrow

  GraphSnapshot before = g.Pin();
  const uint64_t sum_before = before.sequence_sum();
  before.Release();
  ExpectMatchesReference(g, csr, /*source=*/2, ref, "pre-adaptation");

  AdaptationDaemon daemon = MakeDaemon();
  int published = 0;
  for (runtime::ArraySlot* slot : g.slots()) {
    published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
  }
  ASSERT_GT(published, 0);

  GraphSnapshot after = g.Pin();
  EXPECT_GT(after.sequence_sum(), sum_before);
  // The five slots adapted independently: offsets and vertex ids hold
  // different value ranges, so their minimal widths genuinely differ.
  const CsrView view = after.view();
  EXPECT_NE(view.begin_bits(), view.edge_bits());
  after.Release();

  ExpectMatchesReference(g, csr, /*source=*/2, ref, "post-adaptation");
}

// The forward and reverse target arrays at different widths: only the
// `edge` slot is restructured (narrowed to its data width and published
// directly), while `redge` keeps the upload's 32 bits. The triangle kernel
// decodes each array at its own width, so the count must not move.
TEST_F(ConcurrentGraphTest, TrianglesMatchWithEdgeAndRedgeAtDifferentWidths) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/513, /*num_edges=*/3000, /*alpha=*/0.7,
                                     /*seed=*/17);
  const uint64_t want = CountTriangles(csr);
  ASSERT_GT(want, 0u);
  RegistryCsrGraph g(registry_, "split", csr, SmartGraphOptions{});  // U tier: 32-bit ids

  runtime::ArraySlot* edge_slot = g.slots()[1];
  runtime::ArraySnapshot current = edge_slot->Acquire();
  std::unique_ptr<smart::SmartArray> narrowed =
      smart::Restructure(pool_, current.array(), current.array().placement(),
                         smart::MinimalBits(pool_, current.array()), topo_);
  current.Release();
  ASSERT_TRUE(registry_.Publish(*edge_slot, std::move(narrowed), edge_slot->write_count()));

  GraphSnapshot snapshot = g.Pin();
  const CsrView view = snapshot.view();
  EXPECT_LT(view.edge_bits(), 32u);
  EXPECT_EQ(view.redge_bits(), 32u);
  EXPECT_EQ(CountTriangles(pool_, snapshot), want);
  snapshot.Release();
}

// Only `redge` is narrowed, by a Restructure + Publish on another thread
// while PageRank and connected components keep pinning and running: the
// pull loop then reads rbegin at 64 bits and redge at its data width. Every
// run, before, during and after the publish, must match the references
// bitwise.
TEST_F(ConcurrentGraphTest, OnlyRedgeNarrowedMidRunKeepsAnswers) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/2100, /*num_edges=*/9000, /*alpha=*/0.7,
                                     /*seed=*/23);
  const Reference ref = ComputeReference(csr, /*source=*/0);
  RegistryCsrGraph g(registry_, "redge-only", csr, SmartGraphOptions{});  // U tier
  runtime::ArraySlot* redge_slot = g.slots()[3];

  std::atomic<bool> published{false};
  std::thread publisher([&] {
    runtime::ArraySnapshot current = redge_slot->Acquire();
    std::unique_ptr<smart::SmartArray> narrowed = smart::Restructure(
        daemon_pool_, current.array(), current.array().placement(),
        smart::MinimalBits(daemon_pool_, current.array()), topo_);
    current.Release();
    EXPECT_TRUE(registry_.Publish(*redge_slot, std::move(narrowed), redge_slot->write_count()));
    published.store(true);
  });
  int runs_after = 0;
  for (int run = 0; runs_after < 2; ++run) {
    const bool was_published = published.load();
    GraphSnapshot snapshot = g.Pin();
    EXPECT_EQ(PageRank(pool_, snapshot, topo_).ranks, ref.pagerank.ranks) << "run " << run;
    EXPECT_EQ(ConnectedComponents(pool_, snapshot, topo_), ref.cc) << "run " << run;
    snapshot.Release();
    runs_after += was_published ? 1 : 0;
  }
  publisher.join();

  GraphSnapshot snapshot = g.Pin();
  const CsrView view = snapshot.view();
  EXPECT_LT(view.redge_bits(), 32u);
  EXPECT_EQ(view.edge_bits(), 32u);
  EXPECT_EQ(view.rbegin_bits(), 64u);
  snapshot.Release();
}

// Snapshot pinning is what makes mid-traversal publishes invisible: results
// computed over a snapshot pinned BEFORE the restructure still match the
// references (the pinned versions stay alive and immutable), while a fresh
// pin sees the new representation. Regression cover for degree centrality
// and PageRank, which once read slot state outside the pinned path.
TEST_F(ConcurrentGraphTest, PinnedSnapshotSurvivesConcurrentPublish) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/240, /*out_degree=*/4, /*seed=*/9);
  const Reference ref = ComputeReference(csr, /*source=*/7);
  RegistryCsrGraph g(registry_, "pinned", csr, SmartGraphOptions{});
  // Read history first: the selector's §6.1 hints come from the slots'
  // lifetime counters, and a write-only slot never looks worth compressing.
  ExpectMatchesReference(g, csr, /*source=*/7, ref, "warmup");

  GraphSnapshot old_snapshot = g.Pin();
  const uint64_t old_sum = old_snapshot.sequence_sum();

  AdaptationDaemon daemon = MakeDaemon();
  int published = 0;
  for (runtime::ArraySlot* slot : g.slots()) {
    published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
  }
  ASSERT_GT(published, 0);

  // The old pin still reads the pre-publish representation, consistently.
  EXPECT_EQ(old_snapshot.sequence_sum(), old_sum);
  EXPECT_EQ(BfsLevels(pool_, old_snapshot, 7, topo_), ref.bfs);
  EXPECT_EQ(ConnectedComponents(pool_, old_snapshot, topo_), ref.cc);
  EXPECT_EQ(CountTriangles(pool_, old_snapshot), ref.triangles);
  EXPECT_EQ(DegreeCentrality(pool_, old_snapshot, topo_), ref.degree);
  EXPECT_EQ(PageRank(pool_, old_snapshot, topo_).ranks, ref.pagerank.ranks);
  old_snapshot.Release();

  GraphSnapshot fresh = g.Pin();
  EXPECT_GT(fresh.sequence_sum(), old_sum);
  fresh.Release();
  ExpectMatchesReference(g, csr, /*source=*/7, ref, "fresh pin");
}

// Released snapshots flush their per-array access tallies into the slots'
// workload counters — the channel the daemon adapts through. Different
// algorithms leave recognizably different mixes: degree centrality streams
// the offset arrays and never touches edges; connected components streams
// only the forward pair; PageRank streams the reverse pair and the degree
// property; triangle counting streams all four topology arrays. None of the
// batch-decoded kernels gathers from a slot at random.
TEST_F(ConcurrentGraphTest, AccessMixReachesSlotCounters) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/200, /*out_degree=*/3, /*seed=*/4);
  RegistryCsrGraph g(registry_, "mix", csr, SmartGraphOptions{});
  // Slot order: begin, edge, rbegin, redge, deg. Drop the upload's writes.
  const auto drain = [&] {
    std::vector<runtime::SlotSample> samples;
    for (runtime::ArraySlot* slot : g.slots()) {
      samples.push_back(slot->DrainSample());
    }
    return samples;
  };
  drain();

  GraphSnapshot snapshot = g.Pin();
  DegreeCentrality(pool_, snapshot, topo_);
  snapshot.Release();
  std::vector<runtime::SlotSample> s = drain();
  EXPECT_GE(s[0].sequential_reads, csr.num_vertices() + 1);
  EXPECT_EQ(s[0].random_reads, 0u);
  EXPECT_EQ(s[1].reads(), 0u);

  // Connected components: one pass over begin/edge, nothing else.
  snapshot = g.Pin();
  ConnectedComponents(pool_, snapshot, topo_);
  snapshot.Release();
  s = drain();
  EXPECT_EQ(s[0].sequential_reads, csr.num_vertices() + 1);
  EXPECT_EQ(s[1].sequential_reads, csr.num_edges());
  EXPECT_EQ(s[0].random_reads + s[1].random_reads, 0u);
  EXPECT_EQ(s[2].reads() + s[3].reads() + s[4].reads(), 0u);

  // PageRank: per iteration, the degree property streams with the ranks
  // and the reverse pair streams in the pull; the forward pair is unused.
  snapshot = g.Pin();
  const PageRankResult pr = PageRank(pool_, snapshot, topo_);
  snapshot.Release();
  s = drain();
  const uint64_t iters = static_cast<uint64_t>(pr.iterations);
  EXPECT_EQ(s[4].sequential_reads, iters * csr.num_vertices());
  EXPECT_EQ(s[4].random_reads, 0u);
  EXPECT_EQ(s[3].sequential_reads, iters * csr.num_edges());
  EXPECT_EQ(s[2].random_reads + s[3].random_reads, 0u);
  EXPECT_EQ(s[0].reads() + s[1].reads(), 0u);

  // Triangle counting streams both target arrays once and gathers nothing.
  snapshot = g.Pin();
  CountTriangles(pool_, snapshot);
  snapshot.Release();
  s = drain();
  EXPECT_GE(s[1].sequential_reads, csr.num_edges());
  EXPECT_EQ(s[1].random_reads, 0u);
  EXPECT_GE(s[3].sequential_reads, csr.num_edges());
  EXPECT_EQ(s[3].random_reads, 0u);
}

// RegistryCsrGraph seals its five slots after upload, so the daemon's §6.1
// hints treat the topology as read-only — without the seal the upload
// writes dominate the lifetime counters and replication/compression stay
// unreachable until ~20 read passes amortize them.
TEST_F(ConcurrentGraphTest, UploadSealsSlotsReadOnlyForAdaptationHints) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/64, /*out_degree=*/2, /*seed=*/1);
  RegistryCsrGraph g(registry_, "seal", csr, SmartGraphOptions{});
  for (runtime::ArraySlot* slot : g.slots()) {
    EXPECT_GT(slot->write_count(), 0u) << slot->name();
    EXPECT_EQ(slot->unsealed_write_count(), 0u) << slot->name();
    EXPECT_TRUE(AdaptationDaemon::HintsFor(*slot).read_only) << slot->name();
  }
  // A genuine post-upload write flips the hint back off.
  runtime::ArraySlot* begin_slot = g.slots()[0];
  begin_slot->Write(0, 0);
  EXPECT_EQ(begin_slot->unsealed_write_count(), 1u);
  EXPECT_FALSE(AdaptationDaemon::HintsFor(*begin_slot).read_only);
}

// The live-daemon soak (the TSan lane runs this): slots uploaded first,
// then the daemon's background workers restructure them with a hair-trigger
// configuration while the analytics loop pins/traverses/releases. Two
// graphs fed by different algorithm mixes, so the daemon sees genuinely
// divergent workloads. Every iteration must reproduce the serial answers.
TEST_F(ConcurrentGraphTest, LiveDaemonTraversalsStayConsistent) {
  const CsrGraph uniform =
      UniformRandomGraph(/*num_vertices=*/350, /*out_degree=*/4, /*seed=*/21);
  const CsrGraph skewed =
      PowerLawGraph(/*num_vertices=*/280, /*num_edges=*/1400, /*alpha=*/0.8, /*seed=*/13);
  const Reference uniform_ref = ComputeReference(uniform, /*source=*/0);
  const Reference skewed_ref = ComputeReference(skewed, /*source=*/1);

  SmartGraphOptions options;
  options.compress_indexes = true;  // start narrow so widening is also in play
  RegistryCsrGraph gu(registry_, "live.u", uniform, options);
  RegistryCsrGraph gs(registry_, "live.s", skewed, SmartGraphOptions{});

  DaemonOptions daemon_options;
  daemon_options.interval = std::chrono::milliseconds(1);
  daemon_options.min_predicted_win = -1.0;  // adapt on any predicted delta
  daemon_options.min_sampled_accesses = 32;
  daemon_options.num_workers = 2;
  AdaptationDaemon daemon = MakeDaemon(daemon_options);
  daemon.Start();

  for (int iter = 0; iter < 6; ++iter) {
    ExpectMatchesReference(gu, uniform, /*source=*/0, uniform_ref,
                           "uniform iter " + std::to_string(iter));
    ExpectMatchesReference(gs, skewed, /*source=*/1, skewed_ref,
                           "skewed iter " + std::to_string(iter));
  }

  daemon.Stop();
  EXPECT_GT(daemon.passes(), 0u);
  // One more sweep after the daemon quiesced, over whatever representations
  // it left behind.
  ExpectMatchesReference(gu, uniform, /*source=*/0, uniform_ref, "uniform post-stop");
  ExpectMatchesReference(gs, skewed, /*source=*/1, skewed_ref, "skewed post-stop");
}

}  // namespace
}  // namespace sa::graph
