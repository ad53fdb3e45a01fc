// Differential tests of the batch-decoded graph kernels: union-find
// connected components and contribution-pull PageRank against the serial
// plain-CSR references, on the shapes that stress them — hook order,
// reverse-only links, degenerate edges, many components, components and
// vertex batches that straddle each other — across the Fig. 12
// representation tiers and every NUMA placement. PageRank must match the
// reference bitwise, not within a tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/adjacency_batch.h"
#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/generators.h"
#include "graph/smart_graph.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"

namespace sa::graph {
namespace {

using Edges = std::vector<std::pair<VertexId, VertexId>>;

// Spans several vertex batches, with a ragged last one.
constexpr VertexId kMultiBatch = 3 * kVertexBatch + 77;

struct Case {
  std::string name;
  CsrGraph csr;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  {
    // Every edge points from the larger id to the next smaller one, so
    // each hook joins two trees whose roots are far from the edge's ends.
    Edges edges;
    for (VertexId v = kMultiBatch - 1; v > 0; --v) {
      edges.emplace_back(v, v - 1);
    }
    cases.push_back({"descending-chain", CsrGraph::FromEdges(kMultiBatch, edges)});
  }
  {
    // The same path with every edge pointing up: each hook still has to
    // find the smaller root behind the edge's source.
    Edges edges;
    for (VertexId v = kMultiBatch - 1; v > 0; --v) {
      edges.emplace_back(v - 1, v);
    }
    cases.push_back({"ascending-chain", CsrGraph::FromEdges(kMultiBatch, edges)});
  }
  {
    // Components whose members are linked only through edges into them:
    // vertex 0, 1000 and 2000 have no out-edges at all, every member
    // points at its hub, and each hub is the component's smallest id.
    Edges edges;
    for (VertexId v = 1; v < 3000; ++v) {
      if (v % 1000 != 0) {
        edges.emplace_back(v, v / 1000 * 1000);
      }
    }
    cases.push_back({"reverse-only-links", CsrGraph::FromEdges(3000, edges)});
  }
  cases.push_back(
      {"isolated-loops-duplicates",
       CsrGraph::FromEdges(12, {{3, 3}, {3, 3}, {5, 4}, {5, 4}, {4, 5}, {7, 7}, {9, 8},
                                {9, 8}, {9, 8}, {11, 10}, {10, 11}, {11, 11}})});
  {
    // Many tiny components: pairs and triangles in alternating directions,
    // with isolated vertices between them.
    Edges edges;
    for (VertexId base = 0; base + 5 <= kMultiBatch; base += 5) {
      edges.emplace_back(base + 1, base);
      edges.emplace_back(base + 2, base + 3);
      edges.emplace_back(base + 3, base + 4);
      edges.emplace_back(base + 4, base + 2);
    }
    cases.push_back({"tiny-components", CsrGraph::FromEdges(kMultiBatch, edges)});
  }
  {
    // One component spread over every batch: a ring that steps 1500 ids
    // at a time.
    Edges edges;
    for (VertexId v = 0; v < kMultiBatch; ++v) {
      edges.emplace_back((v * 1500 + 1500) % kMultiBatch, (v * 1500) % kMultiBatch);
    }
    cases.push_back({"spanning-ring", CsrGraph::FromEdges(kMultiBatch, edges)});
  }
  cases.push_back({"power-law", PowerLawGraph(/*num_vertices=*/2500, /*num_edges=*/9000,
                                              /*alpha=*/0.8, /*seed=*/31)});
  return cases;
}

class BatchKernelsTest : public ::testing::Test {
 protected:
  BatchKernelsTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {}

  struct Variant {
    const char* tier;
    bool compress_indexes;
    bool compress_edges;
    smart::PlacementSpec placement;
  };

  // Every tier × placement point.
  static std::vector<Variant> Variants() {
    std::vector<Variant> variants;
    const struct {
      const char* tier;
      bool compress_indexes;
      bool compress_edges;
    } tiers[] = {{"U", false, false}, {"V", true, false}, {"V+E", true, true}};
    for (const auto& tier : tiers) {
      for (const auto& placement :
           {smart::PlacementSpec::OsDefault(), smart::PlacementSpec::Interleaved(),
            smart::PlacementSpec::Replicated(), smart::PlacementSpec::SingleSocket(1)}) {
        variants.push_back({tier.tier, tier.compress_indexes, tier.compress_edges, placement});
      }
    }
    return variants;
  }

  SmartCsrGraph Smart(const CsrGraph& csr, const Variant& variant) {
    SmartGraphOptions options;
    options.placement = variant.placement;
    options.compress_indexes = variant.compress_indexes;
    options.compress_edges = variant.compress_edges;
    return SmartCsrGraph(csr, options, topo_, pool_);
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
};

TEST_F(BatchKernelsTest, UnionFindComponentsMatchReference) {
  for (const Case& c : Cases()) {
    const std::vector<uint64_t> want = ConnectedComponents(c.csr);
    // The reference labels every vertex with its component's smallest id.
    for (VertexId v = 0; v < c.csr.num_vertices(); ++v) {
      ASSERT_LE(want[v], v) << c.name;
      ASSERT_EQ(want[want[v]], want[v]) << c.name;
    }
    for (const Variant& variant : Variants()) {
      const SmartCsrGraph g = Smart(c.csr, variant);
      EXPECT_EQ(ConnectedComponentsSmart(pool_, g, topo_), want)
          << c.name << " " << variant.tier << " " << ToString(variant.placement);
    }
  }
}

TEST_F(BatchKernelsTest, UnionFindComponentsHandLabels) {
  const CsrGraph csr =
      CsrGraph::FromEdges(12, {{3, 3}, {3, 3}, {5, 4}, {5, 4}, {4, 5}, {7, 7}, {9, 8},
                               {9, 8}, {9, 8}, {11, 10}, {10, 11}, {11, 11}});
  const SmartCsrGraph g(csr, SmartGraphOptions{}, topo_, pool_);
  const std::vector<uint64_t> want = {0, 1, 2, 3, 4, 4, 6, 7, 8, 8, 10, 10};
  EXPECT_EQ(ConnectedComponentsSmart(pool_, g, topo_), want);
}

TEST_F(BatchKernelsTest, PageRankBitwiseEqualAtEveryTierAndPlacement) {
  PageRankOptions options;
  options.tolerance = 0.0;  // a fixed iteration count on every side
  options.max_iterations = 6;
  for (const Case& c : Cases()) {
    const PageRankResult want = PageRank(c.csr, options);
    for (const Variant& variant : Variants()) {
      const SmartCsrGraph g = Smart(c.csr, variant);
      const PageRankResult got = PageRankSmart(pool_, g, topo_, options);
      const std::string label =
          c.name + " " + variant.tier + " " + ToString(variant.placement);
      EXPECT_EQ(got.iterations, want.iterations) << label;
      ASSERT_EQ(got.ranks.size(), want.ranks.size()) << label;
      for (VertexId v = 0; v < c.csr.num_vertices(); ++v) {
        ASSERT_EQ(got.ranks[v], want.ranks[v]) << label << " vertex " << v;
      }
    }
  }
}

// With the default tolerance the iteration count is data-driven; the ranks
// at the stopping iteration are still the reference's, bit for bit.
TEST_F(BatchKernelsTest, PageRankBitwiseEqualAtConvergence) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/4000, /*num_edges=*/30'000,
                                     /*alpha=*/0.6, /*seed=*/8);
  const PageRankResult want = PageRank(csr);
  SmartGraphOptions options;
  options.placement = smart::PlacementSpec::Replicated();
  options.compress_indexes = true;
  options.compress_edges = true;
  const SmartCsrGraph g(csr, options, topo_, pool_);
  const PageRankResult got = PageRankSmart(pool_, g, topo_);
  ASSERT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.ranks, want.ranks);
}

// The decoder hands every batch its own offsets and neighbor lists, equal
// to the plain CSR's, at any batch boundary and width.
TEST_F(BatchKernelsTest, AdjacencyDecoderMatchesCsr) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/3000, /*num_edges=*/20'000,
                                     /*alpha=*/0.7, /*seed=*/2);
  for (const bool compress : {false, true}) {
    SmartGraphOptions options;
    options.compress_indexes = compress;
    options.compress_edges = compress;
    const SmartCsrGraph g(csr, options, topo_, pool_);
    AdjacencyDecoder decoder(pool_, g.rbegin(), g.redge());
    for (const auto& [b, e] : std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 1024}, {1024, 2048}, {5, 70}, {2999, 3000}, {0, 3000}, {17, 17}}) {
      const AdjacencyBatch batch = decoder.Decode(/*worker=*/0, b, e);
      ASSERT_EQ(batch.size, e - b);
      ASSERT_EQ(batch.num_edges(), csr.rbegin()[e] - csr.rbegin()[b]);
      for (uint64_t i = 0; i < batch.size; ++i) {
        const uint64_t v = b + i;
        const std::vector<uint64_t> got(batch.neighbors(i).begin(), batch.neighbors(i).end());
        const std::vector<uint64_t> want(csr.redge().begin() + csr.rbegin()[v],
                                         csr.redge().begin() + csr.rbegin()[v + 1]);
        ASSERT_EQ(got, want) << "vertex " << v << " compress=" << compress;
      }
    }
  }
}

}  // namespace
}  // namespace sa::graph
