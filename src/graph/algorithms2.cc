#include "graph/algorithms2.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <span>

#include "common/macros.h"
#include "graph/adjacency_batch.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::graph {
namespace {

// Sorted unique neighbors of `v` (forward + reverse lists merged), keeping
// only ids greater than `floor` — the serial reference's id-ordered
// orientation.
void NeighborsAboveRef(const CsrGraph& graph, uint64_t v, uint64_t floor,
                       std::vector<uint64_t>* out) {
  out->clear();
  uint64_t fwd = graph.begin()[v];
  const uint64_t fwd_end = graph.begin()[v + 1];
  uint64_t rev = graph.rbegin()[v];
  const uint64_t rev_end = graph.rbegin()[v + 1];
  while (fwd < fwd_end || rev < rev_end) {
    uint64_t next;
    if (fwd < fwd_end && (rev >= rev_end || graph.edge()[fwd] <= graph.redge()[rev])) {
      next = graph.edge()[fwd++];
    } else {
      next = graph.redge()[rev++];
    }
    if (next > floor && next != v && (out->empty() || out->back() != next)) {
      out->push_back(next);
    }
  }
}

// Size of the intersection of two strictly ascending id lists (a two-pointer
// merge). Shared by the serial reference (uint64_t vectors) and the smart
// kernel (uint32_t spans of the oriented adjacency).
template <typename List>
uint64_t SortedIntersectionSize(const List& a, const List& b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// 64-bit property arrays are word-per-element, so relaxed atomic access via
// atomic_ref keeps the cross-worker races (union-find hooks and path
// halving) well-defined without any locking.
inline uint64_t LoadRelaxed(const uint64_t* cell) {
  return std::atomic_ref<const uint64_t>(*cell).load(std::memory_order_relaxed);
}
inline void StoreRelaxed(uint64_t* cell, uint64_t value) {
  std::atomic_ref<uint64_t>(*cell).store(value, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

std::vector<uint64_t> BfsLevels(const CsrGraph& graph, VertexId source) {
  SA_CHECK(source < graph.num_vertices());
  std::vector<uint64_t> level(graph.num_vertices(), kUnreachable);
  std::queue<VertexId> frontier;
  level[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
      const VertexId u = graph.edge()[e];
      if (level[u] == kUnreachable) {
        level[u] = level[v] + 1;
        frontier.push(u);
      }
    }
  }
  return level;
}

std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                     VertexId source, const platform::Topology& topology,
                                     AccessMix* mix) {
  SA_CHECK(source < graph.num_vertices);
  const uint64_t n = graph.num_vertices;
  // Levels as a 64-bit interleaved property (output arrays stay interleaved,
  // §5.2; one word per element so CAS claims need no packing care).
  auto level = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  uint64_t* level_data = level->MutableReplica(0);
  rts::ParallelFor(pool, 0, n, smart::kChunkAlignedGrain, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      level_data[v] = kUnreachable;
    }
  });
  level_data[source] = 0;

  const int workers = pool.num_workers();
  const auto& index_codec = smart::CodecFor(graph.begin_bits());
  // Private per-worker next-frontier queues, merged after each level
  // barrier; hoisted out of the level loop so their capacity is reused.
  rts::WorkerLocal<std::vector<uint64_t>> queues(workers);
  rts::WorkerLocal<uint64_t> streamed(workers);
  std::vector<uint64_t> frontier{source};
  std::vector<uint64_t> next;

  uint64_t rounds = 0;
  uint64_t visited = 1;  // source
  uint64_t edges_streamed = 0;

  smart::WithBits(graph.edge_bits(), [&](auto edge_bits_const) {
    constexpr uint32_t kEdgeBits = edge_bits_const();
    for (uint64_t round = 0; !frontier.empty(); ++round) {
      ++rounds;
      // Frontier slices are per-edge heavy, so the grain is much finer than
      // a vertex sweep's: keep every worker busy even on small frontiers.
      const uint64_t grain =
          std::max<uint64_t>(64, frontier.size() / (static_cast<uint64_t>(workers) * 8 + 1));
      rts::ParallelFor(
          pool, 0, frontier.size(), grain, [&](int worker, uint64_t b, uint64_t e) {
            const int socket = pool.worker_socket(worker);
            const uint64_t* begin_rep = graph.begin->GetReplica(socket);
            const uint64_t* edge_rep = graph.edge->GetReplica(socket);
            std::vector<uint64_t>& out = queues[worker];
            uint64_t local_streamed = 0;
            for (uint64_t i = b; i < e; ++i) {
              const uint64_t v = frontier[i];
              const uint64_t first = index_codec.get(begin_rep, v);
              const uint64_t last = index_codec.get(begin_rep, v + 1);
              local_streamed += last - first;
              // Chunk-granular decode of the out-edge list (range kernel).
              smart::BitCompressedArray<kEdgeBits>::ForEachRangeImpl(
                  edge_rep, first, last, [&](uint64_t u, uint64_t /*ei*/) {
                    // Claim u with a CAS on its level word: exactly one
                    // worker wins, so u lands in exactly one private queue.
                    std::atomic_ref<uint64_t> cell(level_data[u]);
                    uint64_t unreached = kUnreachable;
                    if (cell.load(std::memory_order_relaxed) == kUnreachable &&
                        cell.compare_exchange_strong(unreached, round + 1,
                                                     std::memory_order_relaxed)) {
                      out.push_back(u);
                    }
                  });
            }
            streamed[worker] += local_streamed;
          });

      // Merge the private queues into the next frontier. The ParallelFor
      // return above is the level barrier: every claim made this level
      // happens-before this merge.
      next.clear();
      queues.ForEach([&](int, std::vector<uint64_t>& q) {
        next.insert(next.end(), q.begin(), q.end());
        q.clear();
      });
#ifdef SA_GRAPH_MUTATION_CANARY
      // Planted bug for the CI canary: the merge silently drops one claimed
      // vertex per level, so its subtree gets a too-late (or no) level. The
      // differential oracle must catch this.
      if (next.size() > 1) {
        next.pop_back();
      }
#endif
      visited += next.size();
      frontier.swap(next);
    }
    return 0;
  });

  streamed.ForEach([&](int, uint64_t& c) { edges_streamed += c; });
  SA_OBS_COUNT_N(kGraphBfsRounds, rounds);
  SA_OBS_COUNT_N(kGraphFrontierPushes, visited);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, edges_streamed);
  if (mix != nullptr) {
    // Frontier order is data-dependent, so the offset reads are random
    // gathers; the edge lists themselves stream.
    mix->begin_rand += 2 * visited;
    mix->edge_seq += edges_streamed;
  }
  return std::vector<uint64_t>(level_data, level_data + n);
}

std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph,
                                     VertexId source, const platform::Topology& topology) {
  return BfsLevelsSmart(pool, graph.view(), source, topology, nullptr);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

std::vector<uint64_t> ConnectedComponents(const CsrGraph& graph) {
  const uint64_t n = graph.num_vertices();
  std::vector<uint64_t> label(n);
  for (uint64_t v = 0; v < n; ++v) {
    label[v] = v;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t v = 0; v < n; ++v) {
      uint64_t m = label[v];
      for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
        m = std::min(m, label[graph.edge()[e]]);
      }
      for (EdgeId e = graph.rbegin()[v]; e < graph.rbegin()[v + 1]; ++e) {
        m = std::min(m, label[graph.redge()[e]]);
      }
      if (m < label[v]) {
        label[v] = m;
        changed = true;
      }
    }
  }
  return label;
}

namespace {

// Lock-free union-find over a word-per-vertex parent array, every access
// through atomic_ref. Invariant: parent[x] <= x. Hooking only ever points
// a root at a smaller root and path halving only ever points a vertex at
// its grandparent, so the invariant survives every race, and the root of a
// tree is the smallest id in it.

// Root of x, halving the path on the way: each visited vertex is pointed
// at its grandparent by a CAS (a lost race only leaves the longer path).
uint64_t FindRoot(uint64_t* parent, uint64_t x) {
  uint64_t p = LoadRelaxed(&parent[x]);
  while (p != x) {
    const uint64_t gp = LoadRelaxed(&parent[p]);
    if (gp == p) {
      return p;
    }
    uint64_t expected = p;
    std::atomic_ref<uint64_t>(parent[x]).compare_exchange_weak(expected, gp,
                                                               std::memory_order_relaxed);
    x = gp;
    p = LoadRelaxed(&parent[x]);
  }
  return x;
}

// Joins the trees of a and b: the larger root is hooked under the smaller
// by a CAS on the larger root's own word, which fails, and retries from the
// fresh roots, when another worker hooked that root first. Returns the
// joined tree's root as of the join, an ancestor of both a and b, so a
// caller uniting one vertex with many can start each find from there.
uint64_t Unite(uint64_t* parent, uint64_t a, uint64_t b) {
  while (true) {
    a = FindRoot(parent, a);
    b = FindRoot(parent, b);
    if (a == b) {
      return a;
    }
    if (a > b) {
      std::swap(a, b);
    }
    uint64_t expected = b;
    if (std::atomic_ref<uint64_t>(parent[b]).compare_exchange_strong(
            expected, a, std::memory_order_relaxed)) {
      return a;
    }
  }
}

}  // namespace

std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                               const platform::Topology& topology,
                                               AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  if (n == 0) {
    return {};
  }
  auto labels = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  uint64_t* parent = labels->MutableReplica(0);
  rts::ParallelFor(pool, 0, n, smart::kChunkAlignedGrain, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      parent[v] = v;
    }
  });

  // Union pass: every edge sits in its source's forward list, so one pass
  // over begin/edge unites every weakly connected pair; redge adds nothing.
  AdjacencyDecoder out_edges(pool, *graph.begin, *graph.edge);
  rts::ParallelFor(pool, 0, n, kVertexBatch, [&](int worker, uint64_t b, uint64_t e) {
    const AdjacencyBatch batch = out_edges.Decode(worker, b, e);
    for (uint64_t i = 0; i < batch.size; ++i) {
      uint64_t root = b + i;
      for (const uint64_t u : batch.neighbors(i)) {
        root = Unite(parent, root, u);
      }
    }
  });

  // Compress pass: every vertex points straight at its root, the smallest
  // id of its component — the serial reference's label. Concurrent
  // compression elsewhere only shortens the paths being walked.
  rts::ParallelFor(pool, 0, n, kVertexBatch, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      StoreRelaxed(&parent[v], FindRoot(parent, v));
    }
  });

  SA_OBS_COUNT_N(kGraphEdgesStreamed, graph.num_edges);
  SA_OBS_COUNT_N(kGraphRandomGathers, graph.num_edges);
  if (mix != nullptr) {
    // One pass over the forward pair; the parent lookups at each edge's
    // target read private scratch, not a graph slot.
    mix->begin_seq += n + 1;
    mix->edge_seq += graph.num_edges;
  }
  return std::vector<uint64_t>(parent, parent + n);
}

std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool,
                                               const SmartCsrGraph& graph,
                                               const platform::Topology& topology) {
  return ConnectedComponentsSmart(pool, graph.view(), topology, nullptr);
}

// ---------------------------------------------------------------------------
// Triangle counting
// ---------------------------------------------------------------------------

uint64_t CountTriangles(const CsrGraph& graph) {
  uint64_t count = 0;
  std::vector<uint64_t> nv;
  std::vector<uint64_t> nu;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    NeighborsAboveRef(graph, v, v, &nv);
    for (const uint64_t u : nv) {
      NeighborsAboveRef(graph, u, u, &nu);
      count += SortedIntersectionSize(nv, nu);
    }
  }
  return count;
}

namespace {

struct TriPartial {
  uint64_t triangles = 0;
  uint64_t intersections = 0;  // ordered-intersection merges performed

  TriPartial& operator+=(const TriPartial& o) {
    triangles += o.triangles;
    intersections += o.intersections;
    return *this;
  }
};

// Rank key of a vertex: degree in the high half (saturated), id in the low
// half, so keys are distinct and comparing two keys is the degree order with
// ties broken by id — a strict total order.
inline uint64_t RankKey(uint64_t v, uint64_t degree) {
  return std::min<uint64_t>(degree, 0xffffffff) << 32 | v;
}

// Merges v's ascending forward and reverse lists and appends each distinct
// neighbor that ranks above v (never v itself) to `out`, in ascending id
// order. Returns the new end.
uint32_t* AppendNeighborsAbove(std::span<const uint64_t> fwd_list,
                               std::span<const uint64_t> rev_list, uint64_t v,
                               const uint64_t* rank, uint32_t* out) {
  const uint64_t* fwd = fwd_list.data();
  const uint64_t* const fwd_end = fwd + fwd_list.size();
  const uint64_t* rev = rev_list.data();
  const uint64_t* const rev_end = rev + rev_list.size();
  uint64_t prev = kUnreachable;  // not a vertex id: ids are 32-bit
  while (fwd != fwd_end || rev != rev_end) {
    const uint64_t u = fwd != fwd_end && (rev == rev_end || *fwd <= *rev) ? *fwd++ : *rev++;
    if (u != prev) {
      prev = u;
      if (rank[u] > rank[v]) {
        *out++ = static_cast<uint32_t>(u);
      }
    }
  }
  return out;
}

}  // namespace

uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const CsrView& graph, AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  if (n == 0) {
    return 0;
  }
  const int workers = pool.num_workers();
  AdjacencyDecoder out_edges(pool, *graph.begin, *graph.edge);
  AdjacencyDecoder in_edges(pool, *graph.rbegin, *graph.redge);

  // Phase 1: stream both offset arrays once for each vertex's rank key
  // (raw out+in degree, ties by id).
  std::vector<uint64_t> rank(n);
  rts::ParallelFor(pool, 0, n, kVertexBatch, [&](int worker, uint64_t b, uint64_t e) {
    const uint64_t* fwd = out_edges.DecodeOffsets(worker, b, e);
    const uint64_t* rev = in_edges.DecodeOffsets(worker, b, e);
    for (uint64_t i = 0; i < e - b; ++i) {
      rank[b + i] = RankKey(b + i, (fwd[i + 1] - fwd[i]) + (rev[i + 1] - rev[i]));
    }
  });

  // Phase 2: the oriented adjacency N+(v) — v's distinct neighbors of higher
  // rank, ascending by id, as 32-bit ids. Each batch decodes its forward
  // and reverse lists once; one merge per vertex writes the kept ids into
  // the worker's staging buffer (the batch's decoded length bounds it) and
  // prefix-sums their counts; the batch's lists are then copied into one
  // exactly-sized block.
  const uint64_t num_batches = (n + kVertexBatch - 1) / kVertexBatch;
  std::vector<std::unique_ptr<uint32_t[]>> blocks(num_batches);
  std::vector<std::span<const uint32_t>> above(n);
  rts::WorkerLocal<std::vector<uint32_t>> staging(workers);
  rts::WorkerLocal<std::vector<uint64_t>> first_buf(workers);
  rts::ParallelFor(pool, 0, n, kVertexBatch, [&](int worker, uint64_t b, uint64_t e) {
    const AdjacencyBatch fwd = out_edges.Decode(worker, b, e);
    const AdjacencyBatch rev = in_edges.Decode(worker, b, e);
    std::vector<uint32_t>& kept = staging[worker];
    kept.resize(fwd.num_edges() + rev.num_edges());
    // first[i] is vertex b+i's start within the batch's kept lists.
    std::vector<uint64_t>& first = first_buf[worker];
    first.resize(e - b + 1);
    first[0] = 0;
    uint32_t* out = kept.data();
    for (uint64_t i = 0; i < e - b; ++i) {
      out = AppendNeighborsAbove(fwd.neighbors(i), rev.neighbors(i), b + i, rank.data(), out);
      first[i + 1] = static_cast<uint64_t>(out - kept.data());
    }
    std::unique_ptr<uint32_t[]> block = std::make_unique_for_overwrite<uint32_t[]>(first[e - b]);
    std::copy_n(kept.data(), first[e - b], block.get());
    for (uint64_t i = 0; i < e - b; ++i) {
      above[b + i] = {block.get() + first[i], block.get() + first[i + 1]};
    }
    // ParallelFor batches start at multiples of the grain, so b / grain
    // numbers this batch.
    blocks[b / kVertexBatch] = std::move(block);
  });

  // Phase 3: each triangle {a, b, c} ranked a < b < c is counted exactly
  // once, at v = a and u = b, as the c in N+(a) ∩ N+(b).
  const TriPartial total = rts::ParallelReduce<TriPartial>(
      pool, 0, n, kVertexBatch, [&](int, uint64_t b, uint64_t e) {
        TriPartial local;
        for (uint64_t v = b; v < e; ++v) {
          // The neighbors' list headers and lists are random reads: request
          // them two and one vertices ahead of the merges that need them.
          if (v + 2 < e) {
            for (const uint32_t u : above[v + 2]) {
              __builtin_prefetch(&above[u]);
            }
          }
          if (v + 1 < e) {
            for (const uint32_t u : above[v + 1]) {
              __builtin_prefetch(above[u].data());
            }
          }
          const std::span<const uint32_t> nv = above[v];
          for (const uint32_t u : nv) {
            local.triangles += SortedIntersectionSize(nv, above[u]);
          }
          local.intersections += nv.size();
        }
        return local;
      });

  SA_OBS_COUNT_N(kGraphTriIntersections, total.intersections);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, 2 * graph.num_edges);
  if (mix != nullptr) {
    // Each edge array streams past once and each offset array twice (the
    // rank phase and the adjacency build); no element is gathered at a
    // data-dependent index.
    mix->begin_seq += 2 * (n + 1);
    mix->rbegin_seq += 2 * (n + 1);
    mix->edge_seq += graph.num_edges;
    mix->redge_seq += graph.num_edges;
  }
  return total.triangles;
}

uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph) {
  return CountTrianglesSmart(pool, graph.view(), nullptr);
}

}  // namespace sa::graph
