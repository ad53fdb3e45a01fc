#include "graph/algorithms.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/adjacency_batch.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::graph {

std::vector<uint64_t> DegreeCentrality(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<uint64_t> out(n);
  for (VertexId v = 0; v < n; ++v) {
    out[v] = graph.OutDegree(v) + graph.InDegree(v);
  }
  return out;
}

void DegreeCentralitySmart(rts::WorkerPool& pool, const CsrView& graph,
                           smart::SmartArray* out, AccessMix* mix) {
  SA_CHECK(out != nullptr && out->length() == graph.num_vertices);

  // Two streaming passes, one per offset array, each specialized on that
  // array's own width (registry-held begin/rbegin adapt independently, so
  // they need not share one). Pass 1 writes the forward degree, pass 2 adds
  // the reverse; the ParallelFor barrier between them orders the read-back.
  const auto& out_codec = smart::CodecFor(out->bits());
  const auto pass = [&](const smart::SmartArray& offsets, const bool add) {
    smart::WithBits(offsets.bits(), [&](auto bits_const) {
      constexpr uint32_t kBits = bits_const();
      using Codec = smart::BitCompressedArray<kBits>;
      rts::ParallelFor(
          pool, 0, graph.num_vertices, smart::kChunkAlignedGrain,
          [&](int worker, uint64_t b, uint64_t e) {
            const int socket = pool.worker_socket(worker);
            const uint64_t* offsets_rep = offsets.GetReplica(socket);
            const uint64_t* out_rep = out->GetReplica(socket);
            const auto emit = [&](uint64_t v, uint64_t diff) {
              out->Init(v, add ? out_codec.get(out_rep, v) + diff : diff);
            };
            // The offset array streams past once through the streaming
            // decode seam: 65 elements per batch (always valid: the index
            // arrays have num_vertices()+1 entries), so element v+64 seeds
            // the chunk-crossing difference for free.
            uint64_t buf[kChunkElems + 1];
            uint64_t v = b;
            for (; v % kChunkElems == 0 && v + kChunkElems <= e; v += kChunkElems) {
              Codec::UnpackRange(offsets_rep, v, v + kChunkElems + 1, buf);
              for (uint32_t j = 0; j < kChunkElems; ++j) {
                emit(v + j, buf[j + 1] - buf[j]);
              }
            }
            // Ragged tail (and any unaligned batch start): element-wise.
            for (; v < e; ++v) {
              emit(v, Codec::GetImpl(offsets_rep, v + 1) - Codec::GetImpl(offsets_rep, v));
            }
          });
      return 0;
    });
  };
  pass(*graph.begin, /*add=*/false);
  pass(*graph.rbegin, /*add=*/true);
  if (mix != nullptr) {
    // One pure streaming pass over each offset array, nothing else.
    mix->begin_seq += graph.num_vertices + 1;
    mix->rbegin_seq += graph.num_vertices + 1;
  }
}

void DegreeCentralitySmart(rts::WorkerPool& pool, const SmartCsrGraph& graph,
                           smart::SmartArray* out) {
  DegreeCentralitySmart(pool, graph.view(), out, nullptr);
}

PageRankResult PageRank(const CsrGraph& graph, const PageRankOptions& options) {
  const VertexId n = graph.num_vertices();
  SA_CHECK(n > 0);
  const double base = (1.0 - options.damping) / n;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);

  PageRankResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (EdgeId e = graph.rbegin()[v]; e < graph.rbegin()[v + 1]; ++e) {
        const VertexId u = graph.redge()[e];
        sum += rank[u] / static_cast<double>(graph.OutDegree(u));
      }
      next[v] = base + options.damping * sum;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      break;
    }
  }
  result.ranks = std::move(rank);
  return result;
}

PageRankResult PageRankSmart(rts::WorkerPool& pool, const CsrView& graph,
                             const platform::Topology& topology,
                             const PageRankOptions& options, AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  SA_CHECK(n > 0);
  const double base = (1.0 - options.damping) / n;

  // Vertex properties: 64-bit smart arrays holding bit-cast doubles. The
  // scratch arrays (next, contrib) are always interleaved (§5.2); the
  // readable rank array follows the graph's placement so replication also
  // covers the ranks. All three are written through their raw replicas:
  // a 64-bit element is one word, and batches never share one.
  auto rank = smart::SmartArray::Allocate(n, graph.begin->placement(), 64, topology);
  auto next = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  auto contrib = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  smart::ParallelFill(pool, *rank,
                      [n](uint64_t) { return std::bit_cast<uint64_t>(1.0 / n); });
  uint64_t* contrib_data = contrib->MutableReplica(0);
  rts::WorkerLocal<std::vector<uint64_t>> degree_buf(pool.num_workers());
  AdjacencyDecoder in_edges(pool, *graph.rbegin, *graph.redge);

  PageRankResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Push half: contrib[u] = rank[u] / deg(u), the very division the
    // serial reference does per edge, done once per source vertex. A
    // vertex without out-edges is never a source, so it skips the
    // division.
    rts::ParallelFor(pool, 0, n, kVertexBatch, [&](int worker, uint64_t b, uint64_t e) {
      const uint64_t* rank_rep = rank->GetReplica(pool.worker_socket(worker));
      std::vector<uint64_t>& degree = degree_buf[worker];
      degree.resize(e - b);
      smart::UnpackRange(*graph.out_degree,
                         graph.out_degree->GetReplica(pool.worker_socket(worker)), b, e,
                         degree.data());
      for (uint64_t v = b; v < e; ++v) {
        const uint64_t d = degree[v - b];
        contrib_data[v] = d == 0 ? 0
                                 : std::bit_cast<uint64_t>(std::bit_cast<double>(rank_rep[v]) /
                                                           static_cast<double>(d));
      }
    });

    // Pull half: each in-edge list sums its sources' contributions in
    // ascending redge order, as the reference does, so every rank is
    // bitwise equal to the reference's.
    uint64_t* next_data = next->MutableReplica(0);
    const double delta = rts::ParallelReduce<double>(
        pool, 0, n, kVertexBatch, [&](int worker, uint64_t b, uint64_t e) {
          const uint64_t* rank_rep = rank->GetReplica(pool.worker_socket(worker));
          const AdjacencyBatch batch = in_edges.Decode(worker, b, e);
          double local_delta = 0.0;
          for (uint64_t i = 0; i < batch.size; ++i) {
            double sum = 0.0;
            for (const uint64_t u : batch.neighbors(i)) {
              sum += std::bit_cast<double>(contrib_data[u]);
            }
            const uint64_t v = b + i;
            const double new_rank = base + options.damping * sum;
            next_data[v] = std::bit_cast<uint64_t>(new_rank);
            local_delta += std::abs(new_rank - std::bit_cast<double>(rank_rep[v]));
          }
          return local_delta;
        });

    // next becomes rank. Single-replica arrays swap; a replicated rank
    // array gets next copied into every replica instead, chunk-aligned so
    // writers never share a word.
    if (rank->num_replicas() == 1) {
      std::swap(rank, next);
    } else {
      rts::ParallelFor(pool, 0, n, smart::kChunkAlignedGrain,
                       [&](int /*worker*/, uint64_t b, uint64_t e) {
                         for (int r = 0; r < rank->num_replicas(); ++r) {
                           std::copy(next_data + b, next_data + e, rank->MutableReplica(r) + b);
                         }
                       });
    }

    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      break;
    }
  }

  const uint64_t iters = static_cast<uint64_t>(result.iterations);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, iters * graph.num_edges);
  SA_OBS_COUNT_N(kGraphRandomGathers, iters * graph.num_edges);
  if (mix != nullptr) {
    // Every array streams once per iteration: the degree property with
    // the ranks, the reverse pair in the pull. The only data-dependent
    // gather (contrib[u]) reads private scratch, not a graph slot.
    mix->degree_seq += iters * n;
    mix->rbegin_seq += iters * (n + 1);
    mix->redge_seq += iters * graph.num_edges;
  }

  const uint64_t* rank_rep = rank->GetReplica(0);
  result.ranks.resize(n);
  for (uint64_t v = 0; v < n; ++v) {
    result.ranks[v] = std::bit_cast<double>(rank_rep[v]);
  }
  return result;
}

PageRankResult PageRankSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph,
                             const platform::Topology& topology,
                             const PageRankOptions& options) {
  return PageRankSmart(pool, graph.view(), topology, options, nullptr);
}

}  // namespace sa::graph
