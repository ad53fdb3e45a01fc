// Batch-decoded adjacency: the one read path of the graph kernels that
// sweep every vertex's neighbor list (connected components, PageRank,
// triangle counting).
//
// A vertex batch [b, e) owns one contiguous range of the offsets array
// (elements b..e) and one contiguous range of the targets array (edges
// offsets[b]..offsets[e]). AdjacencyDecoder decodes both with one
// UnpackRange each into the calling worker's private buffers, so the
// per-edge loop reads plain uint64_t lists: no per-element codec dispatch,
// no per-list chunk-kernel lookup, and each array at its own width (the
// registry adapts every slot independently).
#ifndef SA_GRAPH_ADJACENCY_BATCH_H_
#define SA_GRAPH_ADJACENCY_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rts/worker_local.h"
#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace sa::graph {

// Vertices per batch in the batch-decoded kernels. Fine enough that the
// heavy batches of a power-law graph spread over the workers, coarse
// enough that the two UnpackRange calls per batch amortize; a multiple of
// the chunk size, so batches that write 64-bit vertex properties never
// share a word.
inline constexpr uint64_t kVertexBatch = 1024;

// One decoded vertex batch [b, b + size). Points into the decoder's worker
// buffers: valid until that worker's next Decode call.
struct AdjacencyBatch {
  const uint64_t* offsets = nullptr;  // size + 1 offsets, vertex b + i at [i]
  const uint64_t* targets = nullptr;  // targets of edges [offsets[0], offsets[size])
  uint64_t size = 0;

  uint64_t num_edges() const { return offsets[size] - offsets[0]; }

  // Neighbor list of vertex b + i, in CSR (ascending) order.
  std::span<const uint64_t> neighbors(uint64_t i) const {
    return {targets + (offsets[i] - offsets[0]), targets + (offsets[i + 1] - offsets[0])};
  }
};

// Per-worker decode buffers over one (offsets, targets) array pair; both
// arrays must outlive the decoder. Decode and DecodeOffsets are called by
// ParallelFor bodies with their own worker index.
class AdjacencyDecoder {
 public:
  AdjacencyDecoder(rts::WorkerPool& pool, const smart::SmartArray& offsets,
                   const smart::SmartArray& targets);

  // Decodes only the offsets of batch [b, e): the returned pointer holds
  // e - b + 1 values (offsets[b..e]).
  const uint64_t* DecodeOffsets(int worker, uint64_t b, uint64_t e);

  // Decodes the offsets and the target range of batch [b, e).
  AdjacencyBatch Decode(int worker, uint64_t b, uint64_t e);

 private:
  struct Buffers {
    std::vector<uint64_t> offsets;
    std::vector<uint64_t> targets;
  };

  rts::WorkerPool& pool_;
  const smart::SmartArray& offsets_;
  const smart::SmartArray& targets_;
  rts::WorkerLocal<Buffers> buffers_;
};

}  // namespace sa::graph

#endif  // SA_GRAPH_ADJACENCY_BATCH_H_
