#include "graph/adjacency_batch.h"

#include "smart/parallel_ops.h"

namespace sa::graph {

AdjacencyDecoder::AdjacencyDecoder(rts::WorkerPool& pool, const smart::SmartArray& offsets,
                                   const smart::SmartArray& targets)
    : pool_(pool), offsets_(offsets), targets_(targets), buffers_(pool.num_workers()) {}

const uint64_t* AdjacencyDecoder::DecodeOffsets(int worker, uint64_t b, uint64_t e) {
  std::vector<uint64_t>& out = buffers_[worker].offsets;
  out.resize(e - b + 1);
  smart::UnpackRange(offsets_, offsets_.GetReplica(pool_.worker_socket(worker)), b, e + 1,
                     out.data());
  return out.data();
}

AdjacencyBatch AdjacencyDecoder::Decode(int worker, uint64_t b, uint64_t e) {
  AdjacencyBatch batch{DecodeOffsets(worker, b, e), nullptr, e - b};
  std::vector<uint64_t>& targets = buffers_[worker].targets;
  targets.resize(batch.num_edges());
  smart::UnpackRange(targets_, targets_.GetReplica(pool_.worker_socket(worker)),
                     batch.offsets[0], batch.offsets[batch.size], targets.data());
  batch.targets = targets.data();
  return batch;
}

}  // namespace sa::graph
