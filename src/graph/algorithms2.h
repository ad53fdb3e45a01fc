// Additional PGX-style analytics kernels over smart-array graphs: BFS,
// connected components, and triangle counting (PGX ships these alongside
// degree centrality and PageRank — §2.3 and its triangle-listing citation
// [51]). Each kernel has a serial reference over plain CSR and a parallel
// smart-array version scheduled on the Callisto-style runtime.
//
// The parallel kernels are written against CsrView (view.h), so the same
// code runs over a SmartCsrGraph and over epoch-pinned registry snapshots
// (concurrent.h) — the latter is what makes them safe while the adaptation
// daemon restructures the property arrays mid-traversal. Each kernel
// optionally reports its per-array access mix (AccessMix) so a registry
// caller can feed the slots' workload counters.
#ifndef SA_GRAPH_ALGORITHMS2_H_
#define SA_GRAPH_ALGORITHMS2_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/smart_graph.h"
#include "graph/view.h"
#include "rts/worker_pool.h"

namespace sa::graph {

inline constexpr uint64_t kUnreachable = ~uint64_t{0};

// ---- Breadth-first search (level-synchronous, over out-edges) ----

// Serial reference: BFS levels from `source` (kUnreachable if not reached).
std::vector<uint64_t> BfsLevels(const CsrGraph& graph, VertexId source);

// Parallel frontier-based BFS: each level, workers drain a slice of the
// current frontier into *private* per-worker next-frontier queues (no
// sharing on the hot path; vertex ownership is claimed with a CAS on the
// level array), and the queues are merged after the level barrier. Out-edge
// lists stream through the chunk-granular decode seam. `mix`, when non-null,
// accumulates the kernel's per-array access tallies.
std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                     VertexId source, const platform::Topology& topology,
                                     AccessMix* mix = nullptr);
std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph,
                                     VertexId source, const platform::Topology& topology);

// ---- Connected components (undirected view) ----

// Serial reference: component labels (smallest vertex id in the component),
// treating every edge as undirected; label propagation to a fixpoint.
std::vector<uint64_t> ConnectedComponents(const CsrGraph& graph);

// Parallel lock-free union-find: one pass over the batch-decoded forward
// lists (begin/edge; every edge is in its source's list, so redge is never
// read) hooks the larger root under the smaller, keeping parent[x] <= x so
// each root is its component's smallest id; one more pass compresses every
// vertex onto its root. Labels equal the serial reference's.
std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                               const platform::Topology& topology,
                                               AccessMix* mix = nullptr);
std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool,
                                               const SmartCsrGraph& graph,
                                               const platform::Topology& topology);

// ---- Triangle counting ----

// Counts undirected triangles {a, b, c}: distinct vertex triples mutually
// connected, ignoring edge direction, duplicates and self-loops. Serial
// reference over plain CSR.
uint64_t CountTriangles(const CsrGraph& graph);

// Parallel smart-array version over degree-ordered adjacency. The offset
// arrays stream once to rank every vertex by raw degree (out+in, ties by
// id); each vertex batch then decodes its edge/redge ranges once through
// UnpackRange into a compact, deduplicated, id-sorted list of its
// higher-ranked neighbors (32-bit ids); triangles are counted by sorted
// intersection of those lists over neighbor pairs. A list holds only
// higher-degree neighbors, so a power-law hub's list stays short. Transient
// memory is O(V) plus one 32-bit id per kept edge plus one batch's decoded
// edges per worker, all freed on return; no full decoded copy of edge/redge
// is made.
uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const CsrView& graph,
                             AccessMix* mix = nullptr);
uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph);

}  // namespace sa::graph

#endif  // SA_GRAPH_ALGORITHMS2_H_
