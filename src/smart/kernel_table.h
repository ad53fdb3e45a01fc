// Static per-width codec kernel dispatch.
//
// A width gets the AVX2 shift-network v2 kernels (sum, unpack, match-mask
// and filtered-sum alike) exactly when avx2::HasV2Width(bits) holds and
// sa::HostCpuFeatures().avx2 is set; every other case gets the scalar block
// kernels. SA_DISABLE_AVX2 != "0" clears the avx2 feature and so selects
// block everywhere. The rule is a pure function of the width and the host,
// like the paper's width-branching entry points (§4.3): no start-up timing.
//
// Evidence for the sum and match-mask kernels: the committed
// BENCH_codec.json has avx2-v2 ahead of block at every v2 width, for sum
// (`avx2-v2` vs `block`) and for the select_if match mask
// (`select-if-avx2-v2` vs `select-if-block`), and tools/bench_diff.py
// --assert-only fails any non-fast artifact where either is not. The
// artifact has no per-width unpack or filtered-sum series, so those two
// v2 choices rest only on the bench host's start-up timings that this
// rule replaced, which never picked block at a v2 width.
#ifndef SA_SMART_KERNEL_TABLE_H_
#define SA_SMART_KERNEL_TABLE_H_

#include <cstdint>

namespace sa::smart {

enum class KernelKind : uint8_t {
  kBlock,   // scalar block kernels (branch-free unrolled shift/mask decode)
  kAvx2V2,  // AVX2 shift-network v2 (chunk_kernels_avx2.h)
};

const char* ToString(KernelKind kind);

// Selected kernel set for one width. The function pointers bind the chosen
// flavour directly (SumRangeImpl vs SumRangeV2, UnpackUnrolledImpl vs the
// v2 network), so dispatching callers pay one table load + indirect call.
struct KernelOps {
  uint64_t (*sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end) = nullptr;
  uint64_t (*sum2_range)(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                         uint64_t end) = nullptr;
  // Decodes one whole chunk into out[0..63] (out may be unaligned).
  void (*unpack_chunk)(const uint64_t* replica, uint64_t chunk, uint64_t* out) = nullptr;
  // Predicate kernels (predicate.h): bit k of the returned mask says whether
  // element k of `chunk` satisfies the normalized compare; filtered_sum
  // accumulates the matching elements of one chunk.
  uint64_t (*match_mask_chunk)(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                               bool is_eq, bool invert) = nullptr;
  uint64_t (*filtered_sum_chunk)(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                 bool is_eq, bool invert) = nullptr;
  KernelKind kind = KernelKind::kBlock;
  // Flavour of the two predicate kernels; the static rule makes it equal to
  // `kind` at every width.
  KernelKind predicate_kind = KernelKind::kBlock;
};

// The selected kernels for `bits` (1..64). First call builds the whole
// table (every width); selections are stable for the process lifetime.
const KernelOps& KernelsFor(uint32_t bits);

}  // namespace sa::smart

#endif  // SA_SMART_KERNEL_TABLE_H_
