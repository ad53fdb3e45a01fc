// Static per-width kernel selection (see kernel_table.h for the rule).

#include "smart/kernel_table.h"

#include <utility>

#include "common/macros.h"
#include "obs/telemetry.h"
#include "smart/bit_compressed_array.h"

namespace sa::smart {
namespace {

// The rule itself lives in HasV2Kernels(): the width has a v2 network and
// the host has AVX2 (minus SA_DISABLE_AVX2).
template <uint32_t BITS>
KernelOps SelectKernels() {
  using Codec = BitCompressedArray<BITS>;
#if defined(SA_HAVE_AVX2_KERNELS)
  if (Codec::HasV2Kernels()) {
    return {&Codec::SumRangeV2,       &Codec::Sum2RangeV2,
            &Codec::UnpackChunkV2,    &Codec::MatchMaskChunkV2,
            &Codec::FilteredSumChunkV2, KernelKind::kAvx2V2,
            KernelKind::kAvx2V2};
  }
#endif
  return {&Codec::SumRangeImpl,       &Codec::Sum2RangeImpl,
          &Codec::UnpackUnrolledImpl, &Codec::MatchMaskChunkImpl,
          &Codec::FilteredSumChunkImpl, KernelKind::kBlock,
          KernelKind::kBlock};
}

struct Table {
  KernelOps ops[65];
};

// Records each width's selection in the obs counters as it builds.
Table BuildTable() {
  Table table;
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((table.ops[I + 1] = SelectKernels<I + 1>()), ...);
  }(std::make_index_sequence<64>{});
  table.ops[0] = table.ops[1];  // never a valid width; defensively block
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    if (table.ops[bits].kind == KernelKind::kAvx2V2) {
      SA_OBS_COUNT(kKernelSelectV2);
    } else {
      SA_OBS_COUNT(kKernelSelectBlock);
    }
  }
  return table;
}

}  // namespace

const char* ToString(KernelKind kind) {
  switch (kind) {
    case KernelKind::kBlock:
      return "block";
    case KernelKind::kAvx2V2:
      return "avx2-v2";
  }
  return "unknown";
}

const KernelOps& KernelsFor(uint32_t bits) {
  static const Table table = BuildTable();
  SA_DCHECK(bits >= 1 && bits <= 64);
  return table.ops[bits];
}

}  // namespace sa::smart
