// The per-width kernel table (kernel_table.h): a static rule, so every
// width's selection is checked against the rule itself and every bound
// function pointer against the matching BitCompressedArray<BITS> flavour.
// The default lane covers the AVX2 side on AVX2 hosts; SA_DISABLE_AVX2=1
// runs cover the block-everywhere side.
#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "smart/bit_compressed_array.h"
#include "smart/dispatch.h"
#include "smart/kernel_table.h"

namespace sa::smart {
namespace {

TEST(KernelTable, StaticRuleSelectsEveryWidth) {
  const bool avx2 = HostCpuFeatures().avx2;
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    WithBits(bits, [&](auto bits_const) {
      constexpr uint32_t kBits = bits_const();
      using Codec = BitCompressedArray<kBits>;
      const KernelOps& ops = KernelsFor(kBits);
#if defined(SA_HAVE_AVX2_KERNELS)
      const bool want_v2 = avx2::HasV2Width(kBits) && avx2;
#else
      const bool want_v2 = false;
#endif
      EXPECT_EQ(ops.kind, want_v2 ? KernelKind::kAvx2V2 : KernelKind::kBlock)
          << "bits=" << kBits;
      EXPECT_EQ(ops.predicate_kind, ops.kind) << "bits=" << kBits;
      EXPECT_EQ(Codec::HasV2Kernels(), want_v2) << "bits=" << kBits;
#if defined(SA_HAVE_AVX2_KERNELS)
      if (want_v2) {
        EXPECT_EQ(ops.sum_range, &Codec::SumRangeV2) << "bits=" << kBits;
        EXPECT_EQ(ops.sum2_range, &Codec::Sum2RangeV2) << "bits=" << kBits;
        EXPECT_EQ(ops.unpack_chunk, &Codec::UnpackChunkV2) << "bits=" << kBits;
        EXPECT_EQ(ops.match_mask_chunk, &Codec::MatchMaskChunkV2) << "bits=" << kBits;
        EXPECT_EQ(ops.filtered_sum_chunk, &Codec::FilteredSumChunkV2) << "bits=" << kBits;
        return 0;
      }
#endif
      EXPECT_EQ(ops.sum_range, &Codec::SumRangeImpl) << "bits=" << kBits;
      EXPECT_EQ(ops.sum2_range, &Codec::Sum2RangeImpl) << "bits=" << kBits;
      EXPECT_EQ(ops.unpack_chunk, &Codec::UnpackUnrolledImpl) << "bits=" << kBits;
      EXPECT_EQ(ops.match_mask_chunk, &Codec::MatchMaskChunkImpl) << "bits=" << kBits;
      EXPECT_EQ(ops.filtered_sum_chunk, &Codec::FilteredSumChunkImpl) << "bits=" << kBits;
      return 0;
    });
  }
}

TEST(KernelTable, ToStringNamesBothKinds) {
  EXPECT_STREQ(ToString(KernelKind::kBlock), "block");
  EXPECT_STREQ(ToString(KernelKind::kAvx2V2), "avx2-v2");
}

}  // namespace
}  // namespace sa::smart
