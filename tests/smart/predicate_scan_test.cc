// Differential tests for the pushdown scan engine: every width 1..64, all
// six comparison operators, boundary constants (0, 1, mid, max, out of
// range), ragged lengths and unaligned sub-ranges — CountIf/SelectIf/
// FilteredSum checked element-for-element against a plain-vector oracle.
// The virtual scan path exercises normalization, zone-map classification,
// run coalescing and the selected match kernels in one pass; the chunk
// tests below additionally pin the AVX2 kernels to the scalar block ones.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace sa::smart {
namespace {

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// Ragged lengths around chunk boundaries plus larger odd sizes.
constexpr uint64_t kLengths[] = {1, 63, 64, 65, 129, 1000};

class PredicateScanTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  PredicateScanTest() : topo_(platform::Topology::Synthetic(1, 2)) {}

  std::unique_ptr<SmartArray> Fill(uint64_t n, uint64_t seed, std::vector<uint64_t>* oracle) {
    const uint32_t bits = GetParam();
    auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), bits, topo_);
    const uint64_t mask = array->max_value();
    Xoshiro256 rng(seed * 64 + bits);
    oracle->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      (*oracle)[i] = rng() & mask;
      array->Init(i, (*oracle)[i]);
    }
    return array;
  }

  // Boundary constants for this width, including out-of-range ones that
  // normalization must resolve in closed form.
  std::vector<uint64_t> Bounds() const {
    const uint64_t max = LowMask(GetParam());
    std::vector<uint64_t> bounds = {0, 1, max / 2, max};
    if (max > 1) bounds.push_back(max - 1);
    if (GetParam() < 64) {
      bounds.push_back(max + 1);
      bounds.push_back(~uint64_t{0});
    }
    return bounds;
  }

  static uint64_t OracleCount(const std::vector<uint64_t>& oracle, uint64_t begin,
                              uint64_t end, Predicate p) {
    uint64_t count = 0;
    for (uint64_t i = begin; i < end; ++i) count += Matches(p, oracle[i]) ? 1 : 0;
    return count;
  }

  static uint64_t OracleSum(const std::vector<uint64_t>& oracle, uint64_t begin,
                            uint64_t end, Predicate p) {
    uint64_t sum = 0;
    for (uint64_t i = begin; i < end; ++i) {
      if (Matches(p, oracle[i])) sum += oracle[i];
    }
    return sum;
  }

  platform::Topology topo_;
};

TEST_P(PredicateScanTest, CountIfMatchesOracle) {
  for (const uint64_t n : kLengths) {
    std::vector<uint64_t> oracle;
    auto array = Fill(n, n, &oracle);
    const uint64_t* replica = array->GetReplica(0);
    // Full range plus an unaligned sub-range straddling chunk boundaries.
    const uint64_t sub_begin = n / 3;
    const uint64_t sub_end = n - n / 5;
    for (const CmpOp op : kAllOps) {
      for (const uint64_t c : Bounds()) {
        const Predicate p{op, c};
        ASSERT_EQ(array->CountIf(replica, 0, n, p), OracleCount(oracle, 0, n, p))
            << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c;
        ASSERT_EQ(array->CountIf(replica, sub_begin, sub_end, p),
                  OracleCount(oracle, sub_begin, sub_end, p))
            << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c;
      }
    }
  }
}

TEST_P(PredicateScanTest, SelectIfBitmapMatchesOracle) {
  for (const uint64_t n : kLengths) {
    std::vector<uint64_t> oracle;
    auto array = Fill(n, n + 1, &oracle);
    const uint64_t* replica = array->GetReplica(0);
    const uint64_t sub_begin = n / 3;
    const uint64_t sub_end = n - n / 7;
    for (const CmpOp op : kAllOps) {
      for (const uint64_t c : Bounds()) {
        const Predicate p{op, c};
        std::vector<uint64_t> bitmap((n + kWordBits - 1) / kWordBits + 1, ~uint64_t{0});
        const uint64_t count = array->SelectIf(replica, sub_begin, sub_end, p, bitmap.data());
        ASSERT_EQ(count, OracleCount(oracle, sub_begin, sub_end, p))
            << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c;
        uint64_t popcount = 0;
        for (uint64_t i = sub_begin; i < sub_end; ++i) {
          const uint64_t j = i - sub_begin;
          const bool bit = (bitmap[j / kWordBits] >> (j % kWordBits)) & 1;
          ASSERT_EQ(bit, Matches(p, oracle[i]))
              << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c
              << " index=" << i;
          popcount += bit ? 1 : 0;
        }
        ASSERT_EQ(popcount, count);
        // Tail bits past the range must have been zeroed, not left stale.
        const uint64_t range = sub_end - sub_begin;
        if (range % kWordBits != 0) {
          const uint64_t tail = bitmap[range / kWordBits] >> (range % kWordBits);
          ASSERT_EQ(tail, 0u) << "stale tail bits, bits=" << GetParam() << " n=" << n;
        }
      }
    }
  }
}

TEST_P(PredicateScanTest, FilteredSumMatchesOracle) {
  for (const uint64_t n : kLengths) {
    std::vector<uint64_t> oracle;
    auto array = Fill(n, n + 2, &oracle);
    const uint64_t* replica = array->GetReplica(0);
    const uint64_t sub_begin = n / 4;
    for (const CmpOp op : kAllOps) {
      for (const uint64_t c : Bounds()) {
        const Predicate p{op, c};
        ASSERT_EQ(array->FilteredSum(replica, 0, n, p), OracleSum(oracle, 0, n, p))
            << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c;
        ASSERT_EQ(array->FilteredSum(replica, sub_begin, n, p),
                  OracleSum(oracle, sub_begin, n, p))
            << "bits=" << GetParam() << " n=" << n << " op=" << ToString(op) << " c=" << c;
      }
    }
  }
}

// The AVX2 match/filtered-sum kernels must agree with the scalar block
// kernels word-for-word on every normalized (bound, is_eq, invert) shape.
// On widths without a v2 kernel (and off-AVX2 hosts) the v2 entry falls
// back to the block kernel, so the comparison is trivially true there.
TEST_P(PredicateScanTest, BlockAndV2ChunkKernelsAgree) {
  const uint64_t n = 8 * kChunkElems;
  std::vector<uint64_t> oracle;
  auto array = Fill(n, 7, &oracle);
  const uint64_t* replica = array->GetReplica(0);
  WithBits(GetParam(), [&](auto bits_const) -> int {
    constexpr uint32_t kBits = bits_const();
    using Codec = BitCompressedArray<kBits>;
    const uint64_t max = LowMask(kBits);
    const uint64_t test_bounds[] = {0, 1, max / 2, max};
    for (uint64_t chunk = 0; chunk < n / kChunkElems; ++chunk) {
      for (const uint64_t bound : test_bounds) {
        for (const bool is_eq : {false, true}) {
          for (const bool invert : {false, true}) {
            // EXPECT (not ASSERT): gtest's fatal assertions bare-return,
            // which a value-returning WithBits lambda cannot host. Bail on
            // the first divergence to keep the log readable.
            EXPECT_EQ(Codec::MatchMaskChunkV2(replica, chunk, bound, is_eq, invert),
                      Codec::MatchMaskChunkImpl(replica, chunk, bound, is_eq, invert))
                << "bits=" << kBits << " chunk=" << chunk << " bound=" << bound
                << " is_eq=" << is_eq << " invert=" << invert;
            EXPECT_EQ(Codec::FilteredSumChunkV2(replica, chunk, bound, is_eq, invert),
                      Codec::FilteredSumChunkImpl(replica, chunk, bound, is_eq, invert))
                << "bits=" << kBits << " chunk=" << chunk << " bound=" << bound
                << " is_eq=" << is_eq << " invert=" << invert;
            if (::testing::Test::HasFailure()) {
              return 0;
            }
          }
        }
      }
    }
    return 0;
  });
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PredicateScanTest, ::testing::Range(1u, 65u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "bits" + std::to_string(param_info.param);
                         });

// ---- zone-map behavior (width-independent scenarios) ----

class ZoneMapTest : public ::testing::Test {
 protected:
  ZoneMapTest() : topo_(platform::Topology::Synthetic(1, 2)) {}
  platform::Topology topo_;
};

// Sorted data + a selective bound: the zone maps must answer most chunks
// without scanning them, and the answer must still match the oracle.
TEST_F(ZoneMapTest, SortedDataSkipsChunksOnSelectiveScan) {
  const uint64_t n = 64 * 1024;
  auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), 20, topo_);
  // Bulk load: whole-chunk ownership gives exact zone bounds (element-wise
  // Init can only widen from the all-zeros birth state).
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = i;
  PackRange(*array, 0, n, values.data());
  const uint64_t* replica = array->GetReplica(0);

  ScanStats stats;
  const uint64_t bound = n / 100;  // ~1% selectivity
  const uint64_t count = array->CountIf(replica, 0, n, {CmpOp::kLt, bound}, &stats);
  EXPECT_EQ(count, bound);
  EXPECT_EQ(stats.chunks_scanned + stats.chunks_skipped, n / kChunkElems);
  // All but the straddling chunk are decided by their [min,max] zone.
  EXPECT_LE(stats.chunks_scanned, 1u);
  EXPECT_GE(stats.chunks_skipped, n / kChunkElems - 1);

  // GE of the same bound is the complement and must skip equally well.
  ScanStats ge_stats;
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kGe, bound}, &ge_stats), n - bound);
  EXPECT_LE(ge_stats.chunks_scanned, 1u);
}

// Trivial predicates (constant outside the width's range) are answered in
// closed form: zero chunks touched, the whole range accounted as skipped.
TEST_F(ZoneMapTest, TrivialPredicateAnswersInClosedForm) {
  const uint64_t n = 10'000;
  auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), 8, topo_);
  for (uint64_t i = 0; i < n; ++i) array->Init(i, i & 255);
  const uint64_t* replica = array->GetReplica(0);

  ScanStats stats;
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kLe, 400}, &stats), n);  // 400 > max(8 bits)
  EXPECT_EQ(stats.chunks_scanned, 0u);
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kGt, 400}), 0u);
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kLt, 0}), 0u);
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kGe, 0}), n);
  EXPECT_EQ(array->FilteredSum(replica, 0, n, {CmpOp::kGe, 0}),
            array->RangeSum(replica, 0, n));
}

// A write must widen the zone before the scan can observe the new value:
// after an Init/InitAtomic that exceeds the chunk's previous [min,max], a
// selective scan must find the written element — a stale zone map would
// skip its chunk and silently drop it.
TEST_F(ZoneMapTest, WritesInvalidateZonesBeforeScans) {
  const uint64_t n = 4096;
  auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), 16, topo_);
  std::vector<uint64_t> values(n, 5);
  PackRange(*array, 0, n, values.data());  // exact [5,5] zones everywhere
  const uint64_t* replica = array->GetReplica(0);
  ScanStats baseline;
  ASSERT_EQ(array->CountIf(replica, 0, n, {CmpOp::kGt, 100}, &baseline), 0u);
  ASSERT_EQ(baseline.chunks_scanned, 0u);  // zones answer the whole scan

  array->Init(1234, 60'000);
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kGt, 100}), 1u);
  EXPECT_EQ(array->FilteredSum(replica, 0, n, {CmpOp::kGt, 100}), 60'000u);

  array->InitAtomic(77, 1);  // below the previous min
  EXPECT_EQ(array->CountIf(replica, 0, n, {CmpOp::kLt, 5}), 1u);
  std::vector<uint64_t> bitmap((n + kWordBits - 1) / kWordBits);
  ASSERT_EQ(array->SelectIf(replica, 0, n, {CmpOp::kLt, 5}, bitmap.data()), 1u);
  EXPECT_EQ((bitmap[77 / kWordBits] >> (77 % kWordBits)) & 1, 1u);
}

}  // namespace
}  // namespace sa::smart
