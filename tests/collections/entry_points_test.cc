// C-ABI surface of the §7 collections and encodings.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "collections/entry_points.h"
#include "common/random.h"
#include "smart/entry_points.h"

namespace {

class CollectionsAbiTest : public ::testing::Test {
 protected:
  void SetUp() override { saSetDefaultTopology(2, 2); }
  void TearDown() override { saSetDefaultTopology(0, 0); }
};

TEST_F(CollectionsAbiTest, EncodedArrayRoundTrip) {
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i / 500) % 4;  // long runs
  }
  void* ea = saEncodedCreate(values.data(), values.size(), /*encoding=*/-1, 0, 1, -1);
  ASSERT_NE(ea, nullptr);
  EXPECT_EQ(saEncodedKind(ea), 2);  // auto-selected run-length
  EXPECT_EQ(saEncodedLength(ea), values.size());
  EXPECT_GT(saEncodedFootprintBytes(ea), 0u);
  for (uint64_t i = 0; i < values.size(); i += 101) {
    EXPECT_EQ(saEncodedGet(ea, i), values[i]);
  }
  std::vector<uint64_t> out(1000);
  saEncodedDecode(ea, 2000, 3000, out.data());
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(out[i], values[2000 + i]);
  }
  saEncodedFree(ea);
}

TEST_F(CollectionsAbiTest, ForcedEncodingIsHonored) {
  std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  for (int encoding = 0; encoding <= 3; ++encoding) {
    void* ea = saEncodedCreate(values.data(), values.size(), encoding, 0, 0, -1);
    EXPECT_EQ(saEncodedKind(ea), encoding);
    EXPECT_EQ(saEncodedGet(ea, 2), 3u);
    saEncodedFree(ea);
  }
}

TEST_F(CollectionsAbiTest, SetMembershipBothLayouts) {
  sa::Xoshiro256 rng(8);
  std::vector<uint64_t> values(2000);
  for (auto& v : values) {
    v = rng.Below(10'000);
  }
  for (const int layout : {0, 1}) {
    void* set = saSetCreate(values.data(), values.size(), layout, /*replicated=*/1, 0, -1);
    ASSERT_NE(set, nullptr);
    EXPECT_GT(saSetSize(set), 0u);
    EXPECT_LE(saSetSize(set), values.size());
    for (const uint64_t v : values) {
      ASSERT_EQ(saSetContains(set, v), 1);
    }
    EXPECT_EQ(saSetContains(set, 999'999), 0);
    EXPECT_GT(saSetFootprintBytes(set), 0u);
    saSetFree(set);
  }
}

TEST_F(CollectionsAbiTest, MapLookups) {
  std::vector<uint64_t> keys = {10, 20, 30, 20};  // duplicate key: last wins
  std::vector<uint64_t> values = {1, 2, 3, 9};
  void* map = saMapCreate(keys.data(), values.data(), keys.size(), 0, 1, -1);
  EXPECT_EQ(saMapSize(map), 3u);
  uint64_t out = 0;
  ASSERT_EQ(saMapGet(map, 20, &out), 1);
  EXPECT_EQ(out, 9u);
  ASSERT_EQ(saMapGet(map, 10, &out), 1);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(saMapGet(map, 40, &out), 0);
  saMapFree(map);
}

TEST_F(CollectionsAbiTest, PlacementFlagsValidated) {
  std::vector<uint64_t> values = {1, 2, 3};
  EXPECT_DEATH(saSetCreate(values.data(), values.size(), 0, 1, 1, -1), "combined");
  EXPECT_DEATH(saEncodedCreate(values.data(), values.size(), 9, 0, 0, -1), "encoding");
}

// Indices arrive from foreign callers, so the encoded-array reads are hard
// checks (as saArrayGet/saArrayCountIf are), not debug asserts that vanish
// in release builds.
TEST_F(CollectionsAbiTest, EncodedReadsRejectOutOfRangeInput) {
  std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  for (int encoding = 0; encoding <= 3; ++encoding) {
    void* ea = saEncodedCreate(values.data(), values.size(), encoding, 0, 0, -1);
    std::vector<uint64_t> out(values.size() + 1);
    EXPECT_DEATH(saEncodedGet(ea, values.size()), "index out of range");
    EXPECT_DEATH(saEncodedGet(ea, UINT64_MAX), "index out of range");
    EXPECT_DEATH(saEncodedDecode(ea, 3, 2, out.data()), "out of bounds");
    EXPECT_DEATH(saEncodedDecode(ea, 0, values.size() + 1, out.data()), "out of bounds");
    // The edges of the valid range still work.
    EXPECT_EQ(saEncodedGet(ea, values.size() - 1), 5u);
    saEncodedDecode(ea, values.size(), values.size(), out.data());
    saEncodedDecode(ea, 0, values.size(), out.data());
    EXPECT_EQ(out[4], 5u);
    saEncodedFree(ea);
  }
}

}  // namespace
