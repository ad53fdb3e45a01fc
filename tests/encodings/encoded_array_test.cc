// Round-trip, zone-map, pushdown-selection and footprint properties of
// every encoding x placement.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "encodings/encoded_array.h"
#include "smart/parallel_ops.h"

namespace sa::encodings {
namespace {

class EncodedArrayTest : public ::testing::TestWithParam<Encoding> {
 protected:
  EncodedArrayTest() : topo_(platform::Topology::Synthetic(2, 2)) {}

  void VerifyRoundTrip(const std::vector<uint64_t>& values,
                       const smart::PlacementSpec& placement) {
    const auto array = EncodedArray::Encode(values, GetParam(), placement, topo_);
    ASSERT_EQ(array->encoding(), GetParam());
    ASSERT_EQ(array->length(), values.size());
    // Random access.
    for (uint64_t i = 0; i < values.size(); i += 7) {
      ASSERT_EQ(array->Get(i, 0), values[i]) << "index " << i;
    }
    // Scan decode, with odd boundaries (degenerating gracefully for tiny
    // inputs).
    const uint64_t begin = values.size() > 6 ? values.size() / 3 + 1 : 0;
    const uint64_t end = values.size() > 6 ? values.size() - 2 : values.size();
    std::vector<uint64_t> out(end - begin);
    array->Decode(begin, end, 0, out.data());
    for (uint64_t i = begin; i < end; ++i) {
      ASSERT_EQ(out[i - begin], values[i]) << "decode index " << i;
    }
  }

  platform::Topology topo_;
};

std::vector<uint64_t> MixedData(size_t n) {
  // Runs + jitter + a large base: exercises every encoding non-trivially.
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(7);
  uint64_t current = 1 << 20;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(10) == 0) {
      current = (1 << 20) + rng.Below(1 << 10);
    }
    v[i] = current;
  }
  return v;
}

TEST_P(EncodedArrayTest, RoundTripInterleaved) {
  VerifyRoundTrip(MixedData(10'000), smart::PlacementSpec::Interleaved());
}

TEST_P(EncodedArrayTest, RoundTripReplicated) {
  VerifyRoundTrip(MixedData(5'000), smart::PlacementSpec::Replicated());
}

TEST_P(EncodedArrayTest, RoundTripSingleElement) {
  VerifyRoundTrip({42}, smart::PlacementSpec::OsDefault());
}

TEST_P(EncodedArrayTest, RoundTripConstantData) {
  VerifyRoundTrip(std::vector<uint64_t>(1000, 7), smart::PlacementSpec::OsDefault());
}

TEST_P(EncodedArrayTest, RoundTripNonChunkAlignedLength) {
  auto values = MixedData(777);
  VerifyRoundTrip(values, smart::PlacementSpec::Interleaved());
}

// Every payload chunk's zone must bracket the values stored in it, on every
// replica: the pushdown scans skip chunks on the zone's word alone.
TEST_P(EncodedArrayTest, PayloadZonesBracketStoredValues) {
  for (const auto& placement :
       {smart::PlacementSpec::Interleaved(), smart::PlacementSpec::Replicated()}) {
    const auto array = EncodedArray::Encode(MixedData(1'000), GetParam(), placement, topo_);
    ASSERT_FALSE(array->payloads().empty());
    for (const smart::SmartArray* payload : array->payloads()) {
      std::vector<uint64_t> values(payload->length());
      for (int socket = 0; socket < topo_.num_sockets(); ++socket) {
        smart::UnpackRange(*payload, payload->GetReplica(socket), 0, payload->length(),
                           values.data());
        for (uint64_t chunk = 0; chunk < payload->num_chunks(); ++chunk) {
          const auto first = values.begin() + static_cast<int64_t>(chunk * kChunkElems);
          const auto last = values.begin() + static_cast<int64_t>(std::min(
                                                 payload->length(), (chunk + 1) * kChunkElems));
          const auto [lo, hi] = std::minmax_element(first, last);
          ASSERT_LE(payload->ZoneMin(chunk), *lo) << "chunk " << chunk << " socket " << socket;
          ASSERT_GE(payload->ZoneMax(chunk), *hi) << "chunk " << chunk << " socket " << socket;
        }
      }
    }
  }
}

// SelectIf over ragged ranges agrees with the scalar predicate, for every
// operator and for constants absent from, inside and outside the data.
TEST_P(EncodedArrayTest, SelectIfMatchesScalarPredicate) {
  const auto values = MixedData(3'000);
  const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const uint64_t constants[] = {0,       *min_it - 1, *min_it, values[1'500], values[1'500] + 1,
                                *max_it, *max_it + 1, ~uint64_t{0}};
  const auto array = EncodedArray::Encode(values, GetParam(), smart::PlacementSpec::Replicated(),
                                          topo_);
  const std::pair<uint64_t, uint64_t> ranges[] = {{0, 3'000}, {1, 64}, {63, 65}, {100, 2'999}};
  std::vector<uint64_t> bitmap(values.size() / kWordBits + 2);
  for (const auto& [begin, end] : ranges) {
    for (const uint64_t c : constants) {
      for (int op = 0; op <= static_cast<int>(smart::CmpOp::kGe); ++op) {
        const smart::Predicate p{static_cast<smart::CmpOp>(op), c};
        std::fill(bitmap.begin(), bitmap.end(), ~uint64_t{0});
        const uint64_t count = array->SelectIf(begin, end, 1, p, bitmap.data());
        uint64_t want = 0;
        for (uint64_t i = begin; i < end; ++i) {
          const bool match = smart::Matches(p, values[i]);
          want += match ? 1 : 0;
          const uint64_t j = i - begin;
          ASSERT_EQ((bitmap[j / kWordBits] >> (j % kWordBits)) & 1, match ? 1u : 0u)
              << "row " << i << " " << smart::ToString(p.op) << " " << c;
        }
        const uint64_t j = end - begin;
        if (j % kWordBits != 0) {
          ASSERT_EQ(bitmap[j / kWordBits] >> (j % kWordBits), 0u) << "bits past the range";
        }
        ASSERT_EQ(count, want) << smart::ToString(p.op) << " " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodedArrayTest,
                         ::testing::Values(Encoding::kBitPacked, Encoding::kDictionary,
                                           Encoding::kRunLength, Encoding::kFrameOfReference),
                         [](const auto& info) {
                           std::string name = ToString(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(EncodedArrayFootprintTest, EachTechniqueWinsOnItsData) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto placement = smart::PlacementSpec::Interleaved();
  auto footprint = [&](const std::vector<uint64_t>& values, Encoding e) {
    return EncodedArray::Encode(values, e, placement, topo)->footprint_bytes();
  };

  // Long runs: RLE beats bit packing by orders of magnitude.
  std::vector<uint64_t> runs(100'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 5000;
  }
  EXPECT_LT(footprint(runs, Encoding::kRunLength) * 10,
            footprint(runs, Encoding::kBitPacked));

  // Few distinct huge values: dictionary wins.
  std::vector<uint64_t> lowcard(100'000);
  Xoshiro256 rng(4);
  for (auto& v : lowcard) {
    v = (uint64_t{1} << 50) + rng.Below(16);
  }
  EXPECT_LT(footprint(lowcard, Encoding::kDictionary) * 2,
            footprint(lowcard, Encoding::kBitPacked));

  // Clustered large values: frame-of-reference wins.
  std::vector<uint64_t> clustered(100'000);
  for (size_t i = 0; i < clustered.size(); ++i) {
    clustered[i] = (uint64_t{1} << 40) + i + rng.Below(32);
  }
  EXPECT_LT(footprint(clustered, Encoding::kFrameOfReference) * 2,
            footprint(clustered, Encoding::kBitPacked));
}

TEST(EncodedArrayFootprintTest, ReplicationDoublesEveryEncoding) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto values = MixedData(20'000);
  for (const Encoding e : {Encoding::kBitPacked, Encoding::kDictionary, Encoding::kRunLength,
                           Encoding::kFrameOfReference}) {
    const auto single =
        EncodedArray::Encode(values, e, smart::PlacementSpec::Interleaved(), topo);
    const auto repl = EncodedArray::Encode(values, e, smart::PlacementSpec::Replicated(), topo);
    EXPECT_EQ(repl->footprint_bytes(), 2 * single->footprint_bytes()) << ToString(e);
    // Replica 1 serves the same data.
    for (uint64_t i = 0; i < values.size(); i += 1111) {
      EXPECT_EQ(repl->Get(i, 1), values[i]);
    }
  }
}

TEST(EncodedArrayAutoTest, AutoSelectionMatchesChooser) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  std::vector<uint64_t> runs(50'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 1000;
  }
  const auto array =
      EncodedArray::Encode(runs, std::nullopt, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array->encoding(), ChooseEncoding(AnalyzeValues(runs)));
  EXPECT_EQ(array->encoding(), Encoding::kRunLength);
  EXPECT_EQ(array->Get(12'345, 0), runs[12'345]);
}

TEST(RunLengthArrayTest, RunBoundaryAccess) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  std::vector<uint64_t> values;
  for (uint64_t run = 0; run < 50; ++run) {
    for (uint64_t i = 0; i < run + 1; ++i) {
      values.push_back(run * 3);
    }
  }
  RunLengthArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array.num_runs(), 50u);
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array.Get(i, 0), values[i]) << "index " << i;
  }
}

TEST(DictionaryArrayTest, CodesAreOrderPreserving) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  const std::vector<uint64_t> values = {100, 5, 100, 42, 5, 99};
  DictionaryArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array.dictionary_size(), 4u);  // {5, 42, 99, 100}
  EXPECT_EQ(array.code_bits(), 2u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(array.Get(i, 0), values[i]);
  }
}

TEST(FrameOfReferenceTest, DeltaBitsAreChunkLocal) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  // Values huge, chunk-local spread tiny: deltas must be narrow.
  std::vector<uint64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (uint64_t{1} << 55) + (i / kChunkElems) * 1'000'000 + (i % 7);
  }
  FrameOfReferenceArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_LE(array.delta_bits(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array.Get(i, 0), values[i]);
  }
}

}  // namespace
}  // namespace sa::encodings
