// Column-store substrate: schema handling, operator correctness against
// brute-force references, encodings/placements composition.
#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "smart/parallel_ops.h"
#include "table/table.h"

namespace sa::table {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {
    Xoshiro256 rng(5);
    quantity_.resize(kRows);
    price_.resize(kRows);
    region_.resize(kRows);
    for (uint64_t i = 0; i < kRows; ++i) {
      quantity_[i] = 1 + rng.Below(50);
      price_[i] = 100 + rng.Below(10'000);
      region_[i] = rng.Below(8);
    }
  }

  Table Build(const smart::PlacementSpec& placement = smart::PlacementSpec::Interleaved()) {
    Table::Builder builder;
    builder.AddColumn("quantity", quantity_)
        .AddColumn("price", price_)
        .AddColumn("region", region_);
    return builder.Build(placement, topo_);
  }

  static constexpr uint64_t kRows = 50'000;
  platform::Topology topo_;
  rts::WorkerPool pool_;
  std::vector<uint64_t> quantity_;
  std::vector<uint64_t> price_;
  std::vector<uint64_t> region_;
};

TEST_F(TableTest, SchemaBasics) {
  const Table t = Build();
  EXPECT_EQ(t.num_rows(), kRows);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.column("price").length(), kRows);
  EXPECT_GT(t.footprint_bytes(), 0u);
  // Columns are compressed: far below 3 x 8 bytes/row.
  EXPECT_LT(t.footprint_bytes(), kRows * 24 / 2);
}

TEST_F(TableTest, CountWhereMatchesBruteForce) {
  const Table t = Build();
  const std::vector<Predicate> predicates = {
      {"region", Predicate::Op::kEq, 3, 0},
      {"quantity", Predicate::Op::kGe, 25, 0},
  };
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    want += region_[i] == 3 && quantity_[i] >= 25;
  }
  EXPECT_EQ(CountWhere(pool_, t, predicates), want);
}

TEST_F(TableTest, SumWhereMatchesBruteForce) {
  const Table t = Build();
  const std::vector<Predicate> predicates = {
      {"price", Predicate::Op::kBetween, 1000, 5000},
  };
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (price_[i] >= 1000 && price_[i] <= 5000) {
      want += quantity_[i];
    }
  }
  EXPECT_EQ(SumWhere(pool_, t, "quantity", predicates), want);
}

TEST_F(TableTest, EmptyPredicateListSelectsEverything) {
  const Table t = Build();
  EXPECT_EQ(CountWhere(pool_, t, {}), kRows);
  uint64_t want = 0;
  for (const uint64_t q : quantity_) {
    want += q;
  }
  EXPECT_EQ(SumWhere(pool_, t, "quantity", {}), want);
}

TEST_F(TableTest, AllPredicateOpsBehave) {
  const Table t = Build();
  auto count = [&](Predicate::Op op, uint64_t v, uint64_t v2 = 0) {
    return CountWhere(pool_, t, {{"region", op, v, v2}});
  };
  std::map<uint64_t, uint64_t> histogram;
  for (const uint64_t r : region_) {
    ++histogram[r];
  }
  EXPECT_EQ(count(Predicate::Op::kEq, 2), histogram[2]);
  EXPECT_EQ(count(Predicate::Op::kNe, 2), kRows - histogram[2]);
  EXPECT_EQ(count(Predicate::Op::kLt, 2), histogram[0] + histogram[1]);
  EXPECT_EQ(count(Predicate::Op::kLe, 1), histogram[0] + histogram[1]);
  EXPECT_EQ(count(Predicate::Op::kGt, 5), histogram[6] + histogram[7]);
  EXPECT_EQ(count(Predicate::Op::kGe, 6), histogram[6] + histogram[7]);
  EXPECT_EQ(count(Predicate::Op::kBetween, 2, 4),
            histogram[2] + histogram[3] + histogram[4]);
}

TEST_F(TableTest, GroupBySumMatchesBruteForce) {
  const Table t = Build();
  std::map<uint64_t, uint64_t> want;
  for (uint64_t i = 0; i < kRows; ++i) {
    want[region_[i]] += price_[i];
  }
  const auto got = GroupBySum(pool_, t, "region", "price");
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, sum] : got) {
    EXPECT_EQ(sum, want[key]) << "region " << key;
  }
  // Sorted by key.
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].first, got[i].first);
  }
}

// Thousands of distinct keys, 0 and the all-ones key among them: every
// worker's map grows many times, and the same key lands in several workers'
// maps, so the merge must fold them.
TEST_F(TableTest, GroupBySumWithManyKeysMatchesBruteForce) {
  Xoshiro256 rng(9);
  std::vector<uint64_t> keys(kRows);
  std::vector<uint64_t> values(kRows);
  std::map<uint64_t, uint64_t> want;
  for (uint64_t i = 0; i < kRows; ++i) {
    const uint64_t pick = rng.Below(5000);
    keys[i] = pick == 0 ? ~uint64_t{0} : pick == 1 ? 0 : pick * 0x100000001ULL;
    values[i] = rng.Below(1'000'000);
    want[keys[i]] += values[i];
  }
  Table::Builder builder;
  builder.AddColumn("k", keys).AddColumn("v", values);
  const Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo_);
  const auto got = GroupBySum(pool_, t, "k", "v");
  const std::vector<std::pair<uint64_t, uint64_t>> want_sorted(want.begin(), want.end());
  EXPECT_EQ(got, want_sorted);
}

TEST_F(TableTest, MinMaxMatchesBruteForce) {
  const Table t = Build();
  const auto mm = MinMaxOf(pool_, t, "price");
  EXPECT_EQ(mm.min, *std::min_element(price_.begin(), price_.end()));
  EXPECT_EQ(mm.max, *std::max_element(price_.begin(), price_.end()));
}

TEST_F(TableTest, ForcedEncodingsStillAnswerCorrectly) {
  Table::Builder builder;
  builder.AddColumn("quantity", quantity_, encodings::Encoding::kFrameOfReference)
      .AddColumn("price", price_, encodings::Encoding::kBitPacked)
      .AddColumn("region", region_, encodings::Encoding::kDictionary);
  const Table t = builder.Build(smart::PlacementSpec::Replicated(), topo_);
  EXPECT_EQ(t.column("region").encoding(), encodings::Encoding::kDictionary);
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (region_[i] == 1) {
      want += price_[i];
    }
  }
  EXPECT_EQ(SumWhere(pool_, t, "price", {{"region", Predicate::Op::kEq, 1, 0}}), want);
}

TEST_F(TableTest, BuilderRejectsSchemaErrors) {
  Table::Builder builder;
  builder.AddColumn("a", {1, 2, 3});
  EXPECT_DEATH(builder.AddColumn("a", {4, 5, 6}), "duplicate");
  EXPECT_DEATH(builder.AddColumn("b", {1, 2}), "row count");
  const Table t = Build();
  EXPECT_DEATH(t.column("nope"), "unknown column");
}

// ---- Differential grid: the pushdown operators against brute force ----
//
// Every operator (kNe and kBetween included), constants below the minimum,
// above and at the maximum, between dictionary entries and absent from the
// data, over each forced encoding x placement, at row counts around the
// chunk and scan-grain edges, with zero to three predicates and SUM over a
// predicate column.

bool Holds(const Predicate& p, uint64_t v) {
  switch (p.op) {
    case Predicate::Op::kEq:
      return v == p.value;
    case Predicate::Op::kNe:
      return v != p.value;
    case Predicate::Op::kLt:
      return v < p.value;
    case Predicate::Op::kLe:
      return v <= p.value;
    case Predicate::Op::kGt:
      return v > p.value;
    case Predicate::Op::kGe:
      return v >= p.value;
    case Predicate::Op::kBetween:
      return v >= p.value && v <= p.value2;
  }
  return false;
}

class TableGridTest
    : public ::testing::TestWithParam<std::tuple<encodings::Encoding, bool /*replicated*/>> {
 protected:
  TableGridTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {}

  // Column "gap": sparse values 10, 13, 16, ... (constants in between are
  // absent from any dictionary); "run": runs of equal values; "wide":
  // 40-bit values with a narrow spread per chunk.
  void Fill(uint64_t rows) {
    Xoshiro256 rng(rows);
    columns_ = {{"gap", {}}, {"run", {}}, {"wide", {}}};
    uint64_t run_value = 5;
    for (uint64_t i = 0; i < rows; ++i) {
      columns_["gap"].push_back(10 + 3 * rng.Below(40));
      if (rng.Below(8) == 0) {
        run_value = 5 * (1 + rng.Below(1000));
      }
      columns_["run"].push_back(run_value);
      columns_["wide"].push_back((uint64_t{1} << 40) + (i / 7) * 11 + rng.Below(1 << 12));
    }
  }

  Table Build() {
    const auto [encoding, replicated] = GetParam();
    Table::Builder builder;
    for (const auto& [name, values] : columns_) {
      builder.AddColumn(name, values, encoding);
    }
    return builder.Build(
        replicated ? smart::PlacementSpec::Replicated() : smart::PlacementSpec::Interleaved(),
        topo_);
  }

  // Constants probing `name`: 0, below / at / just above the minimum, a
  // present value, just below / at / above the maximum, the top value. The
  // "just" neighbours of the gap column fall between dictionary entries.
  std::vector<uint64_t> Constants(const std::string& name) const {
    const std::vector<uint64_t>& v = columns_.at(name);
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return {0, *lo - 1, *lo, *lo + 1, v[v.size() / 2], *hi - 1, *hi, *hi + 1, ~uint64_t{0}};
  }

  void Check(const Table& t, const std::vector<Predicate>& predicates) {
    const uint64_t rows = t.num_rows();
    uint64_t want_count = 0;
    std::map<std::string, uint64_t> want_sum;
    for (uint64_t i = 0; i < rows; ++i) {
      bool match = true;
      for (const Predicate& p : predicates) {
        match = match && Holds(p, columns_.at(p.column)[i]);
      }
      if (match) {
        ++want_count;
        for (const auto& [name, values] : columns_) {
          want_sum[name] += values[i];
        }
      }
    }
    std::string where;
    for (const Predicate& p : predicates) {
      where += " " + p.column + " op" + std::to_string(static_cast<int>(p.op)) + " " +
               std::to_string(p.value) + "," + std::to_string(p.value2);
    }
    ASSERT_EQ(CountWhere(pool_, t, predicates), want_count) << rows << " rows:" << where;
    for (const auto& [name, values] : columns_) {
      ASSERT_EQ(SumWhere(pool_, t, name, predicates), want_sum[name])
          << "SUM(" << name << ") " << rows << " rows:" << where;
    }
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  std::map<std::string, std::vector<uint64_t>> columns_;
};

TEST_P(TableGridTest, CountAndSumWhereMatchBruteForce) {
  constexpr uint64_t kGrain = smart::kChunkAlignedGrain;
  const Predicate::Op ops[] = {Predicate::Op::kEq, Predicate::Op::kNe, Predicate::Op::kLt,
                               Predicate::Op::kLe, Predicate::Op::kGt, Predicate::Op::kGe};
  for (const uint64_t rows : {uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{65},
                              kGrain - 1, kGrain + 1, uint64_t{50'000}}) {
    Fill(rows);
    const Table t = Build();
    ASSERT_EQ(t.column("gap").encoding(), std::get<0>(GetParam()));
    Check(t, {});
    for (const auto& [name, values] : columns_) {
      const std::vector<uint64_t> constants = Constants(name);
      for (const Predicate::Op op : ops) {
        for (const uint64_t c : constants) {
          Check(t, {{name, op, c, 0}});
        }
      }
      // kBetween: the full range, an empty (reversed) range, a range whose
      // ends fall between entries, and a single value.
      const uint64_t lo = constants[2];
      const uint64_t hi = constants[6];
      for (const auto& [a, b] : std::vector<std::pair<uint64_t, uint64_t>>{
               {constants[1], constants[7]}, {hi, lo}, {lo + 1, hi - 1}, {hi, hi},
               {constants[4], constants[8]}}) {
        Check(t, {{name, Predicate::Op::kBetween, a, b}});
      }
    }
    // Conjunctions of two and three predicates, one on the column summed.
    const uint64_t gap_mid = columns_["gap"][rows / 2];
    const uint64_t run_mid = columns_["run"][rows / 2];
    const uint64_t wide_mid = columns_["wide"][rows / 2];
    Check(t, {{"gap", Predicate::Op::kGe, gap_mid, 0}, {"run", Predicate::Op::kNe, run_mid, 0}});
    Check(t, {{"gap", Predicate::Op::kBetween, 20, 90},
              {"run", Predicate::Op::kLe, run_mid, 0},
              {"wide", Predicate::Op::kGt, wide_mid, 0}});
    Check(t, {{"wide", Predicate::Op::kLt, wide_mid, 0},
              {"wide", Predicate::Op::kGe, columns_["wide"][0], 0},
              {"gap", Predicate::Op::kEq, gap_mid, 0}});
  }
}

INSTANTIATE_TEST_SUITE_P(
    EncodingsAndPlacements, TableGridTest,
    ::testing::Combine(::testing::Values(encodings::Encoding::kBitPacked,
                                         encodings::Encoding::kDictionary,
                                         encodings::Encoding::kRunLength,
                                         encodings::Encoding::kFrameOfReference),
                       ::testing::Bool()),
    [](const auto& param_info) {
      std::string name = encodings::ToString(std::get<0>(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (std::get<1>(param_info.param) ? "_replicated" : "_interleaved");
    });

}  // namespace
}  // namespace sa::table
