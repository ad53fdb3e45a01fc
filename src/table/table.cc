#include "table/table.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"
#include "common/macros.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/parallel_ops.h"

namespace sa::table {
namespace {

// Decoding operators (GroupBySum, MinMaxOf, SumWhere's sum column) work in
// fixed vectors of this many rows (a few chunks at a time: large enough to
// amortize, small enough to stay cache-resident).
constexpr uint64_t kVectorRows = 4 * kChunkElems;

// Predicate scans run over chunk-aligned grains of this many rows, so each
// grain's selection bitmap is whole words (256 words: L1-resident).
constexpr uint64_t kScanGrain = smart::kChunkAlignedGrain;

// One pushdown compare on one column.
struct ColumnPredicate {
  const encodings::EncodedArray* column;
  smart::Predicate predicate;
};

// Lowers the table predicates to pushdown compares: one each, two for
// kBetween (v >= value AND v <= value2).
std::vector<ColumnPredicate> Lower(const Table& table, const std::vector<Predicate>& predicates) {
  // Indexed by Predicate::Op (kEq .. kGe).
  constexpr smart::CmpOp kCmpOf[] = {smart::CmpOp::kEq, smart::CmpOp::kNe, smart::CmpOp::kLt,
                                     smart::CmpOp::kLe, smart::CmpOp::kGt, smart::CmpOp::kGe};
  std::vector<ColumnPredicate> lowered;
  for (const Predicate& p : predicates) {
    const encodings::EncodedArray* column = &table.column(p.column);
    if (p.op == Predicate::Op::kBetween) {
      lowered.push_back({column, {smart::CmpOp::kGe, p.value}});
      lowered.push_back({column, {smart::CmpOp::kLe, p.value2}});
    } else {
      lowered.push_back({column, {kCmpOf[static_cast<int>(p.op)], p.value}});
    }
  }
  return lowered;
}

// Per-worker scan buffers, reused across a scan's grains so no grain
// allocates.
struct ScanBuffers {
  std::vector<uint64_t> selection;  // conjunction of every predicate's bitmap
  std::vector<uint64_t> bitmap;     // one predicate's bitmap
  std::vector<uint64_t> values;     // decoded sum-column rows
};

// Fills buffers->selection with the rows of [begin, end) that satisfy every
// predicate (bit j = row begin+j); returns their count.
uint64_t SelectWhere(const std::vector<ColumnPredicate>& predicates, int socket, uint64_t begin,
                     uint64_t end, ScanBuffers* buffers) {
  const uint64_t words = (end - begin + kWordBits - 1) / kWordBits;
  std::vector<uint64_t>& selection = buffers->selection;
  selection.resize(words);
  if (predicates.empty()) {
    std::fill(selection.begin(), selection.end(), ~uint64_t{0});
    const auto tail = static_cast<uint32_t>(end - begin - (words - 1) * kWordBits);
    selection.back() = smart::SliceMask(tail);
    return end - begin;
  }
  uint64_t count = predicates[0].column->SelectIf(begin, end, socket, predicates[0].predicate,
                                                  selection.data());
  buffers->bitmap.resize(words);
  for (size_t p = 1; p < predicates.size() && count > 0; ++p) {
    predicates[p].column->SelectIf(begin, end, socket, predicates[p].predicate,
                                   buffers->bitmap.data());
    count = 0;
    for (uint64_t w = 0; w < words; ++w) {
      selection[w] &= buffers->bitmap[w];
      count += static_cast<uint64_t>(std::popcount(selection[w]));
    }
  }
  return count;
}

// Open-addressing (linear probing) key -> sum map for one worker's groups:
// a row costs one hash and, for a key seen before, no allocation.
class GroupSums {
 public:
  GroupSums() : slots_(16) {}

  void Add(uint64_t key, uint64_t value) {
    for (size_t i = SlotOf(key);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.used && slot.key == key) {
        slot.sum += value;
        return;
      }
      if (!slot.used) {
        slot = {key, value, true};
        if (2 * ++size_ > slots_.size()) {
          Grow();
        }
        return;
      }
    }
  }

  // Appends every (key, sum) pair, in no particular order.
  void AppendTo(std::vector<std::pair<uint64_t, uint64_t>>* out) const {
    for (const Slot& slot : slots_) {
      if (slot.used) {
        out->emplace_back(slot.key, slot.sum);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t sum = 0;
    bool used = false;
  };

  size_t SlotOf(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & (slots_.size() - 1);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) {
        Add(slot.key, slot.sum);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace

Table::Builder& Table::Builder::AddColumn(std::string name, std::vector<uint64_t> values,
                                          std::optional<encodings::Encoding> encoding) {
  for (const auto& staged : staged_) {
    SA_CHECK_MSG(staged.name != name, "duplicate column name");
  }
  if (!staged_.empty()) {
    SA_CHECK_MSG(values.size() == staged_.front().values.size(),
                 "all columns must have the same row count");
  }
  staged_.push_back({std::move(name), std::move(values), encoding});
  return *this;
}

Table Table::Builder::Build(const smart::PlacementSpec& placement,
                            const platform::Topology& topology) {
  SA_CHECK_MSG(!staged_.empty(), "tables need at least one column");
  Table table;
  table.num_rows_ = staged_.front().values.size();
  SA_CHECK_MSG(table.num_rows_ > 0, "tables cannot be empty");
  for (auto& staged : staged_) {
    table.names_.push_back(staged.name);
    table.columns_.push_back(
        encodings::EncodedArray::Encode(staged.values, staged.encoding, placement, topology));
  }
  staged_.clear();
  return table;
}

uint64_t Table::footprint_bytes() const {
  uint64_t total = 0;
  for (const auto& column : columns_) {
    total += column->footprint_bytes();
  }
  return total;
}

const encodings::EncodedArray& Table::column(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return *columns_[i];
    }
  }
  SA_CHECK_MSG(false, "unknown column");
  __builtin_unreachable();
}

uint64_t CountWhere(rts::WorkerPool& pool, const Table& table,
                    const std::vector<Predicate>& predicates) {
  const auto lowered = Lower(table, predicates);
  rts::WorkerLocal<ScanBuffers> buffers(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kScanGrain, [&](int worker, uint64_t b, uint64_t e) {
        return SelectWhere(lowered, pool.worker_socket(worker), b, e, &buffers[worker]);
      });
}

uint64_t SumWhere(rts::WorkerPool& pool, const Table& table, const std::string& sum_column,
                  const std::vector<Predicate>& predicates) {
  const auto lowered = Lower(table, predicates);
  const encodings::EncodedArray& values = table.column(sum_column);
  constexpr uint64_t kVectorWords = kVectorRows / kWordBits;
  rts::WorkerLocal<ScanBuffers> buffers(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kScanGrain, [&](int worker, uint64_t b, uint64_t e) {
        const int socket = pool.worker_socket(worker);
        ScanBuffers& buf = buffers[worker];
        if (SelectWhere(lowered, socket, b, e, &buf) == 0) {
          return uint64_t{0};
        }
        const std::vector<uint64_t>& selection = buf.selection;
        buf.values.resize(kVectorRows);
        uint64_t sum = 0;
        // Decode only runs of non-zero mask words (at most a vector at a
        // time), then add the rows under the mask.
        for (uint64_t w = 0; w < selection.size();) {
          if (selection[w] == 0) {
            ++w;
            continue;
          }
          uint64_t run_end = w + 1;
          while (run_end < selection.size() && selection[run_end] != 0 &&
                 run_end - w < kVectorWords) {
            ++run_end;
          }
          const uint64_t row = b + w * kWordBits;
          values.Decode(row, std::min(e, b + run_end * kWordBits), socket, buf.values.data());
          for (uint64_t x = w; x < run_end; ++x) {
            const uint64_t* v = buf.values.data() + (x - w) * kWordBits;
            for (uint64_t mask = selection[x]; mask != 0; mask &= mask - 1) {
              sum += v[std::countr_zero(mask)];
            }
          }
          w = run_end;
        }
        return sum;
      });
}

std::vector<std::pair<uint64_t, uint64_t>> GroupBySum(rts::WorkerPool& pool, const Table& table,
                                                      const std::string& key_column,
                                                      const std::string& value_column) {
  const encodings::EncodedArray& keys = table.column(key_column);
  const encodings::EncodedArray& values = table.column(value_column);

  struct Partial {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> values;
    GroupSums groups;
  };
  rts::WorkerLocal<Partial> partials(pool.num_workers());
  rts::ParallelFor(pool, 0, table.num_rows(), kVectorRows,
                   [&](int worker, uint64_t b, uint64_t e) {
                     const int socket = pool.worker_socket(worker);
                     Partial& partial = partials[worker];
                     partial.keys.resize(e - b);
                     partial.values.resize(e - b);
                     keys.Decode(b, e, socket, partial.keys.data());
                     values.Decode(b, e, socket, partial.values.data());
                     for (uint64_t i = 0; i < e - b; ++i) {
                       partial.groups.Add(partial.keys[i], partial.values[i]);
                     }
                   });
  // Merge: gather every worker's groups, sort once by key, and fold the
  // runs of equal keys.
  std::vector<std::pair<uint64_t, uint64_t>> groups;
  partials.ForEach([&](int, Partial& partial) { partial.groups.AppendTo(&groups); });
  std::sort(groups.begin(), groups.end());
  size_t kept = 0;
  for (const auto& [key, sum] : groups) {
    if (kept > 0 && groups[kept - 1].first == key) {
      groups[kept - 1].second += sum;
    } else {
      groups[kept++] = {key, sum};
    }
  }
  groups.resize(kept);
  return groups;
}

MinMax MinMaxOf(rts::WorkerPool& pool, const Table& table, const std::string& column) {
  const encodings::EncodedArray& values = table.column(column);
  std::vector<MinMax> partials(pool.num_workers(), {~uint64_t{0}, 0});
  rts::WorkerLocal<std::vector<uint64_t>> buffers(pool.num_workers());
  rts::ParallelFor(pool, 0, table.num_rows(), kVectorRows,
                   [&](int worker, uint64_t b, uint64_t e) {
                     std::vector<uint64_t>& buffer = buffers[worker];
                     buffer.resize(e - b);
                     values.Decode(b, e, pool.worker_socket(worker), buffer.data());
                     auto& mm = partials[worker];
                     for (const uint64_t v : buffer) {
                       mm.min = std::min(mm.min, v);
                       mm.max = std::max(mm.max, v);
                     }
                   });
  MinMax result{~uint64_t{0}, 0};
  for (const auto& mm : partials) {
    result.min = std::min(result.min, mm.min);
    result.max = std::max(result.max, mm.max);
  }
  return result;
}

}  // namespace sa::table
