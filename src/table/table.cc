#include "table/table.h"

#include <algorithm>

#include "common/bits.h"
#include "common/macros.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"

namespace sa::table {
namespace {

// Scans decode in fixed vectors of this many rows (a few chunks at a time:
// large enough to amortize, small enough to stay cache-resident).
constexpr uint64_t kVectorRows = 4 * kChunkElems;

// Per-worker decode buffers, reused across a scan's batches so no batch
// allocates.
struct ScanBuffers {
  std::vector<std::vector<uint64_t>> predicates;  // one per predicate column
  std::vector<uint64_t> values;
};

// Evaluates a conjunctive predicate set over a decoded row vector, calling
// fn(row_offset) for every qualifying row.
template <typename Fn>
void ForEachMatch(const std::vector<Predicate>& predicates,
                  const std::vector<const encodings::EncodedArray*>& pred_columns, int socket,
                  uint64_t begin, uint64_t end, std::vector<std::vector<uint64_t>>* buffers,
                  const Fn& fn) {
  const uint64_t count = end - begin;
  buffers->resize(predicates.size());
  for (size_t p = 0; p < predicates.size(); ++p) {
    (*buffers)[p].resize(count);
    pred_columns[p]->Decode(begin, end, socket, (*buffers)[p].data());
  }
  for (uint64_t i = 0; i < count; ++i) {
    bool match = true;
    for (size_t p = 0; p < predicates.size(); ++p) {
      if (!predicates[p].Matches((*buffers)[p][i])) {
        match = false;
        break;
      }
    }
    if (match) {
      fn(i);
    }
  }
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

std::vector<const encodings::EncodedArray*> ResolveColumns(
    const Table& table, const std::vector<Predicate>& predicates) {
  std::vector<const encodings::EncodedArray*> columns;
  columns.reserve(predicates.size());
  for (const Predicate& p : predicates) {
    columns.push_back(&table.column(p.column));
  }
  return columns;
}

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

bool Predicate::Matches(uint64_t v) const {
  switch (op) {
    case Op::kEq:
      return v == value;
    case Op::kNe:
      return v != value;
    case Op::kLt:
      return v < value;
    case Op::kLe:
      return v <= value;
    case Op::kGt:
      return v > value;
    case Op::kGe:
      return v >= value;
    case Op::kBetween:
      return v >= value && v <= value2;
  }
  return false;
}

uint64_t CountWhere(rts::WorkerPool& pool, const Table& table,
                    const std::vector<Predicate>& predicates) {
  const auto columns = ResolveColumns(table, predicates);
  rts::WorkerLocal<ScanBuffers> buffers(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kVectorRows, [&](int worker, uint64_t b, uint64_t e) {
        uint64_t local = 0;
        ForEachMatch(predicates, columns, pool.worker_socket(worker), b, e,
                     &buffers[worker].predicates, [&](uint64_t) { ++local; });
        return local;
      });
}

uint64_t SumWhere(rts::WorkerPool& pool, const Table& table, const std::string& sum_column,
                  const std::vector<Predicate>& predicates) {
  const auto columns = ResolveColumns(table, predicates);
  const encodings::EncodedArray& values = table.column(sum_column);
  rts::WorkerLocal<ScanBuffers> buffers(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kVectorRows, [&](int worker, uint64_t b, uint64_t e) {
        const int socket = pool.worker_socket(worker);
        ScanBuffers& buf = buffers[worker];
        buf.values.resize(e - b);
        values.Decode(b, e, socket, buf.values.data());
        uint64_t local = 0;
        ForEachMatch(predicates, columns, socket, b, e, &buf.predicates,
                     [&](uint64_t i) { local += buf.values[i]; });
        return local;
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
