#include "encodings/encoded_array.h"

#include <algorithm>
#include <map>

#include "common/bits.h"
#include "common/macros.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::encodings {
namespace {

// Packs through the streaming seam, which also installs exact chunk zone
// bounds on every payload array (the pushdown scans trust them).
std::unique_ptr<smart::SmartArray> PackValues(std::span<const uint64_t> values, uint32_t bits,
                                              const smart::PlacementSpec& placement,
                                              const platform::Topology& topology) {
  auto array = smart::SmartArray::Allocate(values.size(), placement, bits, topology);
  smart::PackRange(*array, 0, values.size(), values.data());
  return array;
}

uint32_t MaxBits(std::span<const uint64_t> values) {
  uint64_t max_value = 0;
  for (const uint64_t v : values) {
    max_value = std::max(max_value, v);
  }
  return BitsForValue(max_value);
}

void ZeroBitmap(uint64_t begin, uint64_t end, uint64_t* bitmap) {
  std::fill_n(bitmap, (end - begin + kWordBits - 1) / kWordBits, 0);
}

// `v op c` over values base + delta, restated over the deltas. A constant
// below the base is below every value, so the compare answers the same for
// every row: all for NE/GT/GE, none for EQ/LT/LE.
smart::Predicate RebaseOnto(smart::Predicate p, uint64_t base) {
  if (p.constant >= base) {
    return {p.op, p.constant - base};
  }
  const bool all = p.op == smart::CmpOp::kNe || p.op == smart::CmpOp::kGt ||
                   p.op == smart::CmpOp::kGe;
  return all ? smart::Predicate{smart::CmpOp::kGe, 0} : smart::Predicate{smart::CmpOp::kLt, 0};
}

}  // namespace

uint64_t EncodedArray::footprint_bytes() const {
  uint64_t total = 0;
  for (const smart::SmartArray* payload : payloads_) {
    total += payload->footprint_bytes();
  }
  return total;
}

std::unique_ptr<EncodedArray> EncodedArray::Encode(std::span<const uint64_t> values,
                                                   std::optional<Encoding> encoding,
                                                   const smart::PlacementSpec& placement,
                                                   const platform::Topology& topology) {
  SA_CHECK_MSG(!values.empty(), "cannot encode an empty array");
  const Encoding chosen = encoding.value_or(ChooseEncoding(AnalyzeValues(values)));
  switch (chosen) {
    case Encoding::kBitPacked:
      return std::make_unique<BitPackedArray>(values, placement, topology);
    case Encoding::kDictionary:
      return std::make_unique<DictionaryArray>(values, placement, topology);
    case Encoding::kRunLength:
      return std::make_unique<RunLengthArray>(values, placement, topology);
    case Encoding::kFrameOfReference:
      return std::make_unique<FrameOfReferenceArray>(values, placement, topology);
  }
  return nullptr;
}

// ---- BitPackedArray ----

BitPackedArray::BitPackedArray(std::span<const uint64_t> values,
                               const smart::PlacementSpec& placement,
                               const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kBitPacked) {
  data_ = PackValues(values, MaxBits(values), placement, topology);
  payloads_ = {data_.get()};
}

uint64_t BitPackedArray::Get(uint64_t index, int socket) const {
  return data_->Get(index, data_->GetReplica(socket));
}

void BitPackedArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  smart::UnpackRange(*data_, data_->GetReplica(socket), begin, end, out);
}

uint64_t BitPackedArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                  uint64_t* bitmap) const {
  return data_->SelectIf(data_->GetReplica(socket), begin, end, p, bitmap);
}

// ---- DictionaryArray ----

DictionaryArray::DictionaryArray(std::span<const uint64_t> values,
                                 const smart::PlacementSpec& placement,
                                 const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kDictionary) {
  // Sorted dictionary; code order preserves value order, so range predicates
  // can run on codes directly (the column-store trick).
  std::vector<uint64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::map<uint64_t, uint64_t> code_of;
  for (uint64_t c = 0; c < sorted.size(); ++c) {
    code_of[sorted[c]] = c;
  }

  dictionary_ = PackValues(sorted, 64, placement, topology);
  std::vector<uint64_t> codes(values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    codes[i] = code_of.at(values[i]);
  }
  codes_ = PackValues(codes, BitsForCount(sorted.size()), placement, topology);
  payloads_ = {dictionary_.get(), codes_.get()};
}

uint64_t DictionaryArray::Get(uint64_t index, int socket) const {
  const uint64_t code = codes_->Get(index, codes_->GetReplica(socket));
  return dictionary_->Get(code, dictionary_->GetReplica(socket));
}

void DictionaryArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  smart::UnpackRange(*codes_, codes_->GetReplica(socket), begin, end, out);
  const uint64_t* dict = dictionary_->GetReplica(socket);  // 64-bit: native words
  for (uint64_t i = 0; i < end - begin; ++i) {
    out[i] = dict[out[i]];
  }
}

uint64_t DictionaryArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                   uint64_t* bitmap) const {
  // Codes [lower, upper) hold the constant (empty when it is absent); codes
  // below `lower` hold smaller values, codes from `upper` on larger ones.
  const uint64_t* dict = dictionary_->GetReplica(socket);
  const uint64_t size = dictionary_->length();
  const auto lower = static_cast<uint64_t>(std::lower_bound(dict, dict + size, p.constant) - dict);
  const bool present = lower < size && dict[lower] == p.constant;
  const uint64_t upper = lower + (present ? 1 : 0);
  constexpr smart::Predicate kNone{smart::CmpOp::kLt, 0};
  constexpr smart::Predicate kAll{smart::CmpOp::kGe, 0};
  smart::Predicate on_codes;
  switch (p.op) {
    case smart::CmpOp::kEq:
      on_codes = present ? smart::Predicate{smart::CmpOp::kEq, lower} : kNone;
      break;
    case smart::CmpOp::kNe:
      on_codes = present ? smart::Predicate{smart::CmpOp::kNe, lower} : kAll;
      break;
    case smart::CmpOp::kLt:
      on_codes = {smart::CmpOp::kLt, lower};
      break;
    case smart::CmpOp::kLe:
      on_codes = {smart::CmpOp::kLt, upper};
      break;
    case smart::CmpOp::kGt:
      on_codes = {smart::CmpOp::kGe, upper};
      break;
    case smart::CmpOp::kGe:
      on_codes = {smart::CmpOp::kGe, lower};
      break;
  }
  return codes_->SelectIf(codes_->GetReplica(socket), begin, end, on_codes, bitmap);
}

// ---- RunLengthArray ----

RunLengthArray::RunLengthArray(std::span<const uint64_t> values,
                               const smart::PlacementSpec& placement,
                               const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kRunLength) {
  std::vector<uint64_t> starts;
  std::vector<uint64_t> run_values;
  for (uint64_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i] != values[i - 1]) {
      starts.push_back(i);
      run_values.push_back(values[i]);
    }
  }
  run_starts_ = PackValues(starts, BitsForValue(values.size() - 1), placement, topology);
  run_values_ = PackValues(run_values, MaxBits(run_values), placement, topology);
  payloads_ = {run_starts_.get(), run_values_.get()};
}

uint64_t RunLengthArray::FindRun(uint64_t index, const uint64_t* starts_replica) const {
  // Largest run whose start <= index (starts are strictly increasing).
  const auto& codec = smart::CodecFor(run_starts_->bits());
  uint64_t lo = 0;
  uint64_t hi = run_starts_->length();  // exclusive
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (codec.get(starts_replica, mid) <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t RunLengthArray::Get(uint64_t index, int socket) const {
  SA_DCHECK(index < length_);
  const uint64_t run = FindRun(index, run_starts_->GetReplica(socket));
  return run_values_->Get(run, run_values_->GetReplica(socket));
}

template <typename Fn>
void RunLengthArray::ForEachRun(uint64_t begin, uint64_t end, int socket, const Fn& fn) const {
  if (begin >= end) {
    return;
  }
  const uint64_t* starts = run_starts_->GetReplica(socket);
  const uint64_t* rvalues = run_values_->GetReplica(socket);
  const auto& starts_codec = smart::CodecFor(run_starts_->bits());
  const auto& values_codec = smart::CodecFor(run_values_->bits());
  const uint64_t num_runs = run_values_->length();
  for (uint64_t run = FindRun(begin, starts), lo = begin; lo < end; ++run) {
    const uint64_t next_start = run + 1 < num_runs ? starts_codec.get(starts, run + 1) : length_;
    const uint64_t hi = std::min(end, next_start);
    fn(lo, hi, values_codec.get(rvalues, run));
    lo = hi;
  }
}

void RunLengthArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  ForEachRun(begin, end, socket, [&](uint64_t lo, uint64_t hi, uint64_t value) {
    std::fill(out + (lo - begin), out + (hi - begin), value);
  });
}

uint64_t RunLengthArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                  uint64_t* bitmap) const {
  // One compare per run, then the run's rows are set as a bit range.
  ZeroBitmap(begin, end, bitmap);
  uint64_t count = 0;
  ForEachRun(begin, end, socket, [&](uint64_t lo, uint64_t hi, uint64_t value) {
    if (smart::Matches(p, value)) {
      smart::SetBitRange(bitmap, lo - begin, hi - begin);
      count += hi - lo;
    }
  });
  return count;
}

// ---- FrameOfReferenceArray ----

FrameOfReferenceArray::FrameOfReferenceArray(std::span<const uint64_t> values,
                                             const smart::PlacementSpec& placement,
                                             const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kFrameOfReference) {
  const uint64_t chunks = (values.size() + kChunkElems - 1) / kChunkElems;
  std::vector<uint64_t> bases(chunks);
  uint32_t delta_bits = 1;
  for (uint64_t c = 0; c < chunks; ++c) {
    const uint64_t begin = c * kChunkElems;
    const uint64_t end = std::min<uint64_t>(values.size(), begin + kChunkElems);
    uint64_t lo = values[begin];
    uint64_t hi = values[begin];
    for (uint64_t i = begin; i < end; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    bases[c] = lo;
    delta_bits = std::max(delta_bits, BitsForValue(hi - lo));
  }
  std::vector<uint64_t> deltas(values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    deltas[i] = values[i] - bases[i / kChunkElems];
  }
  bases_ = PackValues(bases, 64, placement, topology);
  deltas_ = PackValues(deltas, delta_bits, placement, topology);
  payloads_ = {bases_.get(), deltas_.get()};
}

uint64_t FrameOfReferenceArray::Get(uint64_t index, int socket) const {
  SA_DCHECK(index < length_);
  const uint64_t base =
      smart::BitCompressedArray<64>::GetImpl(bases_->GetReplica(socket), index / kChunkElems);
  return base + deltas_->Get(index, deltas_->GetReplica(socket));
}

void FrameOfReferenceArray::Decode(uint64_t begin, uint64_t end, int socket,
                                   uint64_t* out) const {
  smart::UnpackRange(*deltas_, deltas_->GetReplica(socket), begin, end, out);
  const uint64_t* bases = bases_->GetReplica(socket);  // 64-bit: native words
  for (uint64_t i = begin; i < end; ++i) {
    out[i - begin] += bases[i / kChunkElems];
  }
}

uint64_t FrameOfReferenceArray::SelectIf(uint64_t begin, uint64_t end, int socket,
                                         smart::Predicate p, uint64_t* bitmap) const {
  // Per chunk, the predicate is rebased onto the chunk's deltas and runs on
  // the packed delta words.
  ZeroBitmap(begin, end, bitmap);
  const uint64_t* bases = bases_->GetReplica(socket);
  const uint64_t* deltas = deltas_->GetReplica(socket);
  const uint32_t delta_bits = deltas_->bits();
  const auto& codec = smart::CodecFor(delta_bits);
  uint64_t count = 0;
  for (uint64_t lo = begin; lo < end;) {
    const uint64_t chunk = lo / kChunkElems;
    const uint64_t hi = std::min(end, (chunk + 1) * kChunkElems);
    const smart::ScanPredicate on_deltas =
        smart::NormalizePredicate(RebaseOnto(p, bases[chunk]), delta_bits);
    count += codec.select_if_range(deltas, lo, hi, on_deltas, bitmap, lo - begin);
    lo = hi;
  }
  return count;
}

}  // namespace sa::encodings
