// Runtime-`bits` dispatch to the compile-time BitCompressedArray<BITS> codec.
//
// The paper's entry points take the bit width as a runtime argument and
// branch to the concrete subclass, "avoiding the overhead of the virtual
// dispatch" (§4.3). This table is that branch: one function-pointer set per
// width, each pointing at the statically-specialized codec.
#ifndef SA_SMART_DISPATCH_H_
#define SA_SMART_DISPATCH_H_

#include <array>
#include <cstdint>
#include <utility>

#include "smart/bit_compressed_array.h"

namespace sa::smart {

struct CodecOps {
  uint64_t (*get)(const uint64_t* replica, uint64_t index) = nullptr;
  void (*init)(uint64_t* replica, uint64_t index, uint64_t value) = nullptr;
  void (*init_atomic)(uint64_t* replica, uint64_t index, uint64_t value) = nullptr;
  void (*unpack)(const uint64_t* replica, uint64_t chunk, uint64_t* out) = nullptr;
  // Chunk-granular aggregation (bit_compressed_array.h): already behind the
  // one-time AVX2 runtime dispatch, so entry-point callers get the fast
  // path with no further branching.
  uint64_t (*sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end) = nullptr;
  uint64_t (*sum2_range)(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                         uint64_t end) = nullptr;
  // Chunk-streaming decode seam (bit_compressed_array.h): bulk decode into /
  // encode from a caller buffer, whole chunks through the selected kernel.
  void (*unpack_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                       uint64_t* out) = nullptr;
  void (*pack_range)(uint64_t* replica, uint64_t begin, uint64_t end,
                     const uint64_t* in) = nullptr;
  // Pushdown scans over a normalized predicate (predicate.h): evaluate
  // `v ⊖ const` on the packed words through the selected match-mask
  // kernels, never materializing decoded values. select_if_range only ORs
  // bits into `bitmap` (bit `bit_offset + i` = element begin+i matches);
  // callers zero the buffer. All three return/accumulate over [begin, end).
  uint64_t (*count_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                             ScanPredicate p) = nullptr;
  uint64_t (*select_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                              ScanPredicate p, uint64_t* bitmap, uint64_t bit_offset) = nullptr;
  uint64_t (*filtered_sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 ScanPredicate p) = nullptr;
};

// Indexed by bit width; entry 0 is unused. Defined out-of-line in
// dispatch.cc so the 64 codec instantiations compile once, not in every
// translation unit that pulls in the table.
extern const std::array<CodecOps, 65> kCodecTable;

inline const CodecOps& CodecFor(uint32_t bits) {
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  return kCodecTable[bits];
}

namespace internal {

template <typename F, size_t... I>
auto WithBitsImpl(uint32_t bits, F&& f, std::index_sequence<I...>) {
  using R = decltype(f(std::integral_constant<uint32_t, 64>{}));
  R result{};
  const bool matched =
      ((bits == I + 1 ? (result = f(std::integral_constant<uint32_t, I + 1>{}), true) : false) ||
       ...);
  SA_CHECK_MSG(matched, "bit width must be 1..64");
  return result;
}

}  // namespace internal

// Invokes f(std::integral_constant<uint32_t, bits>{}) with the runtime width
// promoted to a compile-time constant — the "profile the number of bits and
// consider it fixed during compilation" trick of §4.3 in library form. The
// callable must return a default-constructible value (return 0 for void-like
// uses).
template <typename F>
auto WithBits(uint32_t bits, F&& f) {
  return internal::WithBitsImpl(bits, std::forward<F>(f), std::make_index_sequence<64>{});
}

}  // namespace sa::smart

#endif  // SA_SMART_DISPATCH_H_
