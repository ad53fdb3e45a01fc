// BitCompressedArray<BITS>: the 64 concrete smart-array subclasses
// (paper §4.2, Functions 1-3).
//
// Elements are logically grouped into chunks of 64; a chunk of BITS-wide
// elements occupies exactly BITS 64-bit words, so the first and last element
// of every chunk are word-aligned for every width 1..64 and one codec serves
// them all. BITS is a template parameter so the per-element arithmetic
// (masks, shifts, word indices) folds at compile time; BITS == 32 and
// BITS == 64 collapse to direct native loads/stores via `if constexpr`,
// which is the paper's "specialized sub-classes" (Fig. 9).
//
// The static *Impl functions are the codec itself, shared by the virtual
// methods here, the typed iterators, and the C-ABI entry points (so foreign
// callers run the exact same logic without virtual dispatch).
#ifndef SA_SMART_BIT_COMPRESSED_ARRAY_H_
#define SA_SMART_BIT_COMPRESSED_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <type_traits>
#include <utility>

#include "common/bits.h"
#include "common/cpu_features.h"
#include "common/macros.h"
#include "obs/telemetry.h"
#include "smart/chunk_kernels_avx2.h"
#include "smart/kernel_table.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace sa::smart {

template <uint32_t BITS>
class BitCompressedArray final : public SmartArray {
  static_assert(BITS >= 1 && BITS <= 64, "element width must be 1..64 bits");

 public:
  BitCompressedArray(uint64_t length, PlacementSpec placement,
                     const platform::Topology& topology)
      : SmartArray(length, placement, BITS, topology) {}

  static constexpr uint64_t kMask = LowMask(BITS);
  static constexpr uint64_t kWordsPerChunk = WordsPerChunk(BITS);

#ifdef SA_MUTATION_CANARY
  // CI mutation smoke (-DSA_MUTATION_CANARY=ON): deliberately drop the top
  // bit of every value stored through the generic packed path. A build with
  // this flag MUST fail the property testkit — if it ever passes, the
  // testkit has lost its teeth. Never enabled in normal builds.
  static constexpr uint64_t kStoreMask = BITS > 1 ? (kMask >> 1) : kMask;
#else
  static constexpr uint64_t kStoreMask = kMask;
#endif

  // ---- Function 1: get(index, replica) ----
  static uint64_t GetImpl(const uint64_t* replica, uint64_t index) {
    if constexpr (BITS == 64) {
      return replica[index];
    } else if constexpr (BITS == 32) {
      return reinterpret_cast<const uint32_t*>(replica)[index];
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      if (bit_in_word + BITS <= kWordBits) {
        return (replica[word] >> bit_in_word) & kMask;
      }
      // The element straddles two words; bit_in_word > 0 here, so the
      // (64 - bit_in_word) shift is well defined.
      return ((replica[word] >> bit_in_word) |
              (replica[word + 1] << (kWordBits - bit_in_word))) &
             kMask;
    }
  }

  // ---- Function 2 (per replica): init(index, value) ----
  static void InitImpl(uint64_t* replica, uint64_t index, uint64_t value) {
    SA_DCHECK((value & ~kMask) == 0);
    if constexpr (BITS == 64) {
      replica[index] = value;
    } else if constexpr (BITS == 32) {
      reinterpret_cast<uint32_t*>(replica)[index] = static_cast<uint32_t>(value);
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      const uint64_t word2 = chunk_start + (bit_in_chunk + BITS) / kWordBits;
      const uint64_t stored = value & kStoreMask;
      replica[word] = (replica[word] & ~(kMask << bit_in_word)) | (stored << bit_in_word);
      if (word != word2 && bit_in_word + BITS > kWordBits) {
        // Spill the high part into the next word (bit_in_word > 0 here).
        replica[word2] = (replica[word2] & ~(kMask >> (kWordBits - bit_in_word))) |
                         (stored >> (kWordBits - bit_in_word));
      }
    }
  }

  // Thread-safe per-word compare-and-swap variant of InitImpl.
  static void InitAtomicImpl(uint64_t* replica, uint64_t index, uint64_t value) {
    SA_DCHECK((value & ~kMask) == 0);
    if constexpr (BITS == 64) {
      reinterpret_cast<std::atomic<uint64_t>*>(replica)[index].store(value,
                                                                     std::memory_order_relaxed);
    } else if constexpr (BITS == 32) {
      reinterpret_cast<std::atomic<uint32_t>*>(replica)[index].store(
          static_cast<uint32_t>(value), std::memory_order_relaxed);
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      const uint64_t word2 = chunk_start + (bit_in_chunk + BITS) / kWordBits;
      CasMerge(&replica[word], kMask << bit_in_word, value << bit_in_word);
      if (word != word2 && bit_in_word + BITS > kWordBits) {
        CasMerge(&replica[word2], kMask >> (kWordBits - bit_in_word),
                 value >> (kWordBits - bit_in_word));
      }
    }
  }

  // ---- Function 3: unpack(chunk, replica, out) ----
  static void UnpackImpl(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    if constexpr (BITS == 64) {
      const uint64_t* src = replica + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        out[i] = src[i];
      }
    } else if constexpr (BITS == 32) {
      const uint32_t* src = reinterpret_cast<const uint32_t*>(replica) + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        out[i] = src[i];
      }
    } else {
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      uint64_t word = chunk_start;
      uint64_t value = replica[word];
      uint32_t bit_in_word = 0;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        if (bit_in_word + BITS < kWordBits) {
          out[i] = (value >> bit_in_word) & kMask;
          bit_in_word += BITS;
        } else if (bit_in_word + BITS == kWordBits) {
          out[i] = (value >> bit_in_word) & kMask;
          bit_in_word = 0;
          ++word;
          // The final element of the chunk ends exactly at the last word;
          // do not read past it.
          if (i + 1 < kChunkElems) {
            value = replica[word];
          }
        } else {
          const uint64_t next_word_value = replica[word + 1];
          out[i] = kMask & ((value >> bit_in_word) | (next_word_value << (kWordBits - bit_in_word)));
          bit_in_word = (bit_in_word + BITS) - kWordBits;
          ++word;
          value = next_word_value;
        }
      }
    }
  }

  // ---- Inverse of Function 3: pack(chunk, replica, in) ----
  //
  // Encodes in[0..63] into the chunk's BITS words as a word-centric shift
  // network: every output word is the OR of the (compile-time constant)
  // shifted contributions of the elements whose bit ranges intersect it,
  // so a chunk encodes in ~64 + BITS shift/or terms with no read-modify-
  // write and no data-dependent control flow. This is the write-side twin
  // of the v2 unpack network; it is what lets Restructure repack without
  // per-element InitImpl masking (see smart/restructure.cc).
  static void PackChunkImpl(uint64_t* replica, uint64_t chunk, const uint64_t* in) {
    if constexpr (BITS == 64) {
      uint64_t* dst = replica + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        dst[i] = in[i];
      }
    } else if constexpr (BITS == 32) {
      uint32_t* dst = reinterpret_cast<uint32_t*>(replica) + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        dst[i] = static_cast<uint32_t>(in[i]);
      }
    } else {
      uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... W>(std::index_sequence<W...>) {
        ((words[W] = PackWord<W>(in)), ...);
      }(std::make_index_sequence<kWordsPerChunk>{});
    }
  }

  // Branch-free unpack: the §4.2 note that "the main loop of the function
  // can be manually or automatically unrolled to avoid the branches and
  // permit compile-time derivation of the constants used", made explicit.
  // Every element's word index, shift, and straddle-or-not are compile-time
  // constants of (BITS, i), so the body is 64 independent shift/mask
  // expressions with no data-dependent control flow (micro_ablation
  // measures this against the loop form of UnpackImpl).
  static void UnpackUnrolledImpl(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    if constexpr (BITS == 64 || BITS == 32) {
      UnpackImpl(replica, chunk, out);
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((out[I] = ChunkElement<I>(words)), ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
  }

  // Element `I` of the chunk whose words start at `words`: the word index,
  // shift, and straddle-or-not are compile-time constants of (BITS, I), so
  // this is one or two shifts and a mask with no data-dependent control
  // flow. All reads stay inside the chunk's kWordsPerChunk words (a
  // straddling element's high bits are by definition still in the chunk).
  template <uint32_t I>
  static uint64_t ChunkElement(const uint64_t* words) {
    static_assert(I < kChunkElems);
    constexpr uint32_t kBitInChunk = I * BITS;
    constexpr uint32_t kWord = kBitInChunk / kWordBits;
    constexpr uint32_t kBitInWord = kBitInChunk % kWordBits;
    if constexpr (kBitInWord + BITS <= kWordBits) {
      return (words[kWord] >> kBitInWord) & kMask;
    } else {
      return ((words[kWord] >> kBitInWord) | (words[kWord + 1] << (kWordBits - kBitInWord))) &
             kMask;
    }
  }

  // ---- Chunk-granular aggregation kernels ----
  //
  // The §5.1 aggregation result (compressed scans win under a bandwidth
  // bottleneck) depends on the decode being nearly free. These kernels
  // aggregate a packed chunk straight from its BITS words — no materialized
  // out[64] buffer, no per-element buffered-chunk branch, no div/mod — and
  // are the layer ParallelSum/ParallelSum2, the graph property scans, and
  // the saArraySumRange entry point all sit on. SumRange/Sum2Range dispatch
  // once per call to the AVX2 kernels when the host supports them (probed a
  // single time per process, sa::HostCpuFeatures).

  // Sum of the 64 elements of `chunk`. Widths with native layouts collapse
  // to popcount (1) or native-integer loops (8/16/32/64); the generic path
  // is 64 straight-line shift/mask adds over four accumulators.
  static uint64_t SumChunkImpl(const uint64_t* replica, uint64_t chunk) {
    if constexpr (BITS == 1) {
      return static_cast<uint64_t>(std::popcount(replica[chunk]));
    } else if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      uint64_t sum = 0;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        sum += src[i];
      }
      return sum;
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      uint64_t s0 = 0;
      uint64_t s1 = 0;
      uint64_t s2 = 0;
      uint64_t s3 = 0;
      [&]<size_t... G>(std::index_sequence<G...>) {
        ((s0 += ChunkElement<G * 4 + 0>(words), s1 += ChunkElement<G * 4 + 1>(words),
          s2 += ChunkElement<G * 4 + 2>(words), s3 += ChunkElement<G * 4 + 3>(words)),
         ...);
      }(std::make_index_sequence<kChunkElems / 4>{});
      return (s0 + s1) + (s2 + s3);
    }
  }

  // Sum of elements [lo, hi) of `chunk` (0 <= lo <= hi <= 64) — the masked
  // head/tail of a ragged range. The generic path keeps the straight-line
  // decode and masks each term instead of branching.
  static uint64_t SumChunkSliceImpl(const uint64_t* replica, uint64_t chunk, uint32_t lo,
                                    uint32_t hi) {
    SA_DCHECK(lo <= hi && hi <= kChunkElems);
    if (lo == hi) {
      return 0;
    }
    if constexpr (BITS == 1) {
      return static_cast<uint64_t>(std::popcount((replica[chunk] >> lo) & LowMask(hi - lo)));
    } else if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      uint64_t sum = 0;
      for (uint32_t i = lo; i < hi; ++i) {
        sum += src[i];
      }
      return sum;
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      uint64_t sum = 0;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((sum += I >= lo && I < hi ? ChunkElement<I>(words) : 0), ...);
      }(std::make_index_sequence<kChunkElems>{});
      return sum;
    }
  }

  // Sum of elements [begin, end) using the scalar block kernels.
  static uint64_t SumRangeImpl(const uint64_t* replica, uint64_t begin, uint64_t end) {
    return SumRangeWith(replica, begin, end,
                        [](const uint64_t* r, uint64_t chunk) { return SumChunkImpl(r, chunk); });
  }

  // Fused two-array element-wise sum over [begin, end): sum of
  // r1[i] + r2[i], chunk-interleaved so both streams stay hot.
  static uint64_t Sum2RangeImpl(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                                uint64_t end) {
    return Sum2RangeWith(r1, r2, begin, end,
                         [](const uint64_t* r, uint64_t chunk) { return SumChunkImpl(r, chunk); });
  }

  // ---- Predicate chunk kernels (pushdown scans) ----
  //
  // A scan's unit of work is the 64-bit *match mask* of one chunk: bit k is
  // set iff element k satisfies the normalized predicate (v < bound or
  // v == bound, optionally complemented). CountIf is a popcount of the
  // mask, SelectIf emits it into a selection bitmap, FilteredSum keeps the
  // matching values in the accumulator. Ragged range edges slice the full
  // chunk mask — reading the whole chunk is always in-bounds because
  // allocation rounds up to whole chunks.

  static uint64_t MatchMaskChunkImpl(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                     bool is_eq, bool invert) {
    uint64_t mask = 0;
    if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        const uint64_t v = src[i];
        mask |= static_cast<uint64_t>(is_eq ? v == bound : v < bound) << i;
      }
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((mask |= static_cast<uint64_t>(is_eq ? ChunkElement<I>(words) == bound
                                              : ChunkElement<I>(words) < bound)
                  << I),
         ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
    return invert ? ~mask : mask;
  }

  static uint64_t FilteredSumChunkImpl(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                       bool is_eq, bool invert) {
    const uint64_t inv = invert ? ~uint64_t{0} : uint64_t{0};
    uint64_t sum = 0;
    if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        const uint64_t v = src[i];
        const uint64_t hit = (uint64_t{0} - static_cast<uint64_t>(is_eq ? v == bound : v < bound)) ^ inv;
        sum += v & hit;
      }
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((sum += [&] {
           const uint64_t v = ChunkElement<I>(words);
           const uint64_t hit =
               (uint64_t{0} - static_cast<uint64_t>(is_eq ? v == bound : v < bound)) ^ inv;
           return v & hit;
         }()),
         ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
    return sum;
  }

  // ---- Predicate range walkers (dispatching) ----
  //
  // The kernel table binds the chunk-mask flavour (block vs v2) once per
  // width; the walkers below slice the full-chunk mask at ragged edges.
  // Trivial predicates (kNone/kAll after normalization) answer in closed
  // form. SelectIfRange only ORs bits in — callers zero the buffer, which
  // is what lets chunk-aligned parallel grains share one bitmap.

  static uint64_t CountIfRange(const uint64_t* replica, uint64_t begin, uint64_t end,
                               ScanPredicate p) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      return end - begin;
    }
    const auto match_mask = KernelsFor(BITS).match_mask_chunk;
    const bool is_eq = p.kind == ScanPredicate::Kind::kEq;
    uint64_t count = 0;
    uint64_t chunk = begin / kChunkElems;
    const auto head = static_cast<uint32_t>(begin % kChunkElems);
    if (head != 0) {
      const auto hi =
          static_cast<uint32_t>(std::min<uint64_t>(kChunkElems, head + (end - begin)));
      const uint64_t m = match_mask(replica, chunk, p.bound, is_eq, p.invert);
      count += static_cast<uint64_t>(std::popcount((m >> head) & SliceMask(hi - head)));
      begin += hi - head;
      ++chunk;
      if (begin >= end) {
        return count;
      }
    }
    for (; begin + kChunkElems <= end; begin += kChunkElems, ++chunk) {
      count += static_cast<uint64_t>(
          std::popcount(match_mask(replica, chunk, p.bound, is_eq, p.invert)));
    }
    if (begin < end) {
      const uint64_t m = match_mask(replica, chunk, p.bound, is_eq, p.invert);
      count += static_cast<uint64_t>(
          std::popcount(m & SliceMask(static_cast<uint32_t>(end - begin))));
    }
    return count;
  }

  // Emits the match bit of every element of [begin, end) into `bitmap` at
  // consecutive bit positions starting at `bit_offset`; returns the match
  // count. Bits are OR-ed (caller zeroes the buffer).
  static uint64_t SelectIfRange(const uint64_t* replica, uint64_t begin, uint64_t end,
                                ScanPredicate p, uint64_t* bitmap, uint64_t bit_offset) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      uint64_t pos = bit_offset;
      for (uint64_t n = end - begin; n > 0;) {
        const auto step = static_cast<uint32_t>(std::min<uint64_t>(n, kWordBits));
        EmitMaskBits(bitmap, pos, ~uint64_t{0}, step);
        pos += step;
        n -= step;
      }
      return end - begin;
    }
    const auto match_mask = KernelsFor(BITS).match_mask_chunk;
    const bool is_eq = p.kind == ScanPredicate::Kind::kEq;
    uint64_t count = 0;
    uint64_t pos = bit_offset;
    uint64_t chunk = begin / kChunkElems;
    const auto head = static_cast<uint32_t>(begin % kChunkElems);
    if (head != 0) {
      const auto hi =
          static_cast<uint32_t>(std::min<uint64_t>(kChunkElems, head + (end - begin)));
      const uint64_t m =
          (match_mask(replica, chunk, p.bound, is_eq, p.invert) >> head) & SliceMask(hi - head);
      EmitMaskBits(bitmap, pos, m, hi - head);
      count += static_cast<uint64_t>(std::popcount(m));
      pos += hi - head;
      begin += hi - head;
      ++chunk;
      if (begin >= end) {
        return count;
      }
    }
    for (; begin + kChunkElems <= end; begin += kChunkElems, ++chunk, pos += kChunkElems) {
      const uint64_t m = match_mask(replica, chunk, p.bound, is_eq, p.invert);
      EmitMaskBits(bitmap, pos, m, kChunkElems);
      count += static_cast<uint64_t>(std::popcount(m));
    }
    if (begin < end) {
      const auto tail = static_cast<uint32_t>(end - begin);
      const uint64_t m = match_mask(replica, chunk, p.bound, is_eq, p.invert) & SliceMask(tail);
      EmitMaskBits(bitmap, pos, m, tail);
      count += static_cast<uint64_t>(std::popcount(m));
    }
    return count;
  }

  static uint64_t FilteredSumRange(const uint64_t* replica, uint64_t begin, uint64_t end,
                                   ScanPredicate p) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      return SumRange(replica, begin, end);
    }
    const auto filtered_sum = KernelsFor(BITS).filtered_sum_chunk;
    const bool is_eq = p.kind == ScanPredicate::Kind::kEq;
    const auto slice_sum = [&](uint64_t lo, uint64_t hi) {
      uint64_t s = 0;
      for (uint64_t i = lo; i < hi; ++i) {
        const uint64_t v = GetImpl(replica, i);
        if ((is_eq ? v == p.bound : v < p.bound) != p.invert) {
          s += v;
        }
      }
      return s;
    };
    uint64_t sum = 0;
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    sum += slice_sum(i, head_end);
    i = head_end;
    for (; i + kChunkElems <= end; i += kChunkElems) {
      sum += filtered_sum(replica, i / kChunkElems, p.bound, is_eq, p.invert);
    }
    sum += slice_sum(i, end);
    return sum;
  }

  // True when the v2 shift-network kernels exist for this width AND the
  // host can run them (CPUID minus the SA_DISABLE_AVX2 override). This is
  // the kernel table's selection rule (kernel_table.h).
  static bool HasV2Kernels() {
#if defined(SA_HAVE_AVX2_KERNELS)
    if constexpr (kHasV2) {
      return HostCpuFeatures().avx2;
    }
#endif
    return false;
  }

#if defined(SA_HAVE_AVX2_KERNELS)
  static constexpr bool kHasV2 = avx2::HasV2Width(BITS);

  // v2 shift-network flavours. Only correct to call when HasV2Kernels();
  // exposed (rather than private) so the differential tests, the kernel
  // table, and the codec microbenchmark can target the path explicitly.
  // Widths without a v2 network delegate to the block kernels so the
  // symbols stay well-formed for every instantiation.
  static uint64_t SumRangeV2(const uint64_t* replica, uint64_t begin, uint64_t end) {
    if constexpr (kHasV2) {
      return SumRangeWith(replica, begin, end, [](const uint64_t* r, uint64_t chunk) {
        return avx2::SumChunkV2<BITS>(r + chunk * kWordsPerChunk);
      });
    } else {
      return SumRangeImpl(replica, begin, end);
    }
  }

  static uint64_t Sum2RangeV2(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                              uint64_t end) {
    if constexpr (kHasV2) {
      return Sum2RangeWith(r1, r2, begin, end, [](const uint64_t* r, uint64_t chunk) {
        return avx2::SumChunkV2<BITS>(r + chunk * kWordsPerChunk);
      });
    } else {
      return Sum2RangeImpl(r1, r2, begin, end);
    }
  }

  // (replica, chunk, out) shape of the v2 chunk decoder, addressable for
  // the kernel table.
  static void UnpackChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    if constexpr (kHasV2) {
      avx2::UnpackChunkV2<BITS>(replica + chunk * kWordsPerChunk, out);
    } else {
      UnpackUnrolledImpl(replica, chunk, out);
    }
  }

  // (replica, chunk, ...) shapes of the v2 predicate kernels, addressable
  // for the kernel table. Width 64 has no v2 flavour (the signed-compare
  // trick needs bound < 2^63) and delegates to the block kernels.
  static uint64_t MatchMaskChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                   bool is_eq, bool invert) {
    if constexpr (kHasV2) {
      return avx2::MatchMaskChunkV2<BITS>(replica + chunk * kWordsPerChunk, bound, is_eq, invert);
    } else {
      return MatchMaskChunkImpl(replica, chunk, bound, is_eq, invert);
    }
  }

  static uint64_t FilteredSumChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                     bool is_eq, bool invert) {
    if constexpr (kHasV2) {
      return avx2::FilteredSumChunkV2<BITS>(replica + chunk * kWordsPerChunk, bound, is_eq,
                                            invert);
    } else {
      return FilteredSumChunkImpl(replica, chunk, bound, is_eq, invert);
    }
  }
#endif

  // ---- Dispatching kernels (what callers should use) ----
  //
  // One load of the static per-width table (kernel_table.h) + an indirect
  // call.
  static uint64_t SumRange(const uint64_t* replica, uint64_t begin, uint64_t end) {
    return KernelsFor(BITS).sum_range(replica, begin, end);
  }

  static uint64_t Sum2Range(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                            uint64_t end) {
    return KernelsFor(BITS).sum2_range(r1, r2, begin, end);
  }

  // Decodes one whole chunk into out[0..63] through the selected kernel.
  static void UnpackChunk(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    KernelsFor(BITS).unpack_chunk(replica, chunk, out);
  }

  // ---- Chunk-streaming decode seam (UnpackRange / PackRange) ----
  //
  // The single bulk decode/encode path: whole chunks stream through the
  // selected chunk kernel, ragged head/tail elements through the scalar
  // codec. ForEachRangeImpl, the graph property scans, Restructure, and the
  // saArrayUnpackRange/saArrayPackRange entry points all sit on these two.

  // Decodes elements [begin, end) into out[0 .. end-begin).
  static void UnpackRange(const uint64_t* replica, uint64_t begin, uint64_t end,
                          uint64_t* out) {
    SA_DCHECK(begin <= end);
    SA_OBS_COUNT(kUnpackRangeCalls);
    SA_OBS_COUNT_N(kUnpackRangeBytes, (end - begin) * sizeof(uint64_t));
    const auto unpack_chunk = KernelsFor(BITS).unpack_chunk;
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      *out++ = GetImpl(replica, i);
    }
    for (; i + kChunkElems <= end; i += kChunkElems, out += kChunkElems) {
      unpack_chunk(replica, i / kChunkElems, out);
    }
    for (; i < end; ++i) {
      *out++ = GetImpl(replica, i);
    }
  }

  // Encodes in[0 .. end-begin) into elements [begin, end). Values must fit
  // the width (checked in debug builds; callers on untrusted paths check
  // before calling). Not thread-safe against concurrent writers of the
  // same words — ranges handed to parallel workers must be chunk-aligned,
  // like ParallelFill batches.
  static void PackRange(uint64_t* replica, uint64_t begin, uint64_t end, const uint64_t* in) {
    SA_DCHECK(begin <= end);
    SA_OBS_COUNT(kPackRangeCalls);
    SA_OBS_COUNT_N(kPackRangeBytes, (end - begin) * sizeof(uint64_t));
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      SA_DCHECK((*in & ~kMask) == 0);
      InitImpl(replica, i, *in++);
    }
    for (; i + kChunkElems <= end; i += kChunkElems, in += kChunkElems) {
      PackChunkImpl(replica, i / kChunkElems, in);
    }
    for (; i < end; ++i) {
      SA_DCHECK((*in & ~kMask) == 0);
      InitImpl(replica, i, *in++);
    }
  }

  // Applies fn(value, index) over [begin, end): whole chunks decode through
  // the branch-free unrolled codec, ragged head/tail elements through
  // GetImpl. The static counterpart of smart/map_api.h's MapRange, for
  // callers that already hold a compile-time width.
  template <typename Fn>
  static void ForEachRangeImpl(const uint64_t* replica, uint64_t begin, uint64_t end, Fn&& fn) {
    SA_DCHECK(begin <= end);
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      fn(GetImpl(replica, i), i);
    }
    // Short ranges (BFS's per-vertex lists) often hold no whole chunk, so
    // the kernel is looked up only when one is there to decode.
    if (i + kChunkElems <= end) {
      uint64_t buffer[kChunkElems];
      const auto unpack_chunk = KernelsFor(BITS).unpack_chunk;
      for (; i + kChunkElems <= end; i += kChunkElems) {
        unpack_chunk(replica, i / kChunkElems, buffer);
        for (uint32_t j = 0; j < kChunkElems; ++j) {
          fn(buffer[j], i + j);
        }
      }
    }
    for (; i < end; ++i) {
      fn(GetImpl(replica, i), i);
    }
  }

  // ---- Virtual interface (Fig. 9) ----
  //
  // Both write paths widen the chunk's zone *before* any replica word
  // changes, so a scan that classifies the chunk after the data write also
  // sees the widened zone (scan-vs-write linearization, DESIGN.md §4j).
  void Init(uint64_t index, uint64_t value) override {
    SA_DCHECK(index < length_);
    SA_CHECK_MSG((value & ~kMask) == 0, "value exceeds the array's bit width");
    WidenZone(index, value);
    for (uint64_t* replica : replica_ptrs_) {
      InitImpl(replica, index, value);
    }
  }

  void InitAtomic(uint64_t index, uint64_t value) override {
    SA_DCHECK(index < length_);
    SA_CHECK_MSG((value & ~kMask) == 0, "value exceeds the array's bit width");
    WidenZone(index, value);
    for (uint64_t* replica : replica_ptrs_) {
      InitAtomicImpl(replica, index, value);
    }
  }

  uint64_t Get(uint64_t index, const uint64_t* replica) const override {
    SA_DCHECK(index < length_);
    return GetImpl(replica, index);
  }

  void Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const override {
    SA_DCHECK(chunk < num_chunks());
    UnpackChunk(replica, chunk, out);
  }

 private:
  // Element type of the widths whose packed layout coincides with a native
  // integer array (8/16/32/64; little-endian, like the 32-bit reinterpret
  // in GetImpl).
  using NativeType =
      std::conditional_t<BITS == 8, uint8_t,
                         std::conditional_t<BITS == 16, uint16_t,
                                            std::conditional_t<BITS == 32, uint32_t, uint64_t>>>;

  // Shared range walker: ragged head/tail chunks go through the masked
  // slice kernel, whole chunks through `chunk_sum(replica, chunk)`.
  template <typename ChunkSum>
  static uint64_t SumRangeWith(const uint64_t* replica, uint64_t begin, uint64_t end,
                               const ChunkSum& chunk_sum) {
    SA_DCHECK(begin <= end);
    if (begin >= end) {
      return 0;
    }
    uint64_t sum = 0;
    uint64_t chunk = begin / kChunkElems;
    const auto head = static_cast<uint32_t>(begin % kChunkElems);
    if (head != 0) {
      const auto hi = static_cast<uint32_t>(
          std::min<uint64_t>(kChunkElems, head + (end - begin)));
      sum = SumChunkSliceImpl(replica, chunk, head, hi);
      begin += hi - head;
      ++chunk;
      if (begin >= end) {
        return sum;
      }
    }
    for (; begin + kChunkElems <= end; begin += kChunkElems, ++chunk) {
      sum += chunk_sum(replica, chunk);
    }
    if (begin < end) {
      sum += SumChunkSliceImpl(replica, chunk, 0, static_cast<uint32_t>(end - begin));
    }
    return sum;
  }

  // Fused two-array walker: both streams advance chunk-in-lockstep.
  template <typename ChunkSum>
  static uint64_t Sum2RangeWith(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                                uint64_t end, const ChunkSum& chunk_sum) {
    SA_DCHECK(begin <= end);
    if (begin >= end) {
      return 0;
    }
    uint64_t sum = 0;
    uint64_t chunk = begin / kChunkElems;
    const auto head = static_cast<uint32_t>(begin % kChunkElems);
    if (head != 0) {
      const auto hi = static_cast<uint32_t>(
          std::min<uint64_t>(kChunkElems, head + (end - begin)));
      sum = SumChunkSliceImpl(r1, chunk, head, hi) + SumChunkSliceImpl(r2, chunk, head, hi);
      begin += hi - head;
      ++chunk;
      if (begin >= end) {
        return sum;
      }
    }
    for (; begin + kChunkElems <= end; begin += kChunkElems, ++chunk) {
      sum += chunk_sum(r1, chunk) + chunk_sum(r2, chunk);
    }
    if (begin < end) {
      const auto tail = static_cast<uint32_t>(end - begin);
      sum += SumChunkSliceImpl(r1, chunk, 0, tail) + SumChunkSliceImpl(r2, chunk, 0, tail);
    }
    return sum;
  }

  // Output word `W` of a packed chunk: the OR of the shifted contributions
  // of every element whose bit range [I*BITS, (I+1)*BITS) intersects
  // [W*64, W*64+64). Both endpoints fold at compile time.
  template <uint32_t W>
  static uint64_t PackWord(const uint64_t* in) {
    static_assert(W < kWordsPerChunk);
    constexpr uint32_t kFirst = W * kWordBits / BITS;
    constexpr uint32_t kLast = (W * kWordBits + kWordBits - 1) / BITS;
    static_assert(kLast < kChunkElems);
    return [&]<size_t... J>(std::index_sequence<J...>) {
      return (PackContribution<W, kFirst + J>(in) | ...);
    }(std::make_index_sequence<kLast - kFirst + 1>{});
  }

  // Element I's bits that land in output word W, already shifted into word
  // position. An element contributes to at most two words; which shift
  // direction applies is a constant of (W, I).
  template <uint32_t W, uint32_t I>
  static uint64_t PackContribution(const uint64_t* in) {
    constexpr uint32_t kStart = I * BITS;
    constexpr uint32_t kWordStart = W * kWordBits;
    const uint64_t value = in[I] & kStoreMask;
    if constexpr (kStart >= kWordStart) {
      return value << (kStart - kWordStart);
    } else {
      return value >> (kWordStart - kStart);
    }
  }

  // Atomically replaces the `mask` bits of *word with `bits_value`.
  static void CasMerge(uint64_t* word, uint64_t mask, uint64_t bits_value) {
    auto* atomic_word = reinterpret_cast<std::atomic<uint64_t>*>(word);
    uint64_t cur = atomic_word->load(std::memory_order_relaxed);
    while (!atomic_word->compare_exchange_weak(cur, (cur & ~mask) | bits_value,
                                               std::memory_order_relaxed)) {
    }
  }
};

}  // namespace sa::smart

#endif  // SA_SMART_BIT_COMPRESSED_ARRAY_H_
