// The benchmark's own statistics: the percentile rule every reported
// timing follows, error-rate accounting, and per-layer self time from
// nested spans. Kept free of the program under test so the rules can be
// unit-tested on their own (test/stats_test.cc).
#ifndef SABENCH_STATS_H_
#define SABENCH_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

namespace sabench {

// A reported percentile must have at least this many samples beyond it;
// otherwise the next lower percentile of the ladder is reported instead.
inline constexpr uint64_t kMinBeyond = 10;

struct Percentile {
  double pct = 0.0;      // percentile actually reported (0 = too few samples)
  double value = 0.0;    // sample at that percentile's nearest rank
  uint64_t beyond = 0;   // samples strictly above the nearest rank
  uint64_t samples = 0;  // sample count
};

// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
// value at rank ceil(pct/100 * n) (1-based).
double NearestRank(const std::vector<double>& sorted, double pct);

// Highest percentile of the ladder {99.9, 99, 95, 90, 75, 50}, not above
// `max_pct`, that leaves at least kMinBeyond samples beyond its rank. When
// even the median does not, pct is 0 and value is the median.
Percentile TailPercentile(const std::vector<double>& sorted, double max_pct);

// Median (nearest rank) of an unsorted sample; 0 when empty.
double Median(std::vector<double> values);

// Operation accounting. Every attempted operation ends as exactly one of:
// correct, wrong (answer differs from the oracle), rejected (the program
// refused it: invalid snapshot, failed TryWrite/TryFetchAdd) or failed
// (anything else the run could not complete).
struct OpTally {
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;

  uint64_t errors() const { return wrong + rejected + failed; }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors()) / static_cast<double>(attempted);
  }
  void Add(const OpTally& other) {
    attempted += other.attempted;
    wrong += other.wrong;
    rejected += other.rejected;
    failed += other.failed;
  }
};

// The layers spans are attributed to; names double as Chrome-trace
// categories and metric-name components.
enum class Layer : uint8_t { kBench, kRuntime, kRts, kSmart, kTable, kAbi, kGraph };
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

// One timed call into a layer. `parent` is the id of the enclosing span
// (0 = root), possibly on another thread; `request` groups the spans of
// one benchmark operation. `work` is a layer-specific amount (values
// scanned, bytes decoded) used for rate metrics.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t thread = 0;
  Layer layer = Layer::kBench;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  uint64_t work = 0;

  uint64_t duration_ns() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

struct SelfTimes {
  std::vector<uint64_t> span_self_ns;  // parallel to the input spans
  std::array<uint64_t, kNumLayers> layer_self_ns{};
  std::map<uint32_t, uint64_t> thread_self_ns;
};

// Self time of a span = its duration minus the part of its interval that
// its child spans (on any thread) cover; overlapping children count once.
// Children whose parent is not among `spans` are treated as roots.
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

}  // namespace sabench

#endif  // SABENCH_STATS_H_
