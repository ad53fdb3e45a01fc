#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace sabench {

namespace {

// 1-based nearest rank ceil(pct/100 * n), clamped to [1, n]. The epsilon
// keeps binary rounding (99.9/100 * 10000 = 9990.000000000002) from
// pushing an exact rank up by one.
uint64_t Rank(double pct, uint64_t n) {
  const auto rank =
      static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<uint64_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double pct) {
  return sorted[Rank(pct, sorted.size()) - 1];
}

Percentile TailPercentile(const std::vector<double>& sorted, double max_pct) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty()) {
    return out;
  }
  for (const double pct : kLadder) {
    if (pct > max_pct) {
      continue;
    }
    const uint64_t rank = Rank(pct, out.samples);
    if (out.samples - rank >= kMinBeyond) {
      out.pct = pct;
      out.value = sorted[rank - 1];
      out.beyond = out.samples - rank;
      return out;
    }
  }
  out.value = NearestRank(sorted, 50.0);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return NearestRank(values, 50.0);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kRts:
      return "rts";
    case Layer::kSmart:
      return "smart";
    case Layer::kTable:
      return "table";
    case Layer::kAbi:
      return "abi";
    case Layer::kGraph:
      return "graph";
  }
  return "?";
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    const auto it = index.find(s.parent);
    if (it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SelfTimes out;
  out.span_self_ns.resize(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    const uint64_t self = s.duration_ns() - std::min(covered, s.duration_ns());
    out.span_self_ns[i] = self;
    out.layer_self_ns[static_cast<int>(s.layer)] += self;
    out.thread_self_ns[s.thread] += self;
  }
  return out;
}

}  // namespace sabench
