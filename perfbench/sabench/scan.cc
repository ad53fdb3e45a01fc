// scan: one closed-loop stream of analytics queries, each parallelised
// over an nproc-worker pool. A query pins a registry snapshot of one
// column and scans a seeded random window with CountIf, FilteredSum or
// SumRange; a share goes through the C entry points, another through the
// table operators over a column store built from the same values. The
// stored columns exceed the last-level cache, the daemon is off.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "platform/topology.h"
#include "rts/parallel_for.h"
#include "rts/worker_pool.h"
#include "runtime/registry.h"
#include "smart/entry_points.h"
#include "smart/parallel_ops.h"
#include "table/table.h"

namespace sabench {
namespace {

using sa::smart::CmpOp;
using sa::smart::Predicate;

constexpr uint64_t kBlock = 4096;         // oracle block length (values)
constexpr size_t kQueries = 4096;         // distinct queries cycled through
constexpr size_t kWarmQueries = 512;
constexpr uint64_t kTableRows = 1 << 21;  // rows of the column store
constexpr uint64_t kTableEvery = 40;      // one query in 40 is a table query
constexpr uint64_t kGrain = 1 << 14;      // chunk-aligned ParallelFor grain
// Traced slices record spans for one query in 32, picked by hash (the query
// list cycles with a period that is a multiple of 32); a column query has
// one span per ParallelFor batch, up to 1024.
constexpr uint64_t kSpanSample = 32;
constexpr double kSelectivity[3] = {0.001, 0.01, 0.1};
// Stored columns are sized to this multiple of the last-level cache, so at
// most a quarter of them can stay cache-resident across random windows.
constexpr double kCacheMultiple = 4.0;

enum class Dist { kUniform, kSorted, kPowerLaw };
enum class Kind : uint8_t { kCount, kFilteredSum, kSum, kTableCount, kTableSum, kTableGroup };
enum class Path : uint8_t { kNative, kAbi, kTable };

struct Column {
  Column(const char* n, Dist d, uint32_t b) : name(n), dist(d), bits(b) {}

  const char* name;
  Dist dist;
  uint32_t bits;  // storage width (sorted: set from the length)
  uint64_t length = 0;
  uint64_t step = 1;  // sorted: value spacing
  sa::runtime::ArraySlot* slot = nullptr;
  // Fixed predicates (uniform, power-law) and the per-block prefix oracles:
  // prefix[k] covers blocks [0, k).
  std::array<Predicate, 3> preds{};
  std::vector<uint64_t> prefix_sum;
  std::array<std::vector<uint64_t>, 3> prefix_count;
  std::array<std::vector<uint64_t>, 3> prefix_fsum;
};

struct Query {
  Kind kind;
  Path path;
  uint8_t column;
  uint8_t table_query;  // index into table oracles (table path)
  uint64_t begin;
  uint64_t end;
  Predicate pred;
  uint64_t expect;
};

struct alignas(64) Partial {
  uint64_t value = 0;
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kCount:
      return "count_if";
    case Kind::kFilteredSum:
      return "filtered_sum";
    case Kind::kSum:
      return "sum_range";
    case Kind::kTableCount:
      return "count_where";
    case Kind::kTableSum:
      return "sum_where";
    case Kind::kTableGroup:
      return "group_by";
  }
  return "?";
}

class Scan final : public Workload {
 public:
  explicit Scan(const Options& options) : options_(options) {}

  void Setup(Report& report) override;
  void Measure(const Window& window, Report& report) override;

 private:
  uint64_t Value(const Column& c, uint64_t i) const;
  uint64_t OracleSum(const Column& c, uint64_t b, uint64_t e) const;
  // Count (fsum=false) or filtered sum of fixed predicate k over [b, e).
  uint64_t OracleFixed(const Column& c, int k, bool fsum, uint64_t b, uint64_t e) const;
  void BuildColumn(Column& c);
  void BuildTable();
  // Query i of the stratified mix; the seed supplies the window length
  // quantile and position.
  Query MakeQuery(uint64_t i, double length_quantile, uint64_t position);
  // Runs one query; returns its answer. `traced` records spans.
  uint64_t Run(const Query& q, uint64_t request, bool traced, bool* rejected);
  uint64_t RunColumn(const Query& q, uint64_t request, bool traced, bool* rejected);

  Options options_;
  sa::platform::Topology topo_ = sa::platform::Topology::Host();
  std::unique_ptr<sa::rts::WorkerPool> pool_;
  std::unique_ptr<sa::runtime::ArrayRegistry> registry_;
  std::array<Column, 3> columns_{{{"scan.uniform", Dist::kUniform, 28},
                                  {"scan.sorted", Dist::kSorted, 0},
                                  {"scan.powerlaw", Dist::kPowerLaw, 30}}};
  std::unique_ptr<sa::table::Table> table_;
  // Table query oracles: [0..3) CountWhere, [3..6) SumWhere per
  // selectivity; GroupBySum is checked against group_expect_.
  std::array<sa::table::Predicate, 3> table_preds_{};
  std::array<uint64_t, 6> table_expect_{};
  std::vector<std::pair<uint64_t, uint64_t>> group_expect_;
  std::vector<Query> queries_;
  double bytes_per_value_ = 0.0;
  bool twin_flip_ = false;  // alternates the order of C-ABI overhead twins
};

uint64_t Scan::Value(const Column& c, uint64_t i) const {
  const uint64_t h = Hash3(options_.seed, static_cast<uint64_t>(c.dist), i);
  switch (c.dist) {
    case Dist::kUniform:
      return h >> (64 - c.bits);
    case Dist::kSorted:
      // Strictly increasing: element i lies in [i*step, (i+1)*step).
      return i * c.step + (h & (c.step - 1));
    case Dist::kPowerLaw: {
      // Magnitude class m is geometric (P(m) = 2^-(m+1)), the value is
      // uniform over 2m bits: P(v >= x) falls off as a power of x.
      const int m = std::min(15, std::countl_zero(sa::SplitMix64(h) | 1));
      return (h >> 34) >> (30 - 2 * m);
    }
  }
  return 0;
}

uint64_t Scan::OracleSum(const Column& c, uint64_t b, uint64_t e) const {
  uint64_t sum = 0;
  const uint64_t first_full = (b + kBlock - 1) / kBlock;
  const uint64_t last_full = e / kBlock;
  if (first_full >= last_full) {
    for (uint64_t i = b; i < e; ++i) sum += Value(c, i);
    return sum;
  }
  for (uint64_t i = b; i < first_full * kBlock; ++i) sum += Value(c, i);
  sum += c.prefix_sum[last_full] - c.prefix_sum[first_full];
  for (uint64_t i = last_full * kBlock; i < e; ++i) sum += Value(c, i);
  return sum;
}

uint64_t Scan::OracleFixed(const Column& c, int k, bool fsum, uint64_t b, uint64_t e) const {
  auto edge = [&](uint64_t lo, uint64_t hi) {
    uint64_t acc = 0;
    for (uint64_t i = lo; i < hi; ++i) {
      const uint64_t v = Value(c, i);
      if (sa::smart::Matches(c.preds[k], v)) acc += fsum ? v : 1;
    }
    return acc;
  };
  const auto& prefix = fsum ? c.prefix_fsum[k] : c.prefix_count[k];
  const uint64_t first_full = (b + kBlock - 1) / kBlock;
  const uint64_t last_full = e / kBlock;
  if (first_full >= last_full) return edge(b, e);
  return edge(b, first_full * kBlock) + prefix[last_full] - prefix[first_full] +
         edge(last_full * kBlock, e);
}

void Scan::BuildColumn(Column& c) {
  auto array = sa::smart::SmartArray::Allocate(c.length, sa::smart::PlacementSpec::OsDefault(),
                                               c.bits, topo_);
  sa::smart::ParallelFill(*pool_, *array, [&](uint64_t i) { return Value(c, i); });
  c.slot = registry_->Create(c.name, c.length, sa::smart::PlacementSpec::OsDefault(), c.bits);
  SA_CHECK(registry_->Publish(*c.slot, std::move(array), c.slot->write_count()));
  registry_->Reclaim();

  // Fixed predicates from a sampled quantile: "<" on uniform data,
  // tail-targeted ">=" on power-law data.
  if (c.dist != Dist::kSorted) {
    std::vector<uint64_t> sample(1 << 16);
    for (uint64_t j = 0; j < sample.size(); ++j) {
      sample[j] = Value(c, Hash3(options_.seed, 99, j) % c.length);
    }
    std::sort(sample.begin(), sample.end());
    for (int k = 0; k < 3; ++k) {
      const auto rank = static_cast<size_t>(kSelectivity[k] * static_cast<double>(sample.size()));
      c.preds[k] = c.dist == Dist::kUniform
                       ? Predicate{CmpOp::kLt, sample[rank]}
                       : Predicate{CmpOp::kGe, sample[sample.size() - 1 - rank]};
    }
  }
  const uint64_t blocks = c.length / kBlock;  // trailing partial block: edge path
  c.prefix_sum.assign(blocks + 1, 0);
  for (int k = 0; k < 3; ++k) {
    c.prefix_count[k].assign(blocks + 1, 0);
    c.prefix_fsum[k].assign(blocks + 1, 0);
  }
  const bool fixed = c.dist != Dist::kSorted;
  sa::rts::ParallelFor(*pool_, 0, blocks, 16, [&](int, uint64_t lo, uint64_t hi) {
    for (uint64_t blk = lo; blk < hi; ++blk) {
      uint64_t sum = 0;
      uint64_t count[3] = {};
      uint64_t fsum[3] = {};
      for (uint64_t i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
        const uint64_t v = Value(c, i);
        sum += v;
        for (int k = 0; fixed && k < 3; ++k) {
          if (sa::smart::Matches(c.preds[k], v)) {
            ++count[k];
            fsum[k] += v;
          }
        }
      }
      c.prefix_sum[blk + 1] = sum;
      for (int k = 0; k < 3; ++k) {
        c.prefix_count[k][blk + 1] = count[k];
        c.prefix_fsum[k][blk + 1] = fsum[k];
      }
    }
  });
  for (uint64_t blk = 1; blk <= blocks; ++blk) {
    c.prefix_sum[blk] += c.prefix_sum[blk - 1];
    for (int k = 0; k < 3; ++k) {
      c.prefix_count[k][blk] += c.prefix_count[k][blk - 1];
      c.prefix_fsum[k][blk] += c.prefix_fsum[k][blk - 1];
    }
  }
}

void Scan::BuildTable() {
  const Column& u = columns_[0];
  const Column& p = columns_[2];
  std::vector<uint64_t> uv(kTableRows), pv(kTableRows), kv(kTableRows);
  for (uint64_t i = 0; i < kTableRows; ++i) {
    uv[i] = Value(u, i);
    pv[i] = Value(p, i);
    kv[i] = uv[i] >> (u.bits - 6);  // 64 groups
  }
  std::vector<uint64_t> group(64, 0);
  for (int k = 0; k < 3; ++k) {
    table_preds_[k] = {"u", sa::table::Predicate::Op::kLt, u.preds[k].constant, 0};
  }
  for (uint64_t i = 0; i < kTableRows; ++i) {
    for (int k = 0; k < 3; ++k) {
      if (uv[i] < u.preds[k].constant) {
        ++table_expect_[k];
        table_expect_[3 + k] += pv[i];
      }
    }
    group[kv[i]] += pv[i];
  }
  group_expect_.clear();
  for (uint64_t g = 0; g < group.size(); ++g) {
    if (group[g] != 0) group_expect_.emplace_back(g, group[g]);
  }
  sa::table::Table::Builder builder;
  builder.AddColumn("u", std::move(uv)).AddColumn("p", std::move(pv)).AddColumn("k", std::move(kv));
  table_ = std::make_unique<sa::table::Table>(
      builder.Build(sa::smart::PlacementSpec::OsDefault(), topo_));
}

Query Scan::MakeQuery(uint64_t i, double length_quantile, uint64_t position) {
  // The mix is stratified, not drawn, so every seed runs the same shares:
  // one query in 40 goes to the table operators (about a fifth of the
  // query time; CountWhere and SumWhere sit at the p99 rank), and of the
  // column queries 4/10 are CountIf, 3/10 FilteredSum, 3/10 SumRange, each
  // spread evenly over the three columns and selectivities; 3 in 20 use
  // the C-ABI. These shares are this benchmark's own choice (no trace or
  // paper workload fixes them): every kernel and entry point gets a share
  // large enough to move the figures.
  Query q{};
  if (i % kTableEvery == 0) {
    const uint64_t t = (i / kTableEvery) % 7;
    q.path = Path::kTable;
    q.kind = t < 3 ? Kind::kTableCount : t < 6 ? Kind::kTableSum : Kind::kTableGroup;
    q.table_query = static_cast<uint8_t>(t);
    q.expect = t < 6 ? table_expect_[t] : 1;  // GroupBySum: 1 = matches the oracle
    return q;
  }
  const uint64_t k = i % 10;
  q.kind = k < 4 ? Kind::kCount : k < 7 ? Kind::kFilteredSum : Kind::kSum;
  q.column = static_cast<uint8_t>((i / 10) % 3);
  const auto sel = static_cast<int>((i / 30) % 3);
  q.path = (i / 90) % 20 < 3 ? Path::kAbi : Path::kNative;
  const Column& c = columns_[q.column];
  // Log-uniform window of 256Ki..16Mi values at a 64-value boundary.
  const uint64_t len =
      std::min<uint64_t>(c.length, static_cast<uint64_t>(std::exp2(18.0 + 6.0 * length_quantile)));
  q.begin = (position % (c.length - len + 1)) & ~uint64_t{63};
  q.end = q.begin + len;
  if (q.kind == Kind::kSum) {
    q.expect = OracleSum(c, q.begin, q.end);
  } else if (c.dist == Dist::kSorted) {
    // Window-relative threshold: exactly `take` elements of the strictly
    // increasing window match "v < t".
    const auto take = std::max<uint64_t>(
        1, static_cast<uint64_t>(kSelectivity[sel] * static_cast<double>(len)));
    q.pred = {CmpOp::kLt, Value(c, q.begin + take)};
    q.expect = q.kind == Kind::kCount ? take : OracleSum(c, q.begin, q.begin + take);
  } else {
    q.pred = c.preds[sel];
    q.expect = OracleFixed(c, sel, q.kind == Kind::kFilteredSum, q.begin, q.end);
  }
  return q;
}

void Scan::Setup(Report& report) {
  pool_ = std::make_unique<sa::rts::WorkerPool>(
      topo_, sa::rts::WorkerPool::Options{.num_threads = options_.nproc, .pin_threads = true});
  registry_ = std::make_unique<sa::runtime::ArrayRegistry>(topo_);

  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) l3 = 32L << 20;
  // Sorted values need ceil(log2(length * step)) bits; size with 32.
  const double row_bits = 28.0 + 32.0 + 30.0;
  uint64_t length = static_cast<uint64_t>(kCacheMultiple * static_cast<double>(l3) * 8.0 / row_bits);
  length = (length + kBlock - 1) / kBlock * kBlock;
  for (Column& c : columns_) {
    c.length = length;
    if (c.dist == Dist::kSorted) {
      c.step = 64;
      c.bits = static_cast<uint32_t>(std::bit_width(length * c.step - 1));
    }
    BuildColumn(c);
  }
  BuildTable();

  // Window lengths are stratified too: query i gets the (i + u)/Q quantile
  // of the log-uniform range, in a seeded order.
  sa::Xoshiro256 rng(sa::SplitMix64(options_.seed ^ 0x5ca9));
  std::vector<uint64_t> strata(kQueries);
  for (uint64_t i = 0; i < kQueries; ++i) strata[i] = i;
  std::shuffle(strata.begin(), strata.end(), rng);
  queries_.resize(kQueries);
  for (uint64_t i = 0; i < kQueries; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const double quantile = (static_cast<double>(strata[i]) + u) / static_cast<double>(kQueries);
    queries_[i] = MakeQuery(i, quantile, rng());
  }
  std::shuffle(queries_.begin(), queries_.end(), rng);

  uint64_t stored = table_->footprint_bytes();
  uint64_t values = kTableRows * table_->num_columns();
  for (const Column& c : columns_) {
    stored += c.slot->Acquire().array().footprint_bytes();
    values += c.length;
  }
  report.meta.emplace_back("column_values", std::to_string(length));
  report.meta.emplace_back("stored_mib", std::to_string(stored >> 20));
  report.meta.emplace_back("l3_mib", std::to_string(l3 >> 20));
  bytes_per_value_ = static_cast<double>(stored) / static_cast<double>(values);
  report.widths = {columns_[0].bits, columns_[1].bits, columns_[2].bits};

  // Warm-up: the first kWarmQueries queries (kernel-table calibration,
  // every query kind's code path; the fill already touched every page),
  // answers checked.
  const uint64_t warm_start = NowNs();
  for (size_t i = 0; i < kWarmQueries; ++i) {
    bool rejected = false;
    const uint64_t got = Run(queries_[i], i, false, &rejected);
    if (rejected || got != queries_[i].expect) {
      report.Problem(std::string("warm-up answer mismatch: ") + KindName(queries_[i].kind));
    }
  }
  report.warmup_s = static_cast<double>(NowNs() - warm_start) / 1e9;
}

uint64_t Scan::RunColumn(const Query& q, uint64_t request, bool traced, bool* rejected) {
  const Column& c = columns_[q.column];
  sa::runtime::ArraySnapshot snap;
  {
    ScopedSpan span(traced, Layer::kRuntime, "acquire", request);
    snap = c.slot->TryAcquire();
  }
  if (!snap.valid()) {
    *rejected = true;
    return 0;
  }
  const sa::smart::SmartArray& array = snap.array();
  const int workers = pool_->num_workers();
  std::vector<Partial> partial(static_cast<size_t>(workers));
  const bool abi = q.path == Path::kAbi;
  // The C-ABI overhead twin: in traced runs each C-ABI SumRange batch is
  // repeated through the native call on the same range, in alternating
  // order, so abi.sum_range_overhead compares like with like.
  const bool twin = traced && abi && q.kind == Kind::kSum;
  const bool twin_native_first = twin && (twin_flip_ = !twin_flip_);
  ScopedSpan region(traced, Layer::kRts, "parallel_for", request);
  const uint32_t parent = region.id();
  sa::rts::ParallelFor(*pool_, q.begin, q.end, kGrain, [&](int w, uint64_t lo, uint64_t hi) {
    const uint64_t* replica = array.GetReplica(pool_->worker_socket(w));
    const void* handle = &array;
    const int op = static_cast<int>(q.pred.op);
    auto native_sum = [&] {
      ScopedSpan span(twin, Layer::kSmart, "sum_range_twin", parent, request, hi - lo);
      return array.RangeSum(replica, lo, hi);
    };
    if (twin && twin_native_first) native_sum();
    uint64_t v = 0;
    {
      ScopedSpan span(traced, abi ? Layer::kAbi : Layer::kSmart,
                      abi ? (q.kind == Kind::kSum ? "abi_sum_range" : "abi_scan")
                          : KindName(q.kind),
                      parent, request, hi - lo);
      switch (q.kind) {
        case Kind::kCount:
          v = abi ? saArrayCountIf(handle, lo, hi, op, q.pred.constant)
                  : array.CountIf(replica, lo, hi, q.pred);
          break;
        case Kind::kFilteredSum:
          v = abi ? saArrayFilteredSum(handle, lo, hi, op, q.pred.constant)
                  : array.FilteredSum(replica, lo, hi, q.pred);
          break;
        default:
          v = abi ? saArraySumRange(handle, lo, hi) : array.RangeSum(replica, lo, hi);
          break;
      }
    }
    if (twin && !twin_native_first) native_sum();
    partial[static_cast<size_t>(w)].value += v;
  });
  uint64_t total = 0;
  for (const Partial& p : partial) total += p.value;
  return total;
}

uint64_t Scan::Run(const Query& q, uint64_t request, bool traced, bool* rejected) {
  ScopedSpan root(traced, Layer::kBench, "query", request);
  if (q.path != Path::kTable) {
    return RunColumn(q, request, traced, rejected);
  }
  ScopedSpan span(traced, Layer::kTable, KindName(q.kind), request, kTableRows);
  switch (q.kind) {
    case Kind::kTableCount:
      return sa::table::CountWhere(*pool_, *table_, {table_preds_[q.table_query]});
    case Kind::kTableSum:
      return sa::table::SumWhere(*pool_, *table_, "p", {table_preds_[q.table_query - 3]});
    default: {
      const auto groups = sa::table::GroupBySum(*pool_, *table_, "k", "p");
      return groups == group_expect_ ? 1 : 0;
    }
  }
}

void Scan::Measure(const Window& window, Report& report) {
  CounterDelta counters({"sa_scan_chunks_scanned_total", "sa_scan_chunks_skipped_total",
                         "sa_parallel_for_batches_total", "sa_parallel_for_steals_total",
                         "sa_snapshot_acquire_rejects_total"});
  std::array<ModeSamples, 2> modes;
  // Latency of every table query by operator (count, sum, group-by).
  std::array<std::vector<double>, 3> table_ms;
  uint64_t acquire_rejects = 0;
  uint64_t acquires = 0;
  // The window continues the cycle through the (shuffled) queries where
  // the warm-up stopped.
  uint64_t request = kWarmQueries;
  for (uint64_t now = NowNs(); !window.done(now); now = NowNs()) {
    const bool traced = window.traced(now);
    const Query& q = queries_[request % queries_.size()];
    ++request;
    bool rejected = false;
    const bool spans = traced && Hash3(options_.seed, 5, request) % kSpanSample == 0;
    const uint64_t got = Run(q, request, spans, &rejected);
    const uint64_t end = NowNs();
    ++report.ops.attempted;
    if (q.path != Path::kTable) {
      ++acquires;
      acquire_rejects += rejected ? 1 : 0;
    }
    if (rejected) {
      ++report.ops.rejected;
    } else if (got != q.expect) {
      ++report.ops.wrong;
      if (report.problems.size() < 8) {
        report.Problem(std::string("wrong ") + KindName(q.kind) + " answer on " +
                       columns_[q.column].name);
      }
    }
    modes[traced ? 1 : 0].Add(window, now, end);
    if (q.path == Path::kTable) {
      table_ms[static_cast<int>(q.kind) - static_cast<int>(Kind::kTableCount)].push_back(
          static_cast<double>(end - now) / 1e6);
    }
  }
  ReportThroughput(options_.trace, std::move(modes[0]), modes[1], 1, Rate::kSliceMedian,
                   {"scan_qps", "scan_p50_ms", "scan_p99_ms", "ms", 1.0, 99.0}, report);
  report.E2e("bytes_per_value", bytes_per_value_, "B");
  report.Named("bytes_per_value", bytes_per_value_, "B");
  if (!options_.trace) return;

  const std::vector<Span> spans = Tracer::Collect();
  const SelfTimes self = ComputeSelfTimes(spans);
  std::vector<double> region_self_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "parallel_for") {
      region_self_us.push_back(static_cast<double>(self.span_self_ns[i]) / 1e3);
    }
  }
  const SpanTotals count = TotalsOf(spans, "count_if");
  const SpanTotals fsum = TotalsOf(spans, "filtered_sum");
  const SpanTotals sum = TotalsOf(spans, "sum_range");
  const SpanTotals abi_sum = TotalsOf(spans, "abi_sum_range");
  const SpanTotals twin = TotalsOf(spans, "sum_range_twin");
  const SpanTotals acquire = TotalsOf(spans, "acquire");
  const double scanned = static_cast<double>(counters(0));
  const double skipped = static_cast<double>(counters(1));
  report.Layer("smart.pushdown_ns_per_value",
               static_cast<double>(count.ns + fsum.ns) /
                   static_cast<double>(std::max<uint64_t>(count.work + fsum.work, 1)),
               "ns");
  report.Layer("smart.zone_skip_frac", skipped / std::max(scanned + skipped, 1.0), "frac");
  report.Layer("smart.sum_gb_per_s",
               static_cast<double>(sum.work * 8) / static_cast<double>(std::max<uint64_t>(sum.ns, 1)),
               "GB/s");
  report.Layer("rts.region_overhead_us", Median(region_self_us), "us");
  report.Layer("rts.steal_frac",
               static_cast<double>(counters(3)) / std::max(1.0, static_cast<double>(counters(2))),
               "frac");
  ReportAcquire(acquire, report);
  report.Layer("runtime.acquire_reject_frac",
               static_cast<double>(acquire_rejects) / std::max<double>(1.0, static_cast<double>(acquires)),
               "frac");
  report.Layer("table.count_where_ms", Median(table_ms[0]), "ms");
  report.Layer("table.sum_where_ms", Median(table_ms[1]), "ms");
  report.Layer("table.group_by_ms", Median(table_ms[2]), "ms");
  report.Layer("abi.sum_range_overhead",
               static_cast<double>(abi_sum.ns) / static_cast<double>(std::max<uint64_t>(twin.ns, 1)),
               "x");
  ReportSelfTimes(spans, window.seconds(), report);
  WriteTrace(options_, spans, report);
}

}  // namespace

std::unique_ptr<Workload> MakeScan(const Options& options) {
  return std::make_unique<Scan>(options);
}

}  // namespace sabench
