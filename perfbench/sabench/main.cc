// sabench: the smart-array benchmark program. Runs one workload (scan,
// serve or graph) from a seed for a fixed window and prints line records
// that perfbench/run.py turns into the benchmark result:
//   meta <key> <value>          run metadata
//   named <name> <value> <unit> workload-specific end-to-end figures
//   metric <name> <value> <unit> end-to-end (untraced) or per-layer (traced)
//   result <correct> <attempted> <failed>
//   problem <text>              why a run is not correct
// Usage: sabench --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_features.h"
#include "obs/entry_points.h"
#include "smart/kernel_table.h"

namespace {

// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

void Meta(const std::string& key, const std::string& value) {
  std::printf("meta %s %s\n", key.c_str(), value.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: sabench --workload scan|serve|graph --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sabench::Options options;
  options.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage();
    }
  }
  auto make = options.workload == "scan"    ? sabench::MakeScan
              : options.workload == "serve" ? sabench::MakeServe
              : options.workload == "graph" ? sabench::MakeGraph
                                            : nullptr;
  if (make == nullptr || options.seconds <= 0.0) {
    return Usage();
  }

  sabench::Report report;
  std::vector<double> setup_s;
  std::unique_ptr<sabench::Workload> workload;
  for (int r = 0; r < kSetups; ++r) {
    workload.reset();  // free the previous set-up before building the next
    sabench::Report setup_report;
    const uint64_t start = sabench::NowNs();
    workload = make(options);
    workload->Setup(setup_report);
    setup_s.push_back(static_cast<double>(sabench::NowNs() - start) / 1e9);
    if (r + 1 == kSetups) {
      report = std::move(setup_report);
    } else {
      for (std::string& p : setup_report.problems) report.Problem(std::move(p));
    }
  }
  const double setup_median = sabench::Median(setup_s);
  // Spans and obs events recorded during set-up belong to no request.
  sabench::Tracer::Clear();
  sabench::RingStats discard;
  discard.Drain();

  sabench::Window window(options.seconds, options.trace, options.workload == "graph" ? 1.0 : 0.25);
  workload->Measure(window, report);
  workload.reset();

  Meta("workload", options.workload);
  Meta("seed", std::to_string(options.seed));
  Meta("run_seconds", std::to_string(options.seconds));
  Meta("traced", options.trace ? "1" : "0");
  Meta("warmup_seconds", std::to_string(report.warmup_s));
  Meta("setups", std::to_string(kSetups));
  Meta("cpu_model", CpuModel());
  Meta("nproc", std::to_string(options.nproc));
  Meta("avx2_cpu", __builtin_cpu_supports("avx2") ? "1" : "0");
  Meta("avx2_used", sa::HostCpuFeatures().avx2 ? "1" : "0");
  Meta("SA_DISABLE_AVX2", EnvOr("SA_DISABLE_AVX2", "unset"));
  Meta("SA_FORCE_KERNEL", EnvOr("SA_FORCE_KERNEL", "unset"));
  for (const uint32_t bits : report.widths) {
    const sa::smart::KernelOps& k = sa::smart::KernelsFor(bits);
    Meta("kernel_table.w" + std::to_string(bits),
         std::string("sum=") + sa::smart::ToString(k.kind) +
             ",predicate=" + sa::smart::ToString(k.predicate_kind));
  }
  Meta("build_type", SABENCH_BUILD_TYPE);
  Meta("SA_OBS", saObsCompiledIn() != 0 ? "on" : "off");
  Meta("git_commit", EnvOr("SABENCH_COMMIT", "unknown"));
  for (const auto& [key, value] : report.meta) Meta(key, value);

  std::printf("metric setup_s %.17g s\n", setup_median);
  report.Named("setup_s", setup_median, "s");
  report.Named("error_rate", report.ops.error_rate(), "frac");
  for (const sabench::Metric& m : report.named) {
    std::printf("named %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const sabench::Metric& m : options.trace ? report.layer : report.e2e) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : report.problems) {
    std::printf("problem %s\n", p.c_str());
  }
  const bool correct = report.problems.empty() && report.ops.errors() == 0;
  std::printf("result %d %llu %llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.errors()));
  return correct ? 0 : 1;
}
