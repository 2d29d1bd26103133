#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/simd_kernels.h"
#include "common/thread_pool.h"

namespace perfbench {
namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerSpec kLayers[] = {
    {"index.build_s", "s"},
    {"index.eps_queries", "count"},
    {"index.cands_per_query", "ratio"},
    {"index.hit_ratio", "ratio"},
    {"kernel.simd_blocks", "count"},
    {"dbscan.range_queries_s", "s"},
    {"dbscan.sweep_s", "s"},
    {"dbscan.speedup_nproc", "ratio"},
    {"local_model.s", "s"},
    {"local_model.reps_per_pt", "ratio"},
    {"codec.encode_s", "s"},
    {"codec.decode_s", "s"},
    {"codec.bytes", "B"},
    {"transmit.s", "s"},
    {"broadcast.s", "s"},
    {"bytes.uplink", "B"},
    {"bytes.downlink", "B"},
    {"protocol.frames", "count"},
    {"protocol.retries", "count"},
    {"protocol.goodput", "ratio"},
    {"aggregator.merge_s", "s"},
    {"root.fan_in", "count"},
    {"merge_global.s", "s"},
    {"global.reps_in", "count"},
    {"relabel.s", "s"},
    {"relabel.cands_per_pt", "ratio"},
    {"relabel.speedup_nproc", "ratio"},
    {"stream.update_s", "s"},
    {"stream.tick_s", "s"},
    {"stream.refresh_ratio", "ratio"},
    {"stream.rebuilds_per_tick", "ratio"},
    {"serve.request_encode_s", "s"},
    {"serve.result_decode_s", "s"},
    {"serve.overhead_s", "s"},
    {"serve.wire_bytes_per_job", "B"},
    {"partition.s", "s"},
    {"local_cluster.s", "s"},
    {"pipeline.wall_s", "s"},
    {"pipeline.paper_overall_s", "s"},
    {"pipeline.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseUint(const char* text, std::uint64_t* out) {
  if (*text == '\0' || *text == '-') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = value;
  return true;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t LlcBytes() {
  const long from_sysconf = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (from_sysconf > 0) return static_cast<std::uint64_t>(from_sysconf);
  // Fall back to the deepest cache sysfs lists for cpu0 ("32768K").
  for (int index = 4; index >= 0; --index) {
    const std::string size = ReadFirstLine(
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
        "/size");
    if (size.empty()) continue;
    std::uint64_t value = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    return value;
  }
  return 0;
}

// Aggregate CPU jiffies from /proc/stat: the steal column and the sum of
// user, nice, system, idle, iowait, irq, softirq and steal.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies out;
  if (label != "cpu") return out;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) return CpuJiffies{};
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

CpuJiffies run_start;

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// The highest percentile of `values` with at least ten samples beyond
// it: the (n-10)-th smallest value. With fewer than 21 samples that order
// statistic would sit at or below the median, so the maximum is reported
// instead; `percentile` and `beyond` say what was taken.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  DBDC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Tail tail;
  if (n >= 21) {
    tail.value = values[n - 11];
    tail.beyond = 10;
    tail.percentile = 100.0 * static_cast<double>(n - 10) /
                      static_cast<double>(n);
  } else {
    tail.value = values.back();
  }
  return tail;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = ParseUint(value, &out->seed);
    } else if (flag == "--seconds") {
      ok = ParseDouble(value, &out->seconds) && out->seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string v = value;
      ok = v == "0" || v == "1";
      out->trace = v == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

int Nproc() { return dbdc::ResolveNumThreads(0); }

double Median(std::vector<double> values) {
  DBDC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double StageSeconds(const dbdc::DbdcResult& result) {
  double sum = 0.0;
  for (const dbdc::StageStats& stage : result.stage_stats) {
    sum += stage.seconds;
  }
  return sum;
}

void PrintHostBlock(const std::string& workload,
                    std::uint64_t working_set_bytes) {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimized = build_type == "Release";
#if DBDC_DCHECK_IS_ON()
  optimized = false;
  build_type += "+dchecks";
#endif
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("gcc ") + __VERSION__;
#endif
  std::printf("host.nproc: %d\n", Nproc());
  std::printf("host.simd_detected: %s\n",
              std::string(dbdc::simd::TierName(dbdc::simd::DetectedTier()))
                  .c_str());
  std::printf("host.simd_active: %s\n",
              std::string(dbdc::simd::TierName(dbdc::simd::ActiveTier()))
                  .c_str());
  std::printf("host.compiler: %s\n", compiler.c_str());
  std::printf("host.build_type: %s\n", build_type.c_str());
  std::printf("host.llc_bytes: %llu\n",
              static_cast<unsigned long long>(LlcBytes()));
  std::printf("workload.%s.working_set_bytes: %llu\n", workload.c_str(),
              static_cast<unsigned long long>(working_set_bytes));
  if (!optimized) {
    std::printf("host.degraded: true (build type %s is not Release; "
                "do not use these figures as a baseline)\n",
                build_type.c_str());
  } else {
    std::printf("host.degraded: false\n");
  }
}

void MarkRunStart() { run_start = ReadCpuJiffies(); }

void FailCheck(Outcome* outcome, const std::string& what) {
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  outcome->checks_ok = false;
}

void FillEndToEnd(const EndToEnd& e2e, Outcome* outcome) {
  const Tail tail = TailOf(e2e.unit_seconds);
  std::printf("latency_tail_s: p%.2f of %zu samples, %zu beyond\n",
              tail.percentile, e2e.unit_seconds.size(), tail.beyond);
  outcome->metrics["setup_s"] = {Median(e2e.setup_seconds), "s"};
  outcome->metrics["latency_p50_s"] = {Median(e2e.unit_seconds), "s"};
  outcome->metrics["latency_tail_s"] = {tail.value, "s"};
  outcome->metrics["throughput_pts_s"] = {e2e.points / e2e.window_seconds,
                                          "1/s"};
  outcome->metrics["wire_bytes_per_pt"] = {e2e.wire_bytes_per_pt, "B"};
  outcome->metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

void InitPerLayer(Outcome* outcome) {
  for (const LayerSpec& spec : kLayers) {
    outcome->metrics[spec.name] = {0.0, spec.unit};
  }
}

void SetLayer(Outcome* outcome, const std::string& name, double value) {
  const auto it = outcome->metrics.find(name);
  DBDC_CHECK(it != outcome->metrics.end() && "unknown per-layer metric");
  it->second.value = value;
}

void PrintOutcome(const Options& options, const Outcome& outcome) {
  bool correct = outcome.checks_ok && outcome.failed == 0;
  const double error_rate =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted);
  const CpuJiffies now = ReadCpuJiffies();
  if (now.total > run_start.total) {
    std::printf("host.steal_frac: %.4f (CPU time withheld by the hypervisor "
                "during the run)\n",
                static_cast<double>(now.steal - run_start.steal) /
                    static_cast<double>(now.total - run_start.total));
  }
  std::printf("error_rate: %.6f (%llu of %llu units failed)\n", error_rate,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  if (options.trace) {
    for (const LayerSpec& spec : kLayers) {
      const MetricValue& m = outcome.metrics.at(spec.name);
      std::printf("%s: %.9g %s\n", spec.name, m.value, m.unit.c_str());
    }
  } else {
    for (const auto& [name, m] : outcome.metrics) {
      std::printf("%s: %.9g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  bool finite = true;
  for (const auto& [name, m] : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      finite = false;
    }
  }
  std::ostringstream json;
  json.precision(17);
  correct = correct && finite;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : outcome.metrics) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
