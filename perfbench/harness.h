// Shared plumbing of the end-to-end benchmark: command line, timing
// statistics, the host block, and the result line the benchmark prints.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "core/dbdc.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// prints the reason and returns false on anything malformed.
bool ParseOptions(int argc, char** argv, Options* out);

/// Worker threads the workloads run with (the machine's core count).
int Nproc();

double Median(std::vector<double> values);

/// Wall seconds of one call of `fn`.
template <typename Fn>
double Time(Fn&& fn) {
  const dbdc::Timer timer;
  fn();
  return timer.Seconds();
}

/// Median wall seconds of `fn` over at least three calls and at least
/// `min_total_s` of accumulated time; calls stop after 2 s in total, so
/// an operation slower than that is timed once.
template <typename Fn>
double MedianTime(double min_total_s, Fn&& fn) {
  std::vector<double> times;
  double total = 0.0;
  while ((times.size() < 3 || total < min_total_s) && total < 2.0) {
    times.push_back(Time(fn));
    total += times.back();
  }
  return Median(times);
}

/// Sum of the StageStats seconds of a batch result.
double StageSeconds(const dbdc::DbdcResult& result);

/// Prints the host block: core count, SIMD tiers, compiler, build type,
/// LLC size and the workload's working set. A build that is not Release
/// (or has the debug checks on) is flagged degraded: its figures are not
/// a baseline.
void PrintHostBlock(const std::string& workload,
                    std::uint64_t working_set_bytes);

/// Marks the start of the run; PrintOutcome reports the share of the
/// machine's CPU time the hypervisor withheld (steal) since then, which is
/// what makes the same code time differently from run to run on a VM.
void MarkRunStart();

/// One named metric with its unit.
struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the counts of the JSON line and
/// the metrics for the mode it ran in (end-to-end or per-layer).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check outside the per-unit comparisons failed.
  bool checks_ok = true;
  std::map<std::string, MetricValue> metrics;
};

/// Records one failed check: prints `what` to stderr and marks the run
/// incorrect.
void FailCheck(Outcome* outcome, const std::string& what);

/// Set-up (input generation and program start-up) is repeated this many
/// times per run and its median reported as setup_s.
inline constexpr int kSetupRounds = 9;

/// Timing of the measured units of an untraced run, turned into the
/// end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_seconds;
  std::vector<double> unit_seconds;
  /// Input points processed (inserted, on the stream) in the window.
  double points = 0.0;
  double window_seconds = 0.0;
  /// Wire bytes (uplink + downlink) per input point of one unit.
  double wire_bytes_per_pt = 0.0;
};
void FillEndToEnd(const EndToEnd& e2e, Outcome* outcome);

/// The per-layer metric names, in the order BENCHMARK.json lists them.
/// A traced run starts from all of them at 0 (the layer did no work on
/// the workload) and overwrites what the workload exercises.
void InitPerLayer(Outcome* outcome);
void SetLayer(Outcome* outcome, const std::string& name, double value);

/// Prints the report lines and the final JSON result line.
void PrintOutcome(const Options& options, const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
