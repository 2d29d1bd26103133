// End-to-end DBDC benchmark. Usage:
//   perfbench_e2e --workload <blobs2d|highdim8|served|stream> --seed <n>
//                 --seconds <s> --trace <0|1>
// Prints a report and, as its last line, one JSON result object.
#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::MarkRunStart();
  perfbench::Options options;
  if (!perfbench::ParseOptions(argc, argv, &options)) return 2;
  perfbench::Outcome (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "blobs2d") run = perfbench::RunBlobs2d;
  if (options.workload == "highdim8") run = perfbench::RunHighDim8;
  if (options.workload == "served") run = perfbench::RunServed;
  if (options.workload == "stream") run = perfbench::RunStream;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::printf("workload: %s seed: %llu seconds: %g trace: %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const perfbench::Outcome outcome = run(options);
  perfbench::PrintOutcome(options, outcome);
  return 0;
}
