// The benchmark's workloads; each runs one mode (untraced end-to-end or
// traced per-layer) and returns what the result line reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Outcome RunBlobs2d(const Options& options);
Outcome RunHighDim8(const Options& options);
Outcome RunServed(const Options& options);
Outcome RunStream(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
