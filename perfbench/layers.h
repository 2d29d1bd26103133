// Per-layer attribution of a batch DBDC run, measured from outside the
// program: the pipeline driven one public call at a time, the engine's
// own StageStats/level_stats/counters/spans from a traced run, and the
// thread scaling of the two largest stages on the largest site.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "core/dbdc.h"
#include "core/global_model.h"
#include "distrib/network.h"
#include "distrib/topology.h"
#include "obs/trace.h"

namespace perfbench {

/// The batch pipeline rebuilt from the layers' public functions, in the
/// engine's order and with its routing: partition, CreateIndex,
/// RunLocalDbscan, BuildLocalModel, EncodeLocalModel, AggregatorNode
/// merges along the topology, DecodeLocalModel at the root,
/// BuildGlobalModel, Encode/DecodeGlobalModel, RelabelContext +
/// RelabelSite. Without faults its labels must equal RunDbdc's.
struct LayerDrive {
  std::vector<dbdc::ClusterId> labels;
  double index_build_s = 0.0;
  double dbscan_s = 0.0;
  double local_model_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double aggregator_s = 0.0;
  double merge_global_s = 0.0;
  double relabel_s = 0.0;
  /// Bytes the encoders produced (every local, intermediate and global
  /// model once).
  std::uint64_t codec_bytes = 0;
  std::uint64_t local_reps = 0;
  /// Registry counters over the local-clustering calls.
  std::uint64_t eps_queries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t neighbors = 0;
  std::uint64_t simd_blocks = 0;
  /// Registry counters over the relabel calls.
  std::uint64_t relabel_points = 0;
  std::uint64_t relabel_comps = 0;
  /// The largest site's partition and the decoded global model, for the
  /// thread-scaling measurement.
  dbdc::Dataset largest_site{1};
  dbdc::GlobalModel global;
};
LayerDrive DriveLayers(const dbdc::Dataset& data,
                       const dbdc::DbdcConfig& config);

/// 1-thread ÷ nproc-thread time of RunLocalDbscan and RelabelSite on the
/// drive's largest site. Fails the check when the two thread counts
/// disagree on the labels.
struct Scaling {
  double dbscan_speedup = 0.0;
  double relabel_speedup = 0.0;
};
Scaling MeasureScaling(const LayerDrive& drive, const dbdc::DbdcConfig& config,
                       Outcome* outcome);

/// Bytes a run put on a SimulatedNetwork, split by direction of travel
/// over the topology (towards the root = up). DbdcResult's
/// bytes_uplink/downlink count only the hops that touch the root; on a
/// tree the site-aggregator hops are counted here too.
struct WireBytes {
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  std::uint64_t total() const { return up + down; }
};
WireBytes CountWire(const dbdc::SimulatedNetwork& network,
                    const dbdc::Topology& topology);

/// RunDbdc on its own SimulatedNetwork (the one a null network would
/// give it), returning the result and the wire bytes over every hop.
dbdc::DbdcResult RunCounted(const dbdc::Dataset& data,
                            const dbdc::DbdcConfig& config, WireBytes* wire);

/// RunDbdc with a MetricsRegistry and a Tracer attached.
struct TracedRun {
  dbdc::DbdcResult result;
  WireBytes wire;
  double wall_s = 0.0;
  std::vector<dbdc::obs::SpanRecord> spans;
};
TracedRun RunTraced(const dbdc::Dataset& data, const dbdc::DbdcConfig& config);

/// Writes the per-layer metrics of a batch pipeline: stage times, bytes,
/// protocol and topology figures from the traced run, index/codec/model
/// figures from the drive. `untraced_wall_s` is the same unit's wall
/// clock with tracing off (for trace.overhead_frac); `unit_wall_s` is
/// the wall clock the stage times are attributed against.
void FillPipelineLayers(const TracedRun& traced, const LayerDrive& drive,
                        const Scaling& scaling, double untraced_wall_s,
                        double unit_wall_s, std::size_t points,
                        Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
