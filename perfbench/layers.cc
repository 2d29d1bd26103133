#include "layers.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "core/aggregator.h"
#include "core/local_model.h"
#include "core/model_codec.h"
#include "core/relabel.h"
#include "distrib/partitioner.h"
#include "distrib/topology.h"
#include "index/index_factory.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace perfbench {
namespace {

using dbdc::obs::Counter;

// The engine's global-model parameters for `config` (MergeGlobal and the
// aggregators use the same ones).
dbdc::GlobalModelParams GlobalParams(const dbdc::DbdcConfig& config) {
  dbdc::GlobalModelParams params;
  params.eps_global = config.eps_global;
  params.min_pts_global = 2;
  params.index_type = config.index_type;
  params.approx = config.approx;
  params.min_weight_global = config.min_weight_global;
  params.num_threads = config.num_threads;
  return params;
}

double SpanSeconds(const std::vector<dbdc::obs::SpanRecord>& spans,
                   const std::string& name) {
  std::int64_t us = 0;
  for (const dbdc::obs::SpanRecord& span : spans) {
    if (!span.virtual_clock && span.name == name) us += span.dur_us;
  }
  return static_cast<double>(us) * 1e-6;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

dbdc::Topology TopologyOf(const dbdc::DbdcConfig& config) {
  return config.topology.kind == dbdc::TopologyKind::kTree
             ? dbdc::Topology::KaryTree(config.num_sites,
                                        config.topology.fanout)
             : dbdc::Topology::Flat(config.num_sites);
}

}  // namespace

WireBytes CountWire(const dbdc::SimulatedNetwork& network,
                    const dbdc::Topology& topology) {
  WireBytes wire;
  for (const dbdc::NetworkMessage& m : network.messages()) {
    const bool up = m.to == dbdc::kServerEndpoint ||
                    (m.from != dbdc::kServerEndpoint &&
                     topology.ParentOf(m.from) == m.to);
    (up ? wire.up : wire.down) += m.payload.size();
  }
  return wire;
}

dbdc::DbdcResult RunCounted(const dbdc::Dataset& data,
                            const dbdc::DbdcConfig& config, WireBytes* wire) {
  dbdc::SimulatedNetwork network;
  dbdc::DbdcResult result =
      dbdc::RunDbdc(data, dbdc::Euclidean(), config, &network);
  *wire = CountWire(network, TopologyOf(config));
  return result;
}

LayerDrive DriveLayers(const dbdc::Dataset& data,
                       const dbdc::DbdcConfig& config) {
  const dbdc::Metric& metric = dbdc::Euclidean();
  dbdc::obs::MetricsRegistry registry;
  const dbdc::obs::ObsScope scope(&registry, nullptr);
  LayerDrive out;

  const dbdc::UniformRandomPartitioner partitioner;
  dbdc::Rng rng(config.seed);
  const std::vector<std::vector<dbdc::PointId>> parts =
      partitioner.Partition(data, config.num_sites, &rng);
  std::vector<dbdc::Dataset> sites;
  for (const std::vector<dbdc::PointId>& part : parts) {
    dbdc::Dataset site(data.dim());
    site.Reserve(part.size());
    for (const dbdc::PointId id : part) site.Add(data.point(id));
    if (site.size() > out.largest_site.size()) out.largest_site = site;
    sites.push_back(std::move(site));
  }

  // Local clustering and local models, site by site (the engine runs
  // the sites sequentially, each on config.num_threads workers).
  dbdc::DbscanParams dbscan = config.local_dbscan;
  dbscan.threads = config.num_threads;
  std::map<dbdc::EndpointId, std::vector<std::vector<std::uint8_t>>> inbox;
  const dbdc::Topology topology = TopologyOf(config);
  const dbdc::obs::MetricsSnapshot before_local = registry.Snapshot();
  std::vector<dbdc::LocalModel> models;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    std::unique_ptr<dbdc::NeighborIndex> index;
    out.index_build_s += Time([&] {
      index = dbdc::CreateIndex(config.index_type, sites[s], metric,
                                config.local_dbscan.eps, config.approx);
    });
    dbdc::LocalClustering local;
    out.dbscan_s +=
        Time([&] { local = dbdc::RunLocalDbscan(*index, dbscan); });
    dbdc::LocalModel model;
    out.local_model_s += Time([&] {
      model = dbdc::BuildLocalModel(config.model_type, *index, local,
                                    config.local_dbscan, config.kmeans,
                                    static_cast<int>(s));
    });
    out.local_reps += model.representatives.size();
    models.push_back(std::move(model));
  }
  const dbdc::obs::MetricsSnapshot after_local = registry.Snapshot();
  const auto local_delta = [&](Counter c) {
    return after_local.counter(c) - before_local.counter(c);
  };
  out.eps_queries = local_delta(Counter::kEpsRangeQueries);
  if (config.index_type == dbdc::IndexType::kApprox) {
    out.candidates = local_delta(Counter::kApproxCandidatesGenerated);
    out.neighbors = local_delta(Counter::kApproxCandidatesVerified);
  } else {
    out.candidates = local_delta(Counter::kFastPathCandidates);
    out.neighbors = out.candidates - local_delta(Counter::kFastPathPruned);
  }
  out.simd_blocks = local_delta(Counter::kSimdBlocksScored);

  // Uplink along the topology: sites in site order, then every
  // aggregator bottom-up merging its inbox in arrival order.
  for (std::size_t s = 0; s < models.size(); ++s) {
    std::vector<std::uint8_t> bytes;
    out.encode_s += Time([&] { bytes = dbdc::EncodeLocalModel(models[s]); });
    out.codec_bytes += bytes.size();
    inbox[topology.ParentOf(static_cast<int>(s))].push_back(std::move(bytes));
  }
  const dbdc::GlobalModelParams global_params = GlobalParams(config);
  for (const dbdc::EndpointId agg : topology.AggregatorsBottomUp()) {
    dbdc::AggregatorNode node(agg, metric, global_params,
                              config.topology.aggregator_condense_eps);
    std::vector<std::uint8_t> bytes;
    out.aggregator_s += Time([&] {
      for (const std::vector<std::uint8_t>& child : inbox[agg]) {
        DBDC_CHECK(node.AddChildModelBytes(child) == dbdc::DecodeStatus::kOk);
      }
      bytes = node.EncodeIntermediateModelBytes();
    });
    out.codec_bytes += bytes.size();
    inbox[topology.ParentOf(agg)].push_back(std::move(bytes));
  }
  std::vector<dbdc::LocalModel> at_root;
  for (const std::vector<std::uint8_t>& bytes : inbox[dbdc::kServerEndpoint]) {
    dbdc::LocalModel model;
    out.decode_s += Time([&] {
      DBDC_CHECK(dbdc::DecodeLocalModel(bytes, &model) ==
                 dbdc::DecodeStatus::kOk);
    });
    at_root.push_back(std::move(model));
  }
  dbdc::GlobalModel global;
  out.merge_global_s = Time([&] {
    global = dbdc::BuildGlobalModel(at_root, metric, global_params);
  });

  // Broadcast: one encode, one decode per site.
  std::vector<std::uint8_t> global_bytes;
  out.encode_s += Time([&] { global_bytes = dbdc::EncodeGlobalModel(global); });
  out.codec_bytes += global_bytes.size();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    dbdc::GlobalModel decoded;
    out.decode_s += Time([&] {
      DBDC_CHECK(dbdc::DecodeGlobalModel(global_bytes, &decoded) ==
                 dbdc::DecodeStatus::kOk);
    });
    if (s == 0) out.global = std::move(decoded);
  }

  const dbdc::obs::MetricsSnapshot before_relabel = registry.Snapshot();
  out.labels.assign(data.size(), dbdc::kNoise);
  out.relabel_s = Time([&] {
    const dbdc::RelabelContext context(out.global, metric);
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const std::vector<dbdc::ClusterId> labels = dbdc::RelabelSite(
          sites[s], context, metric, config.num_threads);
      for (std::size_t j = 0; j < labels.size(); ++j) {
        out.labels[static_cast<std::size_t>(parts[s][j])] = labels[j];
      }
    }
  });
  const dbdc::obs::MetricsSnapshot after_relabel = registry.Snapshot();
  out.relabel_points = after_relabel.counter(Counter::kRelabelPointsScanned) -
                       before_relabel.counter(Counter::kRelabelPointsScanned);
  out.relabel_comps = after_relabel.counter(Counter::kRelabelDistanceComps) -
                      before_relabel.counter(Counter::kRelabelDistanceComps);
  return out;
}

Scaling MeasureScaling(const LayerDrive& drive, const dbdc::DbdcConfig& config,
                       Outcome* outcome) {
  const dbdc::Metric& metric = dbdc::Euclidean();
  const std::unique_ptr<dbdc::NeighborIndex> index =
      dbdc::CreateIndex(config.index_type, drive.largest_site, metric,
                        config.local_dbscan.eps, config.approx);
  Scaling scaling;
  dbdc::DbscanParams params = config.local_dbscan;
  dbdc::LocalClustering one;
  dbdc::LocalClustering many;
  params.threads = 1;
  const double dbscan_1 = MedianTime(
      0.3, [&] { one = dbdc::RunLocalDbscan(*index, params); });
  params.threads = Nproc();
  const double dbscan_n = MedianTime(
      0.3, [&] { many = dbdc::RunLocalDbscan(*index, params); });
  if (one.clustering.labels != many.clustering.labels) {
    FailCheck(outcome, "RunLocalDbscan labels differ between 1 and nproc "
                       "threads on the largest site");
  }
  scaling.dbscan_speedup = Ratio(dbscan_1, dbscan_n);

  const dbdc::RelabelContext context(drive.global, metric);
  std::vector<dbdc::ClusterId> labels_1;
  std::vector<dbdc::ClusterId> labels_n;
  const double relabel_1 = MedianTime(0.3, [&] {
    labels_1 = dbdc::RelabelSite(drive.largest_site, context, metric, 1);
  });
  const double relabel_n = MedianTime(0.3, [&] {
    labels_n = dbdc::RelabelSite(drive.largest_site, context, metric, Nproc());
  });
  if (labels_1 != labels_n) {
    FailCheck(outcome, "RelabelSite labels differ between 1 and nproc "
                       "threads on the largest site");
  }
  scaling.relabel_speedup = Ratio(relabel_1, relabel_n);
  std::printf("scaling: largest site %zu points, RunLocalDbscan %.4f s at 1 "
              "thread vs %.4f s at %d, RelabelSite %.4f s vs %.4f s\n",
              drive.largest_site.size(), dbscan_1, dbscan_n, Nproc(),
              relabel_1, relabel_n);
  return scaling;
}

TracedRun RunTraced(const dbdc::Dataset& data, const dbdc::DbdcConfig& config) {
  dbdc::obs::MetricsRegistry registry;
  dbdc::obs::Tracer tracer;
  TracedRun out;
  dbdc::SimulatedNetwork network;
  {
    const dbdc::obs::ObsScope scope(&registry, &tracer);
    const dbdc::Timer timer;
    out.result = dbdc::RunDbdc(data, dbdc::Euclidean(), config, &network);
    out.wall_s = timer.Seconds();
  }
  out.wire = CountWire(network, TopologyOf(config));
  out.spans = tracer.Spans();
  return out;
}

void FillPipelineLayers(const TracedRun& traced, const LayerDrive& drive,
                        const Scaling& scaling, double untraced_wall_s,
                        double unit_wall_s, std::size_t points,
                        Outcome* outcome) {
  const dbdc::DbdcResult& result = traced.result;
  static constexpr const char* kStageMetric[dbdc::kNumStages] = {
      "partition.s",  "local_cluster.s", "local_model.s", "transmit.s",
      "merge_global.s", "broadcast.s",   "relabel.s"};
  for (const dbdc::StageStats& stage : result.stage_stats) {
    SetLayer(outcome, kStageMetric[static_cast<int>(stage.stage)],
             stage.seconds);
  }
  const double pts = static_cast<double>(points);
  SetLayer(outcome, "index.build_s", drive.index_build_s);
  SetLayer(outcome, "index.eps_queries",
           static_cast<double>(drive.eps_queries));
  SetLayer(outcome, "index.cands_per_query",
           Ratio(static_cast<double>(drive.candidates),
                 static_cast<double>(drive.eps_queries)));
  SetLayer(outcome, "index.hit_ratio",
           Ratio(static_cast<double>(drive.neighbors),
                 static_cast<double>(drive.candidates)));
  SetLayer(outcome, "kernel.simd_blocks",
           static_cast<double>(drive.simd_blocks));
  const double range_queries =
      SpanSeconds(traced.spans, "dbscan.range_queries");
  SetLayer(outcome, "dbscan.range_queries_s", range_queries);
  // The sequential DBSCAN path interleaves queries and expansion in one
  // "dbscan" span; it is reported as sweep time.
  SetLayer(outcome, "dbscan.sweep_s",
           range_queries > 0.0 ? SpanSeconds(traced.spans, "dbscan.sweep")
                               : SpanSeconds(traced.spans, "dbscan"));
  SetLayer(outcome, "dbscan.speedup_nproc", scaling.dbscan_speedup);
  SetLayer(outcome, "local_model.reps_per_pt",
           Ratio(static_cast<double>(drive.local_reps), pts));
  SetLayer(outcome, "codec.encode_s", drive.encode_s);
  SetLayer(outcome, "codec.decode_s", drive.decode_s);
  SetLayer(outcome, "codec.bytes", static_cast<double>(drive.codec_bytes));
  SetLayer(outcome, "bytes.uplink", static_cast<double>(traced.wire.up));
  SetLayer(outcome, "bytes.downlink", static_cast<double>(traced.wire.down));
  const dbdc::obs::MetricsSnapshot& snap = result.metrics_snapshot;
  SetLayer(outcome, "protocol.frames",
           static_cast<double>(snap.counter(Counter::kFramesSent)));
  SetLayer(outcome, "protocol.retries",
           static_cast<double>(snap.counter(Counter::kFramesRetried)));
  // Without the protocol the payloads cross the transport raw: every
  // wire byte is payload.
  const double wire = static_cast<double>(traced.wire.total());
  const double framed_payload = static_cast<double>(
      snap.histogram(dbdc::obs::Histogram::kFramePayloadBytes).sum);
  SetLayer(outcome, "protocol.goodput",
           snap.counter(Counter::kFramesSent) == 0
               ? 1.0
               : Ratio(framed_payload, wire));
  double aggregator_s = 0.0;
  for (std::size_t l = 1; l < result.level_stats.size(); ++l) {
    aggregator_s += result.level_stats[l].merge_seconds;
  }
  SetLayer(outcome, "aggregator.merge_s", aggregator_s);
  if (!result.level_stats.empty()) {
    SetLayer(outcome, "root.fan_in", result.level_stats[0].models_in);
    SetLayer(outcome, "global.reps_in",
             static_cast<double>(result.level_stats[0].representatives_in));
  }
  SetLayer(outcome, "relabel.cands_per_pt",
           Ratio(static_cast<double>(drive.relabel_comps),
                 static_cast<double>(drive.relabel_points)));
  SetLayer(outcome, "relabel.speedup_nproc", scaling.relabel_speedup);
  SetLayer(outcome, "pipeline.wall_s", unit_wall_s);
  SetLayer(outcome, "pipeline.paper_overall_s", result.OverallSeconds());
  SetLayer(outcome, "pipeline.unattributed_frac",
           1.0 - Ratio(StageSeconds(result), unit_wall_s));
  SetLayer(outcome, "trace.overhead_frac",
           Ratio(traced.wall_s, untraced_wall_s) - 1.0);
}

}  // namespace perfbench
