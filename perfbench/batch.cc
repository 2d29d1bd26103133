// The two in-process batch workloads: one RunDbdc per unit, input to
// labels.
//
//   blobs2d  — the paper's 2-d setting; local DBSCAN and relabel do
//              almost all the work. Timed at one thread: at nproc threads
//              the unit mostly measured the VM's CPU steal (README).
//   highdim8 — 8-d blobs on the approximate index; the grid over the
//              global representatives makes relabel probe 3^8 cells per
//              point, so relabel dominates.
#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "data/generators.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct BatchSpec {
  const char* name;
  dbdc::SyntheticDataset (*generate)(std::uint64_t seed);
  dbdc::DbdcConfig (*configure)(const dbdc::SyntheticDataset& gen,
                                std::uint64_t seed);
  /// Datasets a run generates (from seeds derived from --seed); units
  /// cycle through them, so one run averages over several draws of the
  /// generator instead of reporting one draw's cost.
  int datasets;
  /// Timed units a run makes at least, however long they take.
  int min_units;
  /// Untimed nproc-thread units before the window, cycling over the
  /// datasets; each is a checked unit that must equal the 1-thread
  /// reference. The reference runs already warm the process; on a
  /// workload timed at one thread these units check the labels across
  /// thread counts.
  int warmup_units;
  /// Untraced units a traced run times for trace.overhead_frac.
  int overhead_units;
};

dbdc::SyntheticDataset Blobs2d(std::uint64_t seed) {
  return dbdc::MakeBlobs(200000, 40, 0.05, 0.5, 1.5, seed);
}

dbdc::DbdcConfig Blobs2dConfig(const dbdc::SyntheticDataset& /*gen*/,
                               std::uint64_t seed) {
  dbdc::DbdcConfig config;
  config.local_dbscan.eps = 0.8;
  config.local_dbscan.min_pts = 8;
  config.index_type = dbdc::IndexType::kGrid;
  config.num_sites = 8;
  config.num_threads = 1;
  config.seed = seed;
  return config;
}

dbdc::SyntheticDataset HighDim8(std::uint64_t seed) {
  return dbdc::MakeHighDimBlobs(50000, 8, 64, 0.05, seed);
}

dbdc::DbdcConfig HighDim8Config(const dbdc::SyntheticDataset& gen,
                                std::uint64_t seed) {
  dbdc::DbdcConfig config;
  config.local_dbscan = gen.suggested_params;
  config.index_type = dbdc::IndexType::kApprox;
  config.num_sites = 8;
  config.num_threads = Nproc();
  config.seed = seed;
  return config;
}

const BatchSpec kBlobs2d{"blobs2d", Blobs2d, Blobs2dConfig, 4, 8, 4, 3};
const BatchSpec kHighDim8{"highdim8", HighDim8, HighDim8Config, 1, 2, 0, 1};

std::uint64_t DatasetSeed(std::uint64_t seed, int k) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(k);
}

// A unit's output matches the reference when labels, cluster count and
// wire bytes are identical.
bool SameOutput(const dbdc::DbdcResult& a, const dbdc::DbdcResult& b) {
  return a.labels == b.labels &&
         a.num_global_clusters == b.num_global_clusters &&
         a.bytes_uplink == b.bytes_uplink &&
         a.bytes_downlink == b.bytes_downlink;
}

void CheckPlausible(const dbdc::DbdcResult& result, std::size_t n,
                    Outcome* outcome) {
  if (result.labels.size() != n || result.num_global_clusters < 1 ||
      result.sites_relabeled != static_cast<int>(result.site_sizes.size())) {
    FailCheck(outcome, "reference run produced no usable clustering");
  }
}

Outcome RunUntraced(const BatchSpec& spec, const Options& options) {
  Outcome outcome;
  EndToEnd e2e;
  std::vector<dbdc::SyntheticDataset> gens(
      static_cast<std::size_t>(spec.datasets));
  for (int round = 0; round < kSetupRounds; ++round) {
    const dbdc::Timer timer;
    for (int k = 0; k < spec.datasets; ++k) {
      gens[static_cast<std::size_t>(k)] =
          spec.generate(DatasetSeed(options.seed, k));
    }
    e2e.setup_seconds.push_back(timer.Seconds());
  }
  std::vector<dbdc::DbdcConfig> configs;
  std::vector<dbdc::DbdcResult> references;
  std::uint64_t wire_bytes = 0;
  std::size_t total_points = 0;
  for (int k = 0; k < spec.datasets; ++k) {
    const dbdc::SyntheticDataset& gen = gens[static_cast<std::size_t>(k)];
    configs.push_back(spec.configure(gen, DatasetSeed(options.seed, k)));
    dbdc::DbdcConfig reference_config = configs.back();
    reference_config.num_threads = 1;
    WireBytes wire;
    references.push_back(RunCounted(gen.data, reference_config, &wire));
    CheckPlausible(references.back(), gen.data.size(), &outcome);
    wire_bytes += wire.total();
    total_points += gen.data.size();
  }
  PrintHostBlock(spec.name, total_points *
                                static_cast<std::size_t>(gens[0].data.dim()) *
                                sizeof(double));
  for (int i = 0; i < spec.warmup_units; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % gens.size();
    dbdc::DbdcConfig warmup_config = configs[k];
    warmup_config.num_threads = Nproc();
    ++outcome.attempted;
    if (!SameOutput(
            dbdc::RunDbdc(gens[k].data, dbdc::Euclidean(), warmup_config),
            references[k])) {
      ++outcome.failed;
    }
  }

  std::vector<double> paper_overall;
  std::vector<double> unattributed;
  const dbdc::Timer window;
  for (std::size_t i = 0; window.Seconds() < options.seconds ||
                          static_cast<int>(i) < spec.min_units;
       ++i) {
    const std::size_t k = i % gens.size();
    const dbdc::Dataset& data = gens[k].data;
    const dbdc::Timer unit;
    const dbdc::DbdcResult result =
        dbdc::RunDbdc(data, dbdc::Euclidean(), configs[k]);
    const double seconds = unit.Seconds();
    e2e.unit_seconds.push_back(seconds);
    e2e.points += static_cast<double>(data.size());
    paper_overall.push_back(result.OverallSeconds());
    unattributed.push_back(1.0 - StageSeconds(result) / seconds);
    ++outcome.attempted;
    if (!SameOutput(result, references[k])) ++outcome.failed;
  }
  e2e.window_seconds = window.Seconds();
  e2e.wire_bytes_per_pt =
      static_cast<double>(wire_bytes) / static_cast<double>(total_points);
  std::printf("paper_model_gap: pipeline.paper_overall_s %.4f s (median) "
              "next to measured unit wall %.4f s; unattributed_frac %.4f\n",
              Median(paper_overall), Median(e2e.unit_seconds),
              Median(unattributed));
  FillEndToEnd(e2e, &outcome);
  return outcome;
}

Outcome RunTracedBatch(const BatchSpec& spec, const Options& options) {
  Outcome outcome;
  InitPerLayer(&outcome);
  const dbdc::SyntheticDataset gen =
      spec.generate(DatasetSeed(options.seed, 0));
  const dbdc::Dataset& data = gen.data;
  const dbdc::DbdcConfig config =
      spec.configure(gen, DatasetSeed(options.seed, 0));
  PrintHostBlock(spec.name, data.size() * static_cast<std::size_t>(data.dim()) *
                                sizeof(double));

  dbdc::DbdcResult untraced;
  std::vector<double> walls;
  for (int i = 0; i < spec.overhead_units; ++i) {
    const dbdc::Timer unit;
    dbdc::DbdcResult result = dbdc::RunDbdc(data, dbdc::Euclidean(), config);
    walls.push_back(unit.Seconds());
    ++outcome.attempted;
    if (i == 0) {
      CheckPlausible(result, data.size(), &outcome);
      untraced = std::move(result);
    } else if (!SameOutput(result, untraced)) {
      ++outcome.failed;
    }
  }
  const TracedRun traced = RunTraced(data, config);
  ++outcome.attempted;
  if (!SameOutput(traced.result, untraced)) ++outcome.failed;
  const LayerDrive drive = DriveLayers(data, config);
  ++outcome.attempted;
  if (drive.labels != untraced.labels) ++outcome.failed;
  const Scaling scaling = MeasureScaling(drive, config, &outcome);
  FillPipelineLayers(traced, drive, scaling, Median(walls), traced.wall_s,
                     data.size(), &outcome);
  std::printf("paper_model_gap: pipeline.paper_overall_s %.4f s next to "
              "measured unit wall %.4f s (traced)\n",
              traced.result.OverallSeconds(), traced.wall_s);
  return outcome;
}

Outcome RunBatch(const BatchSpec& spec, const Options& options) {
  return options.trace ? RunTracedBatch(spec, options)
                       : RunUntraced(spec, options);
}

}  // namespace

Outcome RunBlobs2d(const Options& options) {
  return RunBatch(kBlobs2d, options);
}

Outcome RunHighDim8(const Options& options) {
  return RunBatch(kHighDim8, options);
}

}  // namespace perfbench
