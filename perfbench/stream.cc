// The stream workload: ContinuousDbdc over 16 StreamingSites on a 4-ary
// aggregation tree, protocol on over a seeded lossy network. Each site
// slides a 400-point window by 20 points per tick. It is the only
// workload that writes (incremental DBSCAN Insert/Erase) and the only one
// on the continuous routing path. Unit: one tick, with its inserts and
// erases.
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/aggregator.h"
#include "core/engine.h"
#include "core/model_codec.h"
#include "distrib/fault.h"
#include "distrib/network.h"
#include "distrib/topology.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dbdc::obs::Counter;

constexpr int kSites = 16;
constexpr int kFanout = 4;
constexpr int kTicks = 200;
constexpr int kWindow = 400;
constexpr int kPerTick = 20;
constexpr int kBlobColumns = 4;
constexpr int kBlobRows = 3;
constexpr double kBlobSpacing = 12.0;

// Every site samples the same drifting mixture plus 5 % uniform noise:
// one Gaussian blob (σ 0.6) per cell of a 4x3 lattice,
// jittered, each circling its base position once over the run. The
// lattice (not uniform placement) keeps blobs from overlapping, so the
// cost of a run does not hinge on how one seed happens to place them.
// points[s] holds site s's initial window followed by its per-tick
// arrivals.
struct StreamInput {
  std::vector<std::vector<dbdc::Point>> points;
};

StreamInput MakeInput(std::uint64_t seed) {
  constexpr int kBlobs = kBlobColumns * kBlobRows;
  dbdc::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<double> base_x(kBlobs), base_y(kBlobs), phase(kBlobs);
  for (int b = 0; b < kBlobs; ++b) {
    base_x[b] =
        kBlobSpacing * (0.5 + b % kBlobColumns) + rng.Uniform(-1.0, 1.0);
    base_y[b] =
        kBlobSpacing * (0.5 + b / kBlobColumns) + rng.Uniform(-1.0, 1.0);
    phase[b] = rng.Uniform(0.0, 2.0 * M_PI);
  }
  StreamInput input;
  input.points.resize(kSites);
  for (int s = 0; s < kSites; ++s) {
    std::vector<dbdc::Point>& out = input.points[static_cast<std::size_t>(s)];
    out.reserve(kWindow + kTicks * kPerTick);
    for (int i = 0; i < kWindow + kTicks * kPerTick; ++i) {
      const int tick = i < kWindow ? 0 : (i - kWindow) / kPerTick + 1;
      if (rng.Uniform(0.0, 1.0) < 0.05) {
        out.push_back({rng.Uniform(0.0, kBlobSpacing * kBlobColumns),
                       rng.Uniform(0.0, kBlobSpacing * kBlobRows)});
        continue;
      }
      const int b = static_cast<int>(rng.UniformInt(0, kBlobs - 1));
      const double angle = phase[b] + 2.0 * M_PI * tick / kTicks;
      out.push_back({rng.Gaussian(base_x[b] + 3.0 * std::cos(angle), 0.6),
                     rng.Gaussian(base_y[b] + 3.0 * std::sin(angle), 0.6)});
    }
  }
  return input;
}

dbdc::DbscanParams SiteParams() { return dbdc::DbscanParams{0.8, 5}; }

dbdc::GlobalModelParams GlobalParams() {
  dbdc::GlobalModelParams params;
  params.min_pts_global = 2;
  return params;
}

// One replay of the stream: fresh sites, network and coordinator, the
// initial windows filled (the replay's set-up), then kTicks ticks.
class Replay {
 public:
  Replay(const StreamInput& input, std::uint64_t seed)
      : input_(&input),
        faulty_(&network_, MakeFaultSpec(seed)),
        continuous_(dbdc::Euclidean(), GlobalParams(), MakeProtocol(),
                    &faulty_) {
    continuous_.SetTopology(dbdc::Topology::KaryTree(kSites, kFanout));
    // Refresh on churn alone: after updates worth half a window (every
    // fifth tick). The cluster-count criterion is off because noise makes
    // it fire erratically, which would make a run's cost a matter of
    // chance rather than of the code.
    dbdc::RefreshPolicy policy;
    policy.min_cluster_delta = 0;
    policy.updated_fraction = 0.5;
    windows_.resize(kSites);
    for (int s = 0; s < kSites; ++s) {
      sites_.push_back(std::make_unique<dbdc::StreamingSite>(
          s, dbdc::Euclidean(), SiteParams(), 2, dbdc::LocalModelType::kScor,
          policy));
      continuous_.AttachSite(sites_.back().get());
      for (int i = 0; i < kWindow; ++i) {
        windows_[static_cast<std::size_t>(s)].push_back(
            sites_.back()->Insert(input.points[static_cast<std::size_t>(s)]
                                              [static_cast<std::size_t>(i)]));
      }
    }
  }

  /// Slides every window by kPerTick points for tick `t` (1-based).
  void Update(int t) {
    for (int s = 0; s < kSites; ++s) {
      dbdc::StreamingSite& site = *sites_[static_cast<std::size_t>(s)];
      std::deque<dbdc::PointId>& window = windows_[static_cast<std::size_t>(s)];
      const std::size_t first =
          static_cast<std::size_t>(kWindow + (t - 1) * kPerTick);
      for (std::size_t i = first; i < first + kPerTick; ++i) {
        window.push_back(
            site.Insert(input_->points[static_cast<std::size_t>(s)][i]));
        site.Erase(window.front());
        window.pop_front();
      }
    }
  }

  void Tick() { continuous_.Tick(); }

  /// Digest of everything a tick must reproduce for the same seed: every
  /// site's labels, the coordinator's counters and the wire bytes.
  std::uint64_t Digest() const {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      for (const auto& [id, label] : continuous_.labels(i)) {
        mix(static_cast<std::uint64_t>(id));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(label)));
      }
    }
    const dbdc::ContinuousDbdc::Stats& stats = continuous_.stats();
    for (const std::uint64_t v :
         {stats.refreshes_sent, stats.refreshes_applied, stats.refreshes_lost,
          stats.global_rebuilds, stats.broadcasts_delivered,
          stats.protocol_retries, network_.BytesUplink(),
          network_.BytesDownlink()}) {
      mix(v);
    }
    return h;
  }

  const dbdc::ContinuousDbdc& continuous() const { return continuous_; }
  const dbdc::SimulatedNetwork& network() const { return network_; }
  std::vector<std::unique_ptr<dbdc::StreamingSite>>& sites() { return sites_; }

 private:
  static dbdc::FaultSpec MakeFaultSpec(std::uint64_t seed) {
    dbdc::FaultSpec spec;
    spec.drop_rate = 0.02;
    spec.seed = seed;
    return spec;
  }
  static dbdc::ProtocolConfig MakeProtocol() {
    dbdc::ProtocolConfig protocol;
    protocol.enabled = true;
    protocol.max_attempts = 6;
    return protocol;
  }

  const StreamInput* input_;
  dbdc::SimulatedNetwork network_;
  dbdc::FaultyNetwork faulty_;
  dbdc::ContinuousDbdc continuous_;
  std::vector<std::unique_ptr<dbdc::StreamingSite>> sites_;
  std::vector<std::deque<dbdc::PointId>> windows_;
};

void CheckPlausible(const Replay& replay, Outcome* outcome) {
  const dbdc::ContinuousDbdc::Stats& stats = replay.continuous().stats();
  if (stats.ticks != kTicks || stats.refreshes_applied == 0 ||
      stats.global_rebuilds == 0 ||
      replay.continuous().server().global_model().num_global_clusters < 1) {
    FailCheck(outcome, "stream produced no global clustering");
  }
}

std::uint64_t WorkingSet() {
  return static_cast<std::uint64_t>(kSites) * kWindow * 2 * sizeof(double);
}

Outcome RunUntraced(const Options& options) {
  Outcome outcome;
  EndToEnd e2e;
  for (int round = 0; round < kSetupRounds; ++round) {
    const dbdc::Timer setup;
    const StreamInput round_input = MakeInput(options.seed);
    const Replay replay(round_input, options.seed);
    e2e.setup_seconds.push_back(setup.Seconds());
  }
  const StreamInput input = MakeInput(options.seed);
  PrintHostBlock("stream", WorkingSet());

  std::vector<std::uint64_t> reference;  // Per-tick digests of replay 0.
  std::uint64_t bytes = 0;
  const dbdc::Timer window;
  for (int r = 0; r < 2 || window.Seconds() < options.seconds; ++r) {
    Replay replay(input, options.seed);
    for (int t = 1; t <= kTicks; ++t) {
      const dbdc::Timer unit;
      replay.Update(t);
      replay.Tick();
      e2e.unit_seconds.push_back(unit.Seconds());
      const std::uint64_t digest = replay.Digest();
      ++outcome.attempted;
      if (r == 0) {
        reference.push_back(digest);
      } else if (digest != reference[static_cast<std::size_t>(t - 1)]) {
        ++outcome.failed;
      }
    }
    if (r == 0) {
      CheckPlausible(replay, &outcome);
      bytes =
          CountWire(replay.network(), replay.continuous().topology()).total();
    }
  }
  // Throughput counts the ticks only, not the replays' set-up.
  double ticks_s = 0.0;
  for (const double s : e2e.unit_seconds) ticks_s += s;
  e2e.window_seconds = ticks_s;
  e2e.points = static_cast<double>(e2e.unit_seconds.size()) * kSites * kPerTick;
  e2e.wire_bytes_per_pt = static_cast<double>(bytes) /
                          (static_cast<double>(kTicks) * kSites * kPerTick);
  FillEndToEnd(e2e, &outcome);
  return outcome;
}

Outcome RunTracedStream(const Options& options) {
  Outcome outcome;
  InitPerLayer(&outcome);
  const StreamInput input = MakeInput(options.seed);
  PrintHostBlock("stream", WorkingSet());

  // Untraced replay: the reference digests and the wall clock the
  // traced replay's overhead is measured against.
  std::vector<std::uint64_t> reference;
  double untraced_s = 0.0;
  {
    Replay replay(input, options.seed);
    for (int t = 1; t <= kTicks; ++t) {
      untraced_s += Time([&] {
        replay.Update(t);
        replay.Tick();
      });
      reference.push_back(replay.Digest());
    }
    CheckPlausible(replay, &outcome);
  }

  dbdc::obs::MetricsRegistry registry;
  dbdc::obs::Tracer tracer;
  const dbdc::obs::ObsScope scope(&registry, &tracer);
  Replay replay(input, options.seed);
  double update_s = 0.0;
  double tick_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;
  std::uint64_t simd_blocks = 0;
  for (int t = 1; t <= kTicks; ++t) {
    const dbdc::obs::MetricsSnapshot before = registry.Snapshot();
    const dbdc::Timer unit;
    update_s += Time([&] { replay.Update(t); });
    const dbdc::obs::MetricsSnapshot after = registry.Snapshot();
    tick_s += Time([&] { replay.Tick(); });
    wall_s += unit.Seconds();
    // Index work of the incremental DBSCAN updates only (the tick's
    // global merge and relabel query indexes too).
    candidates += after.counter(Counter::kFastPathCandidates) -
                  before.counter(Counter::kFastPathCandidates);
    pruned += after.counter(Counter::kFastPathPruned) -
              before.counter(Counter::kFastPathPruned);
    simd_blocks += after.counter(Counter::kSimdBlocksScored) -
                   before.counter(Counter::kSimdBlocksScored);
    ++outcome.attempted;
    if (replay.Digest() != reference[static_cast<std::size_t>(t - 1)]) {
      ++outcome.failed;
    }
  }
  const dbdc::obs::MetricsSnapshot snap = registry.Snapshot();
  const dbdc::ContinuousDbdc::Stats& stats = replay.continuous().stats();
  const double ratio_den = static_cast<double>(kTicks);
  const WireBytes wire =
      CountWire(replay.network(), replay.continuous().topology());
  std::printf("stream: %llu refreshes sent, %llu applied, %llu lost, %llu "
              "rebuilds, %llu retries, %llu B up, %llu B down (all hops)\n",
              static_cast<unsigned long long>(stats.refreshes_sent),
              static_cast<unsigned long long>(stats.refreshes_applied),
              static_cast<unsigned long long>(stats.refreshes_lost),
              static_cast<unsigned long long>(stats.global_rebuilds),
              static_cast<unsigned long long>(stats.protocol_retries),
              static_cast<unsigned long long>(wire.up),
              static_cast<unsigned long long>(wire.down));
  SetLayer(&outcome, "stream.update_s", update_s / ratio_den);
  SetLayer(&outcome, "stream.tick_s", tick_s / ratio_den);
  SetLayer(&outcome, "stream.refresh_ratio",
           static_cast<double>(stats.refreshes_applied) /
               static_cast<double>(stats.refreshes_sent));
  SetLayer(&outcome, "stream.rebuilds_per_tick",
           static_cast<double>(stats.global_rebuilds) / ratio_den);
  // IncrementalDbscan does not count its range queries, so
  // index.eps_queries and index.cands_per_query stay 0 here.
  if (candidates > 0) {
    SetLayer(&outcome, "index.hit_ratio",
             static_cast<double>(candidates - pruned) /
                 static_cast<double>(candidates));
  }
  SetLayer(&outcome, "kernel.simd_blocks", static_cast<double>(simd_blocks));
  SetLayer(&outcome, "bytes.uplink", static_cast<double>(wire.up));
  SetLayer(&outcome, "bytes.downlink", static_cast<double>(wire.down));
  SetLayer(&outcome, "protocol.frames",
           static_cast<double>(snap.counter(Counter::kFramesSent)));
  SetLayer(&outcome, "protocol.retries",
           static_cast<double>(snap.counter(Counter::kFramesRetried)));
  SetLayer(&outcome, "protocol.goodput",
           static_cast<double>(
               snap.histogram(dbdc::obs::Histogram::kFramePayloadBytes).sum) /
               static_cast<double>(wire.total()));
  const std::uint64_t relabel_points =
      snap.counter(Counter::kRelabelPointsScanned);
  if (relabel_points > 0) {
    SetLayer(&outcome, "relabel.cands_per_pt",
             static_cast<double>(snap.counter(Counter::kRelabelDistanceComps)) /
                 static_cast<double>(relabel_points));
  }
  SetLayer(&outcome, "pipeline.wall_s", wall_s);
  SetLayer(&outcome, "pipeline.unattributed_frac",
           1.0 - (update_s + tick_s) / wall_s);
  SetLayer(&outcome, "trace.overhead_frac", wall_s / untraced_s - 1.0);

  // The layers inside a tick, timed once each over the final state: every
  // site re-derives and encodes its model, the tree merges them, the root
  // builds and encodes the global model, and every site relabels.
  const dbdc::Metric& metric = dbdc::Euclidean();
  double local_model_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t codec_bytes = 0;
  std::size_t reps = 0;
  std::size_t active = 0;
  std::vector<std::vector<std::uint8_t>> site_bytes;
  for (const std::unique_ptr<dbdc::StreamingSite>& site : replay.sites()) {
    local_model_s += Time([&] { site->RefreshModel(); });
    reps += site->local_model().representatives.size();
    active += site->clustering().size();
    std::vector<std::uint8_t> bytes;
    encode_s += Time([&] { bytes = site->EncodeLocalModelBytes(); });
    codec_bytes += bytes.size();
    dbdc::LocalModel decoded;
    decode_s += Time([&] {
      DBDC_CHECK(dbdc::DecodeLocalModel(bytes, &decoded) ==
                 dbdc::DecodeStatus::kOk);
    });
    site_bytes.push_back(std::move(bytes));
  }
  const dbdc::Topology topology = dbdc::Topology::KaryTree(kSites, kFanout);
  double aggregator_s = 0.0;
  std::vector<dbdc::LocalModel> at_root;
  for (const dbdc::EndpointId agg : topology.AggregatorsBottomUp()) {
    dbdc::AggregatorNode node(agg, metric, GlobalParams(), 0.0);
    for (const dbdc::EndpointId child : topology.ChildrenOf(agg)) {
      DBDC_CHECK(node.AddChildModelBytes(
                     site_bytes[static_cast<std::size_t>(child)]) ==
                 dbdc::DecodeStatus::kOk);
    }
    aggregator_s +=
        Time([&] { at_root.push_back(node.BuildIntermediateModel()); });
  }
  std::size_t reps_in = 0;
  for (const dbdc::LocalModel& model : at_root) {
    reps_in += model.representatives.size();
  }
  dbdc::GlobalModel global;
  const double merge_s = Time([&] {
    global = dbdc::BuildGlobalModel(at_root, metric, GlobalParams());
  });
  std::vector<std::uint8_t> global_bytes;
  encode_s += Time([&] { global_bytes = dbdc::EncodeGlobalModel(global); });
  codec_bytes += global_bytes.size();
  dbdc::GlobalModel decoded_global;
  decode_s += Time([&] {
    DBDC_CHECK(dbdc::DecodeGlobalModel(global_bytes, &decoded_global) ==
               dbdc::DecodeStatus::kOk);
  });
  double relabel_s = 0.0;
  for (const std::unique_ptr<dbdc::StreamingSite>& site : replay.sites()) {
    relabel_s += Time([&] { (void)site->ApplyGlobalModel(decoded_global); });
  }
  SetLayer(&outcome, "local_model.s", local_model_s);
  SetLayer(&outcome, "local_model.reps_per_pt",
           static_cast<double>(reps) / static_cast<double>(active));
  SetLayer(&outcome, "codec.encode_s", encode_s);
  SetLayer(&outcome, "codec.decode_s", decode_s);
  SetLayer(&outcome, "codec.bytes", static_cast<double>(codec_bytes));
  SetLayer(&outcome, "aggregator.merge_s", aggregator_s);
  SetLayer(&outcome, "root.fan_in",
           static_cast<double>(
               topology.ChildrenOf(dbdc::kServerEndpoint).size()));
  SetLayer(&outcome, "merge_global.s", merge_s);
  SetLayer(&outcome, "global.reps_in", static_cast<double>(reps_in));
  SetLayer(&outcome, "relabel.s", relabel_s);
  return outcome;
}

}  // namespace

Outcome RunStream(const Options& options) {
  return options.trace ? RunTracedStream(options) : RunUntraced(options);
}

}  // namespace perfbench
