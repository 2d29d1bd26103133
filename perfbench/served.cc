// The served workload: an in-process DbdcServer on loopback serving two
// closed-loop RunRemoteJob clients. It is the only workload through the
// serve wire, the sockets and the job queue, and the only batch path over
// the framed (protocol) transfer and the aggregation tree. Unit: one job,
// from submit to result.
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "data/generators.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
// Distinct requests the clients cycle through; each has one in-process
// reference result.
constexpr int kDistinctJobs = 8;
constexpr std::size_t kPointsPerJob = 50000;
// One worker thread per job: at two, the two jobs in flight fill all four
// vCPUs of the reference host with short fork-join phases (a thread pool
// per site and stage), and job latency then mostly measures contention
// from other tenants of the host (+44 % under a two-core CPU hog, against
// +5 % at one thread per job).
constexpr int kThreadsPerJob = 1;

std::vector<dbdc::serve::JobRequest> MakeRequests(std::uint64_t seed) {
  std::vector<dbdc::serve::JobRequest> requests(kDistinctJobs);
  for (int j = 0; j < kDistinctJobs; ++j) {
    const std::uint64_t job_seed =
        seed * 1000003ULL + static_cast<std::uint64_t>(j);
    dbdc::serve::JobRequest& request = requests[static_cast<std::size_t>(j)];
    request.data =
        dbdc::MakeBlobs(kPointsPerJob, 20, 0.05, 0.5, 1.5, job_seed).data;
    dbdc::DbdcConfig& config = request.config;
    config.local_dbscan.eps = 0.8;
    config.local_dbscan.min_pts = 8;
    config.index_type = dbdc::IndexType::kGrid;
    config.num_sites = 16;
    config.topology.kind = dbdc::TopologyKind::kTree;
    config.topology.fanout = 4;
    config.protocol.enabled = true;
    config.num_threads = kThreadsPerJob;
    config.seed = job_seed;
  }
  return requests;
}

std::unique_ptr<dbdc::serve::DbdcServer> StartServer(Outcome* outcome) {
  dbdc::serve::ServerOptions options;
  options.limits.max_active = 2;
  options.limits.max_threads_per_job = kThreadsPerJob;
  options.log = [](const std::string&) {};
  auto server = std::make_unique<dbdc::serve::DbdcServer>(options);
  std::string error;
  if (!server->Start(&error)) FailCheck(outcome, "server start: " + error);
  return server;
}

// The remote job matches the in-process run of the same request: labels,
// cluster count, wire bytes, protocol counters.
bool SameOutput(const dbdc::serve::RemoteOutcome& remote,
                const dbdc::DbdcResult& local) {
  return remote.ok && remote.result.labels == local.labels &&
         remote.result.num_global_clusters == local.num_global_clusters &&
         remote.result.bytes_uplink == local.bytes_uplink &&
         remote.result.bytes_downlink == local.bytes_downlink &&
         remote.result.protocol_retries == local.protocol_retries &&
         remote.result.sites_reporting == local.sites_reporting;
}

// In-process runs of `requests`; `*wire` sums their bytes over every hop.
std::vector<dbdc::DbdcResult> References(
    const std::vector<dbdc::serve::JobRequest>& requests, WireBytes* wire,
    Outcome* outcome) {
  std::vector<dbdc::DbdcResult> references;
  for (const dbdc::serve::JobRequest& request : requests) {
    WireBytes one;
    references.push_back(RunCounted(request.data, request.config, &one));
    wire->up += one.up;
    wire->down += one.down;
    const dbdc::DbdcResult& ref = references.back();
    if (ref.num_global_clusters < 1 || ref.sites_failed != 0) {
      FailCheck(outcome, "in-process reference produced no usable clustering");
    }
  }
  return references;
}

dbdc::serve::ClientOptions Client(const dbdc::serve::DbdcServer& server) {
  dbdc::serve::ClientOptions options;
  options.port = server.port();
  return options;
}

Outcome RunUntraced(const Options& options) {
  Outcome outcome;
  EndToEnd e2e;
  std::vector<dbdc::serve::JobRequest> requests;
  std::unique_ptr<dbdc::serve::DbdcServer> server;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (server != nullptr) server->Stop();
    const dbdc::Timer timer;
    requests = MakeRequests(options.seed);
    server = StartServer(&outcome);
    e2e.setup_seconds.push_back(timer.Seconds());
  }
  PrintHostBlock("served", kDistinctJobs * kPointsPerJob * 2 * sizeof(double));
  WireBytes wire;
  const std::vector<dbdc::DbdcResult> references =
      References(requests, &wire, &outcome);
  const dbdc::serve::ClientOptions client = Client(*server);

  std::mutex mu;
  std::vector<double> paper_overall;
  std::vector<double> unattributed;
  const auto run_job = [&](int job, bool timed) {
    const dbdc::Timer unit;
    const dbdc::serve::RemoteOutcome remote = dbdc::serve::RunRemoteJob(
        requests[static_cast<std::size_t>(job)], client);
    const double seconds = unit.Seconds();
    const bool ok =
        SameOutput(remote, references[static_cast<std::size_t>(job)]);
    const std::lock_guard<std::mutex> lock(mu);
    if (!timed) {
      if (!ok) FailCheck(&outcome, "warm-up job differs from in-process run");
      return;
    }
    ++outcome.attempted;
    if (!ok) ++outcome.failed;
    e2e.unit_seconds.push_back(seconds);
    paper_overall.push_back(remote.result.OverallSeconds());
    unattributed.push_back(1.0 - StageSeconds(remote.result) / seconds);
  };

  for (int c = 0; c < kClients; ++c) run_job(c, /*timed=*/false);
  const dbdc::Timer window;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; window.Seconds() < options.seconds; ++k) {
        run_job((c + kClients * k) % kDistinctJobs, /*timed=*/true);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  e2e.window_seconds = window.Seconds();
  server->Stop();

  e2e.points = static_cast<double>(e2e.unit_seconds.size() * kPointsPerJob);
  e2e.wire_bytes_per_pt = static_cast<double>(wire.total()) /
                          static_cast<double>(kDistinctJobs * kPointsPerJob);
  std::printf("paper_model_gap: pipeline.paper_overall_s %.4f s (median) "
              "next to measured job latency %.4f s; unattributed_frac %.4f\n",
              Median(paper_overall), Median(e2e.unit_seconds),
              Median(unattributed));
  FillEndToEnd(e2e, &outcome);
  return outcome;
}

Outcome RunTracedServed(const Options& options) {
  Outcome outcome;
  InitPerLayer(&outcome);
  const std::vector<dbdc::serve::JobRequest> requests =
      MakeRequests(options.seed);
  const dbdc::serve::JobRequest& request = requests.front();
  const std::unique_ptr<dbdc::serve::DbdcServer> server = StartServer(&outcome);
  PrintHostBlock("served", kPointsPerJob * 2 * sizeof(double));
  const dbdc::serve::ClientOptions client = Client(*server);

  // The same request in process and through the server, one at a time.
  const dbdc::DbdcResult reference =
      dbdc::RunDbdc(request.data, dbdc::Euclidean(), request.config);
  std::vector<double> local_walls;
  std::vector<double> remote_walls;
  std::vector<double> remote_unattributed;
  dbdc::serve::RemoteOutcome remote;
  for (int i = 0; i < 3; ++i) {
    const dbdc::Timer local_timer;
    const dbdc::DbdcResult local =
        dbdc::RunDbdc(request.data, dbdc::Euclidean(), request.config);
    local_walls.push_back(local_timer.Seconds());
    ++outcome.attempted;
    if (local.labels != reference.labels) ++outcome.failed;
    const dbdc::Timer remote_timer;
    remote = dbdc::serve::RunRemoteJob(request, client);
    remote_walls.push_back(remote_timer.Seconds());
    remote_unattributed.push_back(1.0 - StageSeconds(remote.result) /
                                            remote_walls.back());
    ++outcome.attempted;
    if (!SameOutput(remote, reference)) ++outcome.failed;
  }
  server->Stop();

  std::vector<std::uint8_t> request_bytes;
  const double encode_s = MedianTime(0.0, [&] {
    request_bytes = dbdc::serve::EncodeJobRequest(request);
  });
  dbdc::serve::JobResultMsg message;
  message.job_id = remote.job_id;
  message.result = remote.result;
  message.params_used = remote.params_used;
  const std::vector<std::uint8_t> result_bytes =
      dbdc::serve::EncodeJobResult(message);
  dbdc::serve::JobResultMsg decoded;
  dbdc::DecodeStatus status = dbdc::DecodeStatus::kOk;
  const double decode_s = MedianTime(0.0, [&] {
    status = dbdc::serve::DecodeJobResult(result_bytes, &decoded);
  });
  if (status != dbdc::DecodeStatus::kOk ||
      decoded.result.labels != reference.labels) {
    FailCheck(&outcome, "JobResult does not round-trip");
  }

  const TracedRun traced = RunTraced(request.data, request.config);
  ++outcome.attempted;
  if (traced.result.labels != reference.labels) ++outcome.failed;
  const LayerDrive drive = DriveLayers(request.data, request.config);
  ++outcome.attempted;
  if (drive.labels != reference.labels) ++outcome.failed;
  const Scaling scaling = MeasureScaling(drive, request.config, &outcome);
  FillPipelineLayers(traced, drive, scaling, Median(local_walls),
                     traced.wall_s, kPointsPerJob, &outcome);

  // The unit here is the remote job: wall clock and the unattributed
  // part (serve wire, sockets, queue) are the client's view of it.
  SetLayer(&outcome, "serve.request_encode_s", encode_s);
  SetLayer(&outcome, "serve.result_decode_s", decode_s);
  SetLayer(&outcome, "serve.overhead_s",
           Median(remote_walls) - Median(local_walls));
  SetLayer(&outcome, "serve.wire_bytes_per_job",
           static_cast<double>(request_bytes.size() + result_bytes.size()));
  SetLayer(&outcome, "pipeline.wall_s", Median(remote_walls));
  SetLayer(&outcome, "pipeline.paper_overall_s",
           remote.result.OverallSeconds());
  SetLayer(&outcome, "pipeline.unattributed_frac", Median(remote_unattributed));
  std::printf("paper_model_gap: pipeline.paper_overall_s %.4f s next to "
              "measured job latency %.4f s (in process %.4f s)\n",
              remote.result.OverallSeconds(), Median(remote_walls),
              Median(local_walls));
  return outcome;
}

}  // namespace

Outcome RunServed(const Options& options) {
  return options.trace ? RunTracedServed(options) : RunUntraced(options);
}

}  // namespace perfbench
