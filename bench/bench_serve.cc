// Serve-path concurrency benchmark: aggregate fetch-subset throughput of
// an in-process kondo daemon under `kondo blast` load at 1, 2, 4, and 8
// closed-loop clients, plus the subset cache's hit/miss byte-identity
// check. Emits BENCH_serve.json in the working directory.
//
// Latency model. Each fetch-subset request carries a deterministic
// blocking sleep (ServeOptions::fetch_sleep_micros) modelling the backing
// store's round trip — the NVMe/object-store read a production deployment
// pays per miss. A *sleep*, not a busy-wait, for the same reason
// bench_shard sleeps: blocked sessions overlap even on one hardware
// thread, so the benchmark measures how well the daemon's session
// concurrency pipelines independent requests, not how many cores the CI
// box has.
//
// Gates: >= 4x aggregate throughput at 8 clients vs 1; every response
// byte-identical within and across clients (the wire-level cache
// contract); a direct hit-vs-miss raw-frame comparison; zero failed
// requests anywhere.
//
// Knobs: KONDO_BENCH_SERVE_REQUESTS      requests per client (default 400)
//        KONDO_BENCH_SERVE_SLEEP_MICROS  per-fetch model sleep (default 500)
//        KONDO_BENCH_SERVE_RANGE         fetched element range (default 256)
//        KONDO_BENCH_SERVE_REPS          timing reps, best-of (default 2)

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "bench/bench_util.h"
#include "pack/pack_writer.h"
#include "serve/blast.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/shard_scheduler.h"

namespace kondo {
namespace {

constexpr int kClientCounts[] = {1, 2, 4, 8};

struct LoadRun {
  int clients = 0;
  BlastReport report;
  double speedup = 1.0;  // Aggregate rps vs the 1-client leg.
};

/// A 32x32 debloated array with every third element retained, packaged.
bool WriteArtifact(const std::string& path) {
  DataArray data(Shape({32, 32}));
  data.FillPattern(/*seed=*/42);
  IndexSet retained(data.shape());
  for (int64_t linear = 0; linear < 1024; linear += 3) {
    retained.InsertLinear(linear);
  }
  const DebloatedArray debloated =
      DebloatedArray::FromDataArray(data, retained);
  const StatusOr<PackStats> written = WriteKdpFile(path, debloated);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 written.status().ToString().c_str());
    return false;
  }
  return true;
}

void WriteJson(const std::vector<LoadRun>& runs, int64_t requests,
               int64_t sleep_micros, int64_t range, bool hit_identical,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"serve_throughput\",\n"
               "  \"requests_per_client\": %lld,\n"
               "  \"fetch_sleep_micros\": %lld,\n"
               "  \"range_elements\": %lld,\n"
               "  \"hit_byte_identical_to_miss\": %s,\n"
               "  \"runs\": [\n",
               static_cast<long long>(requests),
               static_cast<long long>(sleep_micros),
               static_cast<long long>(range),
               hit_identical ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const LoadRun& run = runs[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"ok\": %lld, \"failed\": %lld, "
                 "\"seconds\": %.6f,\n"
                 "     \"throughput_rps\": %.1f, \"speedup_vs_1\": %.4f, "
                 "\"p50_us\": %lld, \"p99_us\": %lld,\n"
                 "     \"responses_identical\": %s}%s\n",
                 run.clients, static_cast<long long>(run.report.ok_requests),
                 static_cast<long long>(run.report.failed_requests),
                 run.report.elapsed_seconds, run.report.throughput_rps,
                 run.speedup,
                 static_cast<long long>(run.report.p50_micros),
                 static_cast<long long>(run.report.p99_micros),
                 run.report.responses_identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const int64_t requests = bench::EnvInt("KONDO_BENCH_SERVE_REQUESTS", 400);
  const int64_t sleep_micros =
      bench::EnvInt("KONDO_BENCH_SERVE_SLEEP_MICROS", 500);
  const int64_t range = bench::EnvInt("KONDO_BENCH_SERVE_RANGE", 256);
  const int reps = static_cast<int>(bench::EnvInt("KONDO_BENCH_SERVE_REPS", 2));

  const std::string pool = "bench_serve_pool";
  (void)std::remove((pool + "/main.kdp").c_str());
  (void)std::remove((pool + "/kondo.sock").c_str());
  const Status pool_made = EnsureCampaignDirectory(pool);
  if (!pool_made.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", pool.c_str(),
                 pool_made.ToString().c_str());
    return 1;
  }
  if (!WriteArtifact(pool + "/main.kdp")) {
    return 1;
  }

  ServeOptions options;
  options.address.unix_path = pool + "/kondo.sock";
  options.pool_root = pool;
  options.fetch_sleep_micros = sleep_micros;
  KondoServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Hit/miss byte identity, observed at the rawest level the client can:
  // the first fetch builds the payload, the second is served from cache,
  // and the two full frames must match bit for bit.
  bool hit_identical = false;
  {
    auto client = KpcClient::Connect(server.bound_address());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    FetchSubsetRequest request;
    request.artifact = "main.kdp";
    request.begin = 0;
    request.end = range;
    const auto miss = (*client)->FetchSubsetRaw(request);
    const auto hit = (*client)->FetchSubsetRaw(request);
    if (!miss.ok() || !hit.ok()) {
      std::fprintf(stderr, "identity fetch failed\n");
      return 1;
    }
    const ServeStatsSnapshot stats = server.Stats();
    hit_identical =
        *miss == *hit && stats.cache_hits >= 1 && stats.cache_misses == 1;
  }

  std::vector<LoadRun> runs;
  for (int clients : kClientCounts) {
    BlastOptions blast;
    blast.address = server.bound_address();
    blast.artifact = "main.kdp";
    blast.clients = clients;
    blast.requests = static_cast<int>(requests);
    blast.begin = 0;
    blast.end = range;

    LoadRun best;
    best.clients = clients;
    for (int rep = 0; rep < reps; ++rep) {
      StatusOr<BlastReport> report = RunBlast(blast);
      if (!report.ok()) {
        std::fprintf(stderr, "blast failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 ||
          report->throughput_rps > best.report.throughput_rps) {
        best.report = *report;
      }
    }
    best.speedup = runs.empty() ? 1.0
                                : best.report.throughput_rps /
                                      runs.front().report.throughput_rps;
    runs.push_back(best);
    std::printf("clients=%d  %6lld ok  %5.3f s  %8.0f req/s  "
                "speedup %5.2fx  p50/p99 %lld/%lld us  %s\n",
                clients,
                static_cast<long long>(best.report.ok_requests),
                best.report.elapsed_seconds, best.report.throughput_rps,
                best.speedup,
                static_cast<long long>(best.report.p50_micros),
                static_cast<long long>(best.report.p99_micros),
                best.report.responses_identical ? "identical" : "DIVERGENT");
  }

  server.Stop();
  const ServeStatsSnapshot stats = server.Stats();
  std::printf("cache: %lld hits / %lld misses, %lld sessions, "
              "%lld requests\n",
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<long long>(stats.sessions_accepted),
              static_cast<long long>(stats.requests_total));
  WriteJson(runs, requests, sleep_micros, range, hit_identical,
            "BENCH_serve.json");

  // Acceptance gates.
  bool ok = true;
  if (!hit_identical) {
    std::fprintf(stderr, "FAIL: cache hit not byte-identical to miss\n");
    ok = false;
  }
  for (const LoadRun& run : runs) {
    if (run.report.failed_requests != 0) {
      std::fprintf(stderr, "FAIL: %lld failed requests at %d clients\n",
                   static_cast<long long>(run.report.failed_requests),
                   run.clients);
      ok = false;
    }
    if (!run.report.responses_identical) {
      std::fprintf(stderr, "FAIL: divergent responses at %d clients\n",
                   run.clients);
      ok = false;
    }
    if (run.clients == 8 && run.speedup < 4.0) {
      std::fprintf(stderr, "FAIL: 8-client speedup %.2fx < 4.0x\n",
                   run.speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
