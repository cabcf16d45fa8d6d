#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "provenance/kel2_writer.h"
#include "shard/shard_campaign.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Histogram bucket for a latency: bucket 0 is < 1us, bucket i covers
/// [2^(i-1), 2^i) us, the last bucket absorbs overflow.
int LatencyBucket(int64_t micros) {
  int bucket = 0;
  while (bucket < kKpcLatencyBuckets - 1 && micros >= (int64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

int EffectiveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

KondoServer::KondoServer(ServeOptions options)
    : options_(std::move(options)),
      artifacts_(options_.pool_root, options_.cache_bytes),
      workers_(EffectiveJobs(options_.jobs)),
      host_(
          [this](Connection& conn, int64_t /*id*/) {
            MutexLock lock(stats_mu_);
            ++counters_.sessions_accepted;
            ++counters_.sessions_active;
            return std::make_unique<Session>(this, conn);
          },
          [this](int64_t /*id*/, const Status& ended) {
            // kOutOfRange is the client hanging up between requests;
            // anything else is a torn or corrupt stream or a failed write.
            MutexLock lock(stats_mu_);
            if (ended.code() != StatusCode::kOutOfRange) {
              ++counters_.protocol_errors;
            }
            --counters_.sessions_active;
          }) {}

KondoServer::~KondoServer() { Stop(); }

Status KondoServer::Start() {
  return host_.Start(NetEnv::Default(), options_.address);
}

void KondoServer::Stop() {
  host_.Stop();
  // Drain every accepted campaign: no job outlives the server.
  std::vector<JobHandle> jobs;
  {
    MutexLock lock(jobs_mu_);
    jobs = all_jobs_;
  }
  for (const JobHandle& job : jobs) {
    job.Wait();
  }
}

Status KondoServer::Session::Handle(const KpcFrame& frame) {
  {
    MutexLock lock(server->stats_mu_);
    ++server->counters_.requests_total;
  }
  Stopwatch stopwatch;
  int verb;
  Status status;
  switch (frame.kind) {
    case KpcKind::kFetchSubsetRequest:
      verb = kVerbFetchSubset;
      status = server->HandleFetchSubset(conn, frame);
      break;
    case KpcKind::kQueryRequest:
      verb = kVerbQuery;
      status = server->HandleQuery(conn, frame);
      break;
    case KpcKind::kSubmitRequest:
      verb = kVerbSubmit;
      status = server->HandleSubmit(this, frame);
      break;
    case KpcKind::kStatsRequest:
      verb = kVerbStats;
      status = server->HandleStats(conn);
      break;
    default:
      return Status(StatusCode::kDataLoss,
                    "unexpected frame kind " +
                        std::to_string(static_cast<int>(frame.kind)));
  }
  server->RecordLatency(verb, stopwatch.ElapsedMicros());
  return status;
}

Status KondoServer::WriteError(Connection& conn, const Status& status) {
  return WriteKpcFrame(conn, KpcKind::kError,
                       KpcError::FromStatus(status).Encode());
}

Status KondoServer::HandleFetchSubset(Connection& conn,
                                      const KpcFrame& frame) {
  KONDO_ASSIGN_OR_RETURN(const FetchSubsetRequest request,
                         FetchSubsetRequest::Decode(frame.payload));
  if (options_.fetch_sleep_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.fetch_sleep_micros));
  }
  StatusOr<std::shared_ptr<const std::string>> payload =
      artifacts_.FetchSubsetPayload(request);
  if (!payload.ok()) {
    return WriteError(conn, payload.status());
  }
  return WriteKpcFrame(conn, KpcKind::kFetchSubsetResponse, **payload);
}

Status KondoServer::HandleQuery(Connection& conn, const KpcFrame& frame) {
  KONDO_ASSIGN_OR_RETURN(const QueryRequest request,
                         QueryRequest::Decode(frame.payload));
  StatusOr<std::shared_ptr<ProvenanceStore>> store =
      artifacts_.OpenStore(request.store);
  if (!store.ok()) {
    return WriteError(conn, store.status());
  }
  ProvenanceQueryStats query_stats;
  StatusOr<std::vector<Event>> events = (*store)->EventsOverlapping(
      request.file_id, request.begin, request.end, &query_stats);
  if (!events.ok()) {
    return WriteError(conn, events.status());
  }
  const int batch_size = std::max(options_.events_per_batch, 1);
  if (request.runs_only == 0) {
    for (size_t start = 0; start < events->size();
         start += static_cast<size_t>(batch_size)) {
      EventBatch batch;
      const size_t stop =
          std::min(events->size(), start + static_cast<size_t>(batch_size));
      batch.events.assign(events->begin() + static_cast<int64_t>(start),
                          events->begin() + static_cast<int64_t>(stop));
      KONDO_RETURN_IF_ERROR(
          WriteKpcFrame(conn, KpcKind::kEventBatch, batch.Encode()));
    }
  }
  QueryDone done;
  done.events_total = static_cast<int64_t>(events->size());
  for (const Event& event : *events) {
    done.runs.push_back(event.id.pid);
  }
  std::sort(done.runs.begin(), done.runs.end());
  done.runs.erase(std::unique(done.runs.begin(), done.runs.end()),
                  done.runs.end());
  done.blocks_considered = query_stats.blocks_considered;
  done.blocks_skipped = query_stats.blocks_skipped;
  done.blocks_decoded = query_stats.blocks_decoded;
  return WriteKpcFrame(conn, KpcKind::kQueryDone, done.Encode());
}

Status KondoServer::HandleSubmit(Session* session, const KpcFrame& frame) {
  KONDO_ASSIGN_OR_RETURN(const SubmitRequest request,
                         SubmitRequest::Decode(frame.payload));
  std::shared_ptr<Program> program = CreateProgram(request.program);
  if (program == nullptr) {
    return WriteError(session->conn,
                      Status(StatusCode::kNotFound,
                             "unknown program: " + request.program));
  }

  // Admission: prune finished handles, then check the per-session
  // in-flight cap and the global accepted-not-yet-running queue.
  session->jobs.erase(
      std::remove_if(session->jobs.begin(), session->jobs.end(),
                     [](const JobHandle& job) { return job.done(); }),
      session->jobs.end());
  SubmitResponse response;
  {
    MutexLock lock(stats_mu_);
    if (counters_.campaign_queue_depth >= options_.queue_capacity) {
      ++counters_.campaigns_rejected;
      response.accepted = 0;
      response.queue_depth = counters_.campaign_queue_depth;
      response.message = "queue full";
    } else if (static_cast<int>(session->jobs.size()) >=
               options_.max_inflight) {
      ++counters_.campaigns_rejected;
      response.accepted = 0;
      response.queue_depth = counters_.campaign_queue_depth;
      response.message = "session in-flight cap reached";
    } else {
      ++counters_.campaigns_submitted;
      ++counters_.campaign_queue_depth;
      response.accepted = 1;
      response.queue_depth = counters_.campaign_queue_depth;
      response.message = "accepted";
    }
  }
  if (response.accepted != 0) {
    KondoConfig config = ScaledKondoConfig(program->data_shape());
    config.rng_seed = static_cast<uint64_t>(request.seed);
    // Campaigns parallelise across submissions, not within one: a pool
    // task must never fan out onto the pool it runs on.
    config.jobs = 1;
    if (request.max_evals > 0) config.fuzz.max_evals = request.max_evals;
    if (request.max_iter > 0) {
      config.fuzz.max_iter = static_cast<int>(request.max_iter);
    }
    int64_t job_id;
    {
      MutexLock lock(jobs_mu_);
      job_id = next_job_id_++;
    }
    response.job_id = job_id;
    JobHandle job = workers_.SubmitJob(
        [this, program, job_id, config] {
          RunCampaignJob(program, job_id, config);
        });
    session->jobs.push_back(job);
    MutexLock lock(jobs_mu_);
    all_jobs_.push_back(std::move(job));
  }
  return WriteKpcFrame(session->conn, KpcKind::kSubmitResponse,
                       response.Encode());
}

void KondoServer::RunCampaignJob(std::shared_ptr<Program> program,
                                 int64_t job_id, KondoConfig config) {
  {
    MutexLock lock(stats_mu_);
    --counters_.campaign_queue_depth;
    ++counters_.campaign_inflight;
  }
  BusyWaitMicros(options_.job_spin_micros);
  const KondoResult result = KondoPipeline(config).Run(*program);

  // Persist the campaign's discovered lineage: one positioned-read event
  // per retained element, the same byte geometry shard campaigns record.
  const std::string path =
      options_.pool_root + "/job-" + std::to_string(job_id) + ".kel2";
  Status status = OkStatus();
  int64_t bytes = 0;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path);
  if (!writer.ok()) {
    status = writer.status();
  } else {
    for (int64_t linear : result.approx.ToSortedLinearIds()) {
      Event event;
      event.id.pid = job_id;
      event.id.file_id = 1;
      event.type = EventType::kPread;
      event.offset = linear * kLineageElemBytes;
      event.size = kLineageElemBytes;
      status = writer->Append(event);
      if (!status.ok()) break;
    }
    if (status.ok()) status = writer->Close();
    bytes = writer->bytes_written();
  }

  MutexLock lock(stats_mu_);
  --counters_.campaign_inflight;
  if (status.ok()) {
    ++counters_.campaigns_completed;
    counters_.lineage_bytes_written += bytes;
  } else {
    ++counters_.campaigns_failed;
  }
}

Status KondoServer::HandleStats(Connection& conn) {
  return WriteKpcFrame(conn, KpcKind::kStatsResponse, Stats().Encode());
}

ServeStatsSnapshot KondoServer::Stats() const {
  ServeStatsSnapshot snapshot;
  {
    MutexLock lock(stats_mu_);
    snapshot = counters_;
  }
  const SubsetCacheStats cache = artifacts_.cache_stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_evictions = cache.evictions;
  snapshot.cache_stale_evictions = cache.stale_evictions;
  snapshot.cache_entries = cache.entries;
  snapshot.cache_bytes = cache.bytes;
  snapshot.cache_capacity_bytes = cache.capacity_bytes;
  snapshot.stores_open = artifacts_.stores_open();
  snapshot.stores_reopened = artifacts_.stores_reopened();
  return snapshot;
}

void KondoServer::RecordLatency(int verb, int64_t micros) {
  MutexLock lock(stats_mu_);
  VerbLatency& latency = counters_.verbs[verb];
  ++latency.count;
  latency.total_micros += micros;
  latency.max_micros = std::max(latency.max_micros, micros);
  ++latency.buckets[LatencyBucket(micros)];
}

}  // namespace kondo
