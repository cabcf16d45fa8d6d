// Tests for the parallel campaign executor (src/exec/): thread pool and
// executor mechanics, the single-writer result channel, per-test RNG seed
// derivation, and the headline guarantee — `jobs = N` campaigns are
// bit-identical to `jobs = 1`, down to the on-disk lineage store.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "array/data_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "array/shape.h"
#include "audit/event.h"
#include "audit/event_log.h"
#include "core/debloat_test.h"
#include "core/kondo.h"
#include "core/metrics.h"
#include "exec/campaign_executor.h"
#include "exec/result_collector.h"
#include "exec/test_candidate.h"
#include "exec/thread_pool.h"
#include "provenance/crc32.h"
#include "provenance/kel2_reader.h"
#include "provenance/persist.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<int64_t> SortedLinear(const IndexSet& set, const Shape& shape) {
  std::vector<int64_t> ids;
  ids.reserve(set.size());
  set.ForEach(
      [&ids, &shape](const Index& index) { ids.push_back(shape.Linearize(index)); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------- Seed KDF --

TEST(DeriveTestSeedTest, DeterministicAcrossCalls) {
  EXPECT_EQ(DeriveTestSeed(42, 3, 17), DeriveTestSeed(42, 3, 17));
}

TEST(DeriveTestSeedTest, DistinctAcrossIdentityGrid) {
  // The stream seed must separate candidates by (campaign, round, index) —
  // collisions would correlate "independent" test RNGs.
  std::set<uint64_t> seen;
  for (uint64_t campaign : {1u, 2u, 99u}) {
    for (int round = 0; round < 8; ++round) {
      for (int index = 0; index < 32; ++index) {
        seen.insert(DeriveTestSeed(campaign, round, index));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 8u * 32u);
}

// ---------------------------------------------------------- Thread pool --

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ClampJobsBounds) {
  EXPECT_GE(HardwareThreads(), 1);
  EXPECT_EQ(ClampJobs(0), 1);
  EXPECT_EQ(ClampJobs(-7), 1);
  EXPECT_EQ(ClampJobs(4), 4);
  EXPECT_EQ(ClampJobs(3, 2), 2);
  const int huge = ClampJobs(1000000);
  EXPECT_GE(huge, 1);
  EXPECT_LE(huge, std::max(64, 8 * HardwareThreads()));
}

// ------------------------------------------------------------- Executor --

TEST(CampaignExecutorTest, MapPreservesItemOrder) {
  CampaignExecutor executor(4);
  EXPECT_EQ(executor.jobs(), 4);
  const std::vector<int64_t> squares =
      executor.Map<int64_t>(100, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
  }
}

TEST(CampaignExecutorTest, SerialExecutorRunsInline) {
  CampaignExecutor executor(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool inline_everywhere = true;
  executor.ParallelFor(16, [&caller, &inline_everywhere](int64_t) {
    if (std::this_thread::get_id() != caller) {
      inline_everywhere = false;
    }
  });
  EXPECT_TRUE(inline_everywhere);
}

TEST(CampaignExecutorTest, RethrowsFirstWorkerException) {
  CampaignExecutor executor(4);
  EXPECT_THROW(executor.ParallelFor(
                   50,
                   [](int64_t i) {
                     if (i == 17) {
                       throw std::runtime_error("worker failure");
                     }
                   }),
               std::runtime_error);
}

TEST(CampaignExecutorTest, RunBatchAlignsResultsWithCandidates) {
  const Shape shape{32};
  std::vector<TestCandidate> batch;
  for (int i = 0; i < 24; ++i) {
    TestCandidate candidate;
    candidate.value = {static_cast<double>(i)};
    candidate.round = 1;
    candidate.index = i;
    candidate.seq = i;
    batch.push_back(candidate);
  }
  CampaignExecutor executor(4);
  const std::vector<CandidateResult> results = executor.RunBatch(
      batch, [&shape](const TestCandidate& candidate) {
        CandidateResult result;
        result.accessed = IndexSet(shape);
        result.accessed.Insert(
            Index{static_cast<int64_t>(candidate.value[0])});
        return result;
      });
  ASSERT_EQ(results.size(), batch.size());
  for (int64_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(results[static_cast<size_t>(i)].accessed.Contains(Index{i}))
        << "slot " << i << " holds another candidate's result";
  }
}

// ------------------------------------------------------------ Collector --

TEST(ResultCollectorTest, MergesAccessSetsAndPersistsLogs) {
  const Shape shape{8, 8};
  int persisted_events = 0;
  ResultCollector collector(shape, [&persisted_events](const EventLog& log) {
    persisted_events += static_cast<int>(log.NumEvents());
    return OkStatus();
  });

  CandidateResult first;
  first.accessed = IndexSet(shape);
  first.accessed.Insert(Index{1, 1});
  first.log = std::make_shared<EventLog>();
  first.log->Record(Event{EventId{1, 0}, EventType::kRead, 0, 8});

  CandidateResult second;
  second.accessed = IndexSet(shape);
  second.accessed.Insert(Index{1, 1});
  second.accessed.Insert(Index{2, 3});

  ASSERT_TRUE(collector.Collect(first).ok());
  ASSERT_TRUE(collector.Collect(second).ok());
  EXPECT_EQ(collector.collected(), 2);
  EXPECT_EQ(collector.persisted(), 1);  // Only `first` carried a log.
  EXPECT_EQ(persisted_events, 1);
}

TEST(ResultCollectorTest, MergesPerFileSetsWhenEnabled) {
  const Shape shape{4, 4};
  ResultCollector collector(shape);
  collector.EnablePerFile({Shape{4}, Shape{4}});

  CandidateResult result;
  result.accessed = IndexSet(shape);
  result.per_file.emplace_back(Shape{4});
  result.per_file.emplace_back(Shape{4});
  result.per_file[0].Insert(Index{2});
  result.per_file[1].Insert(Index{3});
  ASSERT_TRUE(collector.Collect(result).ok());

  ASSERT_EQ(collector.per_file().size(), 2u);
  EXPECT_TRUE(collector.per_file()[0].Contains(Index{2}));
  EXPECT_TRUE(collector.per_file()[1].Contains(Index{3}));
}

// Satellite 1 (regression): an overlapping Collect must be rejected with a
// clear Status, never silently interleaved into the lineage store.
TEST(ResultCollectorTest, RejectsConcurrentCollect) {
  const Shape shape{4};
  std::mutex mu;
  std::condition_variable cv;
  bool inside_persist = false;
  bool release_persist = false;

  ResultCollector collector(
      shape, [&](const EventLog&) {
        std::unique_lock<std::mutex> lock(mu);
        inside_persist = true;
        cv.notify_all();
        cv.wait(lock, [&release_persist] { return release_persist; });
        return OkStatus();
      });

  CandidateResult with_log;
  with_log.accessed = IndexSet(shape);
  with_log.log = std::make_shared<EventLog>();
  with_log.log->Record(Event{EventId{1, 0}, EventType::kRead, 0, 4});

  Status background_status;
  std::thread writer([&collector, &with_log, &background_status] {
    background_status = collector.Collect(with_log);
  });
  {
    // Wait until the first Collect is parked inside the persist sink, so the
    // second call below genuinely overlaps it.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&inside_persist] { return inside_persist; });
  }

  CandidateResult plain;
  plain.accessed = IndexSet(shape);
  const Status overlapping = collector.Collect(plain);
  EXPECT_EQ(overlapping.code(), StatusCode::kFailedPrecondition);

  {
    std::lock_guard<std::mutex> lock(mu);
    release_persist = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_TRUE(background_status.ok());
  EXPECT_EQ(collector.collected(), 1);
}

// Satellite 1 (regression): concurrent audited runs persisting to ONE KEL2
// store must serialize through MakeSerializedPersister — the sealed store
// then contains every run's events intact.
TEST(SerializedPersisterTest, ConcurrentPersistenceYieldsValidStore) {
  const std::string path = TempPath("concurrent_lineage.kel2");
  StatusOr<CampaignLineageSink> sink = CampaignLineageSink::Create(path);
  ASSERT_TRUE(sink.ok());
  const AuditPersistFn persist = MakeSerializedPersister(sink->persister());

  constexpr int kThreads = 8;
  constexpr int kLogsPerThread = 10;
  constexpr int kEventsPerLog = 5;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &persist, &failures] {
      for (int i = 0; i < kLogsPerThread; ++i) {
        EventLog log;
        for (int e = 0; e < kEventsPerLog; ++e) {
          log.Record(Event{EventId{1 + t * kLogsPerThread + i, 0},
                           EventType::kRead, static_cast<int64_t>(e) * 8, 8});
        }
        if (!persist(log).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sink->runs(), kThreads * kLogsPerThread);
  ASSERT_TRUE(sink->Close().ok());

  StatusOr<std::vector<Event>> events = ReadLineageStore(path);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(),
            static_cast<size_t>(kThreads * kLogsPerThread * kEventsPerLog));
}

// ---------------------------------------------------------- Determinism --

// Satellite 2 (regression): two workloads, jobs=1 vs jobs=4 — recall,
// precision, %debloat, and the carved hull set must all be identical.
TEST(ExecDeterminismTest, ParallelCampaignBitIdenticalToSerial) {
  for (const char* workload : {"CS", "LDC"}) {
    SCOPED_TRACE(workload);
    std::unique_ptr<Program> program = CreateProgram(workload, 48);
    ASSERT_NE(program, nullptr);

    KondoConfig serial_config;
    serial_config.rng_seed = 7;
    serial_config.fuzz.max_iter = 400;
    serial_config.jobs = 1;
    KondoConfig parallel_config = serial_config;
    parallel_config.jobs = 4;

    const KondoResult serial = KondoPipeline(serial_config).Run(*program);
    const KondoResult parallel = KondoPipeline(parallel_config).Run(*program);

    // Same evaluations, same discoveries, same seeds — the fuzz campaign
    // replayed identically.
    EXPECT_EQ(parallel.fuzz.stats.iterations, serial.fuzz.stats.iterations);
    EXPECT_EQ(parallel.fuzz.stats.evaluations, serial.fuzz.stats.evaluations);
    EXPECT_EQ(parallel.fuzz.stats.restarts, serial.fuzz.stats.restarts);
    ASSERT_EQ(parallel.fuzz.seeds.size(), serial.fuzz.seeds.size());
    for (size_t i = 0; i < serial.fuzz.seeds.size(); ++i) {
      EXPECT_EQ(parallel.fuzz.seeds[i].value, serial.fuzz.seeds[i].value);
      EXPECT_EQ(parallel.fuzz.seeds[i].useful, serial.fuzz.seeds[i].useful);
    }
    EXPECT_EQ(SortedLinear(parallel.fuzz.discovered, program->data_shape()),
              SortedLinear(serial.fuzz.discovered, program->data_shape()));

    // Identical carved hull set and rasterised subset => identical %debloat.
    EXPECT_EQ(parallel.carve_stats.final_hulls, serial.carve_stats.final_hulls);
    EXPECT_EQ(SortedLinear(parallel.approx, program->data_shape()),
              SortedLinear(serial.approx, program->data_shape()));

    const AccuracyMetrics serial_metrics =
        ComputeAccuracy(program->GroundTruth(), serial.approx);
    const AccuracyMetrics parallel_metrics =
        ComputeAccuracy(program->GroundTruth(), parallel.approx);
    EXPECT_DOUBLE_EQ(parallel_metrics.recall, serial_metrics.recall);
    EXPECT_DOUBLE_EQ(parallel_metrics.precision, serial_metrics.precision);
    EXPECT_EQ(parallel_metrics.approx_size, serial_metrics.approx_size);
  }
}

// Tentpole guarantee, audited end-to-end: with the single-writer collector
// channel the on-disk KEL2 lineage of a jobs=4 campaign is byte-identical
// to the jobs=1 campaign — same runs, same order, same bytes.
TEST(ExecDeterminismTest, AuditedLineageStoreByteIdenticalAcrossJobs) {
  std::unique_ptr<Program> program = CreateProgram("CS", 32);
  DataArray array(program->data_shape(), DType::kFloat64);
  array.FillPattern(77);
  const std::string data_path = TempPath("exec_lineage.kdf");
  ASSERT_TRUE(WriteKdfFile(data_path, array).ok());

  auto run_campaign = [&](int jobs, const std::string& store_path) {
    StatusOr<CampaignLineageSink> sink =
        CampaignLineageSink::Create(store_path);
    EXPECT_TRUE(sink.ok());
    ResultCollector collector(program->data_shape(), sink->persister());
    KondoConfig config;
    config.rng_seed = 11;
    config.fuzz.max_iter = 200;
    config.jobs = jobs;
    const KondoResult result = KondoPipeline(config).RunWithCandidateTest(
        MakeAuditedCandidateTest(*program, data_path),
        program->param_space(), program->data_shape(), &collector);
    EXPECT_EQ(collector.persisted(), result.fuzz.stats.evaluations);
    EXPECT_TRUE(sink->Close().ok());
    return result;
  };

  const std::string serial_store = TempPath("lineage_jobs1.kel2");
  const std::string parallel_store = TempPath("lineage_jobs4.kel2");
  const KondoResult serial = run_campaign(1, serial_store);
  const KondoResult parallel = run_campaign(4, parallel_store);

  EXPECT_EQ(parallel.fuzz.stats.evaluations, serial.fuzz.stats.evaluations);
  EXPECT_EQ(SortedLinear(parallel.approx, program->data_shape()),
            SortedLinear(serial.approx, program->data_shape()));

  const std::string serial_bytes = ReadFileBytes(serial_store);
  const std::string parallel_bytes = ReadFileBytes(parallel_store);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(parallel_bytes, serial_bytes)
      << "parallel campaign diverged from the serial lineage store";

  // The store is queryable and holds one audited run per evaluation
  // (pid = 1 + seq, assigned at candidate-generation time).
  StatusOr<std::vector<Event>> events = ReadLineageStore(parallel_store);
  ASSERT_TRUE(events.ok());
  std::set<int64_t> pids;
  for (const Event& event : *events) {
    pids.insert(event.id.pid);
  }
  EXPECT_EQ(static_cast<int>(pids.size()),
            parallel.fuzz.stats.evaluations);
}

// Pins an audited LDC3D campaign end to end: the ids its audited reads
// discover and the bytes of the KEL2 lineage its ResultCollector writes,
// at jobs 1 and 4. Any change to what the auditor records, how a run's
// events reach the store or how KEL2 encodes them fails here.
TEST(ExecDeterminismTest, AuditedLdc3dCampaignMatchesGoldenDigests) {
  std::unique_ptr<Program> program = CreateProgram("LDC3D", 0);
  const Shape& shape = program->data_shape();
  DataArray array(shape, DType::kFloat32);
  array.FillPattern(1);
  const std::string data_path = TempPath("exec_ldc3d.kdf");
  ASSERT_TRUE(WriteKdfFile(data_path, array).ok());

  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::string store_path =
        TempPath("ldc3d_jobs" + std::to_string(jobs) + ".kel2");
    StatusOr<CampaignLineageSink> sink =
        CampaignLineageSink::Create(store_path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    ResultCollector collector(shape, sink->persister());
    KondoConfig config = ScaledKondoConfig(shape);
    config.rng_seed = 1;
    config.jobs = jobs;
    const KondoResult result = KondoPipeline(config).RunWithCandidateTest(
        MakeAuditedCandidateTest(*program, data_path),
        program->param_space(), shape, &collector);
    ASSERT_TRUE(sink->Close().ok());

    std::vector<int64_t> ids = SortedLinear(result.fuzz.discovered, shape);
    uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over the ids.
    for (int64_t id : ids) {
      for (int b = 0; b < 8; ++b) {
        digest ^= (static_cast<uint64_t>(id) >> (8 * b)) & 0xff;
        digest *= 0x100000001b3ULL;
      }
    }
    const std::string store = ReadFileBytes(store_path);
    EXPECT_EQ(ids.size(), 27648u);
    EXPECT_EQ(digest, 0x3c8f8c7e5d6b3e25ULL);
    EXPECT_EQ(store.size(), 2586419u);
    EXPECT_EQ(Crc32(store.data(), store.size()), 0x63588f5eu);
  }
}

// The executor overload of FuzzSchedule::Run must reproduce the serial
// convenience overload exactly, for any jobs value.
TEST(ExecDeterminismTest, ScheduleExecutorOverloadMatchesSerialOverload) {
  std::unique_ptr<Program> program = CreateProgram("PRL", 40);
  const uint64_t seed = 19;
  FuzzConfig config;
  config.max_iter = 300;

  FuzzSchedule serial_schedule(program->param_space(), program->data_shape(),
                               config, seed);
  const FuzzResult serial = serial_schedule.Run(
      [&program](const ParamValue& v) { return program->AccessSet(v); });

  FuzzSchedule parallel_schedule(program->param_space(),
                                 program->data_shape(), config, seed);
  CampaignExecutor executor(3);
  const FuzzResult parallel =
      parallel_schedule.Run(executor, MakeCandidateTest(*program));

  EXPECT_EQ(parallel.stats.iterations, serial.stats.iterations);
  EXPECT_EQ(parallel.stats.evaluations, serial.stats.evaluations);
  EXPECT_EQ(parallel.stats.useful_evaluations,
            serial.stats.useful_evaluations);
  EXPECT_EQ(parallel.stats.restarts, serial.stats.restarts);
  EXPECT_DOUBLE_EQ(parallel.stats.final_epsilon, serial.stats.final_epsilon);
  ASSERT_EQ(parallel.seeds.size(), serial.seeds.size());
  for (size_t i = 0; i < serial.seeds.size(); ++i) {
    EXPECT_EQ(parallel.seeds[i].value, serial.seeds[i].value);
  }
  EXPECT_EQ(SortedLinear(parallel.discovered, program->data_shape()),
            SortedLinear(serial.discovered, program->data_shape()));
}

}  // namespace
}  // namespace kondo
