// Tests for the serve subsystem: the KPC wire codec, the fingerprint-keyed
// subset cache, ThreadPool job handles, and the daemon end-to-end over
// unix-domain and TCP sockets — including the cache's hit/miss byte
// identity, stale-fingerprint invalidation, campaign admission control,
// and clean shutdown with jobs still pending.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "common/socket.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "pack/pack_writer.h"
#include "provenance/kel2_writer.h"
#include "serve/artifact_pool.h"
#include "serve/blast.h"
#include "serve/client.h"
#include "serve/kpc.h"
#include "serve/server.h"
#include "serve/session_host.h"
#include "serve/subset_cache.h"

namespace kondo {
namespace {

// ---------------------------------------------------------------------------
// KPC codec.

TEST(KpcCodecTest, FetchSubsetRoundTrip) {
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 7;
  request.end = 123;
  auto decoded_request = FetchSubsetRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status();
  EXPECT_EQ(decoded_request->artifact, "main.kdp");
  EXPECT_EQ(decoded_request->begin, 7);
  EXPECT_EQ(decoded_request->end, 123);

  FetchSubsetResponse response;
  response.fingerprint_bytes = 1234;
  response.fingerprint_crc = 0xdeadbeef;
  response.begin = 7;
  response.end = 10;
  response.present = {1, 0, 1};
  response.values = {3.25, -0.5};
  auto decoded = FetchSubsetResponse::Decode(response.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint_bytes, 1234);
  EXPECT_EQ(decoded->fingerprint_crc, 0xdeadbeefu);
  EXPECT_EQ(decoded->present, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(decoded->values, (std::vector<double>{3.25, -0.5}));
}

TEST(KpcCodecTest, EncodingIsDeterministic) {
  FetchSubsetResponse response;
  response.fingerprint_bytes = 99;
  response.begin = 0;
  response.end = 2;
  response.present = {1, 1};
  response.values = {1.0, 2.0};
  EXPECT_EQ(response.Encode(), response.Encode());

  std::string frame_a, frame_b;
  AppendKpcFrame(KpcKind::kFetchSubsetResponse, response.Encode(), &frame_a);
  AppendKpcFrame(KpcKind::kFetchSubsetResponse, response.Encode(), &frame_b);
  EXPECT_EQ(frame_a, frame_b);
}

TEST(KpcCodecTest, QueryAndSubmitRoundTrip) {
  QueryRequest query;
  query.store = "merged.kel2";
  query.file_id = 3;
  query.begin = 64;
  query.end = 4096;
  query.runs_only = 1;
  auto decoded_query = QueryRequest::Decode(query.Encode());
  ASSERT_TRUE(decoded_query.ok()) << decoded_query.status();
  EXPECT_EQ(decoded_query->store, "merged.kel2");
  EXPECT_EQ(decoded_query->file_id, 3);
  EXPECT_EQ(decoded_query->runs_only, 1);

  EventBatch batch;
  Event event;
  event.id.pid = 42;
  event.id.file_id = 3;
  event.type = EventType::kPread;
  event.offset = 512;
  event.size = 8;
  batch.events = {event, event};
  auto decoded_batch = EventBatch::Decode(batch.Encode());
  ASSERT_TRUE(decoded_batch.ok()) << decoded_batch.status();
  ASSERT_EQ(decoded_batch->events.size(), 2u);
  EXPECT_EQ(decoded_batch->events[1].id.pid, 42);
  EXPECT_EQ(decoded_batch->events[1].offset, 512);

  QueryDone done;
  done.events_total = 9;
  done.runs = {1, 5, 9};
  done.blocks_considered = 4;
  done.blocks_skipped = 3;
  done.blocks_decoded = 1;
  auto decoded_done = QueryDone::Decode(done.Encode());
  ASSERT_TRUE(decoded_done.ok()) << decoded_done.status();
  EXPECT_EQ(decoded_done->runs, (std::vector<int64_t>{1, 5, 9}));
  EXPECT_EQ(decoded_done->blocks_skipped, 3);

  SubmitRequest submit;
  submit.program = "CS";
  submit.seed = 11;
  submit.max_evals = 100;
  submit.max_iter = 50;
  auto decoded_submit = SubmitRequest::Decode(submit.Encode());
  ASSERT_TRUE(decoded_submit.ok()) << decoded_submit.status();
  EXPECT_EQ(decoded_submit->program, "CS");
  EXPECT_EQ(decoded_submit->seed, 11);

  SubmitResponse verdict;
  verdict.accepted = 1;
  verdict.job_id = 17;
  verdict.queue_depth = 2;
  verdict.message = "accepted";
  auto decoded_verdict = SubmitResponse::Decode(verdict.Encode());
  ASSERT_TRUE(decoded_verdict.ok()) << decoded_verdict.status();
  EXPECT_EQ(decoded_verdict->job_id, 17);
  EXPECT_EQ(decoded_verdict->message, "accepted");
}

TEST(KpcCodecTest, StatsRoundTrip) {
  ServeStatsSnapshot stats;
  stats.cache_hits = 10;
  stats.cache_misses = 2;
  stats.campaigns_completed = 5;
  stats.verbs[kVerbFetchSubset].count = 12;
  stats.verbs[kVerbFetchSubset].total_micros = 3400;
  stats.verbs[kVerbFetchSubset].max_micros = 900;
  stats.verbs[kVerbFetchSubset].buckets[10] = 12;
  auto decoded = ServeStatsSnapshot::Decode(stats.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cache_hits, 10);
  EXPECT_EQ(decoded->campaigns_completed, 5);
  EXPECT_EQ(decoded->verbs[kVerbFetchSubset].count, 12);
  EXPECT_EQ(decoded->verbs[kVerbFetchSubset].buckets[10], 12);
}

TEST(KpcCodecTest, ErrorCarriesStatus) {
  const Status original = NotFoundError("no such artifact");
  const KpcError error = KpcError::FromStatus(original);
  auto decoded = KpcError::Decode(error.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const Status round_tripped = decoded->ToStatus();
  EXPECT_EQ(round_tripped.code(), StatusCode::kNotFound);
  EXPECT_EQ(round_tripped.message(), "no such artifact");
}

TEST(KpcCodecTest, DecodeRejectsTruncatedPayload) {
  FetchSubsetRequest request;
  request.artifact = "a.kdp";
  const std::string payload = request.Encode();
  const auto truncated =
      FetchSubsetRequest::Decode(std::string_view(payload).substr(
          0, payload.size() - 1));
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  // Trailing junk is rejected too: a payload must decode exactly.
  const auto padded = FetchSubsetRequest::Decode(payload + "x");
  EXPECT_FALSE(padded.ok());
}

// A connected socket pair for exercising the frame layer without a server.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<Connection>(fds[0]);
    b = std::make_unique<Connection>(fds[1]);
  }
  std::unique_ptr<Connection> a;
  std::unique_ptr<Connection> b;
};

TEST(KpcFrameTest, WriteReadRoundTrip) {
  SocketPair pair;
  ASSERT_TRUE(
      WriteKpcFrame(*pair.a, KpcKind::kStatsRequest, "payload!").ok());
  auto frame = ReadKpcFrame(*pair.b);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->kind, KpcKind::kStatsRequest);
  EXPECT_EQ(frame->payload, "payload!");
}

TEST(KpcFrameTest, DetectsCorruption) {
  SocketPair pair;
  std::string frame;
  AppendKpcFrame(KpcKind::kStatsRequest, "payload!", &frame);
  frame[kKpcHeaderBytes] ^= 0x01;  // Flip one payload bit.
  ASSERT_TRUE(pair.a->WriteFully(frame.data(), frame.size()).ok());
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(KpcFrameTest, RejectsBadMagic) {
  SocketPair pair;
  std::string frame;
  AppendKpcFrame(KpcKind::kStatsRequest, "", &frame);
  frame[0] = 'X';
  ASSERT_TRUE(pair.a->WriteFully(frame.data(), frame.size()).ok());
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(KpcFrameTest, CleanEofIsOutOfRange) {
  SocketPair pair;
  pair.a->ShutdownWrite();
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Subset cache.

SubsetKey MakeKey(const std::string& artifact, int64_t begin, int64_t end) {
  SubsetKey key;
  key.artifact = artifact;
  key.fingerprint_bytes = 100;
  key.fingerprint_crc = 0xabcd;
  key.begin = begin;
  key.end = end;
  return key;
}

TEST(SubsetCacheTest, HitReturnsIdenticalBytes) {
  SubsetCache cache(1 << 20);
  const SubsetKey key = MakeKey("a.kdp", 0, 64);
  EXPECT_EQ(cache.Get(key), nullptr);
  auto inserted = cache.Put(key, "the exact payload");
  auto hit = cache.Get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "the exact payload");
  EXPECT_EQ(hit.get(), inserted.get());  // Same object, not a copy.
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(SubsetCacheTest, EvictionIsDeterministicLru) {
  // Capacity fits exactly two 8-byte payloads.
  SubsetCache cache(16);
  cache.Put(MakeKey("a.kdp", 0, 1), "11111111");
  cache.Put(MakeKey("a.kdp", 1, 2), "22222222");
  // Touch the first entry so the second becomes least recently used.
  ASSERT_NE(cache.Get(MakeKey("a.kdp", 0, 1)), nullptr);
  cache.Put(MakeKey("a.kdp", 2, 3), "33333333");
  EXPECT_NE(cache.Get(MakeKey("a.kdp", 0, 1)), nullptr);   // Kept (MRU).
  EXPECT_EQ(cache.Get(MakeKey("a.kdp", 1, 2)), nullptr);   // Evicted (LRU).
  EXPECT_NE(cache.Get(MakeKey("a.kdp", 2, 3)), nullptr);   // Newly inserted.
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.bytes, 16);
}

TEST(SubsetCacheTest, OversizedEntryIsServedNotCached) {
  SubsetCache cache(4);
  auto value = cache.Put(MakeKey("a.kdp", 0, 1), "way too large");
  EXPECT_EQ(*value, "way too large");
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.Get(MakeKey("a.kdp", 0, 1)), nullptr);
}

TEST(SubsetCacheTest, EvictStaleDropsOnlyChangedFingerprints) {
  SubsetCache cache(1 << 20);
  SubsetKey stale = MakeKey("a.kdp", 0, 64);
  stale.fingerprint_crc = 0x1111;
  SubsetKey fresh = MakeKey("a.kdp", 0, 64);
  fresh.fingerprint_crc = 0x2222;
  const SubsetKey other = MakeKey("b.kdp", 0, 64);
  cache.Put(stale, "old bytes");
  cache.Put(fresh, "new bytes");
  cache.Put(other, "unrelated");
  EXPECT_EQ(cache.EvictStale("a.kdp", fresh.fingerprint_bytes,
                             fresh.fingerprint_crc),
            1);
  EXPECT_EQ(cache.Get(stale), nullptr);
  EXPECT_NE(cache.Get(fresh), nullptr);
  EXPECT_NE(cache.Get(other), nullptr);
  EXPECT_EQ(cache.stats().stale_evictions, 1);
}

// ---------------------------------------------------------------------------
// ThreadPool job handles.

TEST(JobHandleTest, ReportsCompletionAndWaits) {
  ThreadPool pool(2);
  Mutex mu;
  int ran = 0;
  JobHandle job = pool.SubmitJob([&] {
    MutexLock lock(mu);
    ++ran;
  });
  ASSERT_TRUE(job.valid());
  job.Wait();
  EXPECT_TRUE(job.done());
  MutexLock lock(mu);
  EXPECT_EQ(ran, 1);
}

TEST(JobHandleTest, DefaultHandleIsDoneAndInvalid) {
  JobHandle job;
  EXPECT_FALSE(job.valid());
  EXPECT_TRUE(job.done());
  job.Wait();  // Must not block.
}

// ---------------------------------------------------------------------------
// Artifact pool.

TEST(ArtifactPoolTest, RejectsFilesystemAddressing) {
  ArtifactPool pool("/pool", 1 << 20);
  EXPECT_EQ(pool.ResolvePath("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("/etc/passwd").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("../secret.kdp").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("sub/../../x.kdp").status().code(),
            StatusCode::kInvalidArgument);
  auto fine = pool.ResolvePath("sub/main.kdp");
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(*fine, "/pool/sub/main.kdp");
  // A dot-prefixed name is not a traversal.
  EXPECT_TRUE(pool.ResolvePath(".hidden.kdp").ok());
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests.

/// The 8x8 debloated array the pool fixtures serve: FillPattern(seed) with
/// every fourth element retained.
DebloatedArray MakePoolArray(uint64_t seed) {
  DataArray data(Shape({8, 8}));
  data.FillPattern(seed);
  IndexSet retained(data.shape());
  for (int64_t linear = 0; linear < 64; linear += 4) {
    retained.InsertLinear(linear);
  }
  return DebloatedArray::FromDataArray(data, retained);
}

/// Packs the pool array as a `.kdp` package.
void WritePoolPack(const std::string& path, uint64_t seed) {
  const StatusOr<PackStats> stats = WriteKdpFile(path, MakePoolArray(seed));
  ASSERT_TRUE(stats.ok()) << stats.status();
}

/// Writes a KEL2 store with `events` positioned reads, 4 events per block,
/// pid cycling 0..3, offsets marching 8 bytes at a time.
void WritePoolStore(const std::string& path, int64_t events) {
  Kel2WriterOptions options;
  options.events_per_block = 4;
  auto writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int64_t i = 0; i < events; ++i) {
    Event event;
    event.id.pid = i % 4;
    event.id.file_id = 1;
    event.type = EventType::kPread;
    event.offset = i * 8;
    event.size = 8;
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

class ServeTest : public ::testing::Test {
 protected:
  /// Starts a daemon over a fresh pool dir on a unix socket.
  void StartServer(ServeOptions options) {
    pool_root_ = ::testing::TempDir() + "/serve_pool_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    std::remove((pool_root_ + "/main.kdp").c_str());
    std::remove((pool_root_ + "/trace.kel2").c_str());
    mkdir(pool_root_.c_str(), 0755);
    WritePoolPack(pool_root_ + "/main.kdp", /*seed=*/7);
    WritePoolStore(pool_root_ + "/trace.kel2", /*events=*/20);
    options.address.unix_path = pool_root_ + "/kondo.sock";
    options.pool_root = pool_root_;
    server_ = std::make_unique<KondoServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<KpcClient> Client() {
    auto client = KpcClient::Connect(server_->bound_address());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::string pool_root_;
  std::unique_ptr<KondoServer> server_;
};

TEST_F(ServeTest, CacheHitIsByteIdenticalToMiss) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto miss = client->FetchSubsetRaw(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  auto hit = client->FetchSubsetRaw(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(*miss, *hit);  // Bit-identical raw frames.

  // Read stats over the same connection: the session thread serves the
  // stats verb strictly after the previous dispatch (including its
  // latency recording) finished, so the counters are settled.
  const StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_misses, 1);
  EXPECT_EQ(stats->cache_hits, 1);
  EXPECT_EQ(stats->verbs[kVerbFetchSubset].count, 2);

  // Decoded content matches the artifact: retained elements present.
  auto decoded = client->FetchSubset(request);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->present.size(), 64u);
  EXPECT_EQ(decoded->values.size(), 16u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded->present[i] != 0, i % 4 == 0) << "element " << i;
  }
  server_->Stop();
}

TEST_F(ServeTest, RewrittenArtifactInvalidatesCache) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto before = client->FetchSubset(request);
  ASSERT_TRUE(before.ok()) << before.status();

  // Rewrite the pool file with different content.
  WritePoolPack(pool_root_ + "/main.kdp", /*seed=*/99);
  auto after = client->FetchSubset(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(before->fingerprint_crc, after->fingerprint_crc);
  EXPECT_NE(before->values, after->values);

  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_stale_evictions, 1);
  server_->Stop();
}

// ---------------------------------------------------------------------------
// Packed (.kdp) artifacts through the pool and the daemon.

TEST(ArtifactPoolPackTest, PackHitReturnsIdenticalBytesToMiss) {
  const std::string root = ::testing::TempDir() + "/pack_pool_hit";
  mkdir(root.c_str(), 0755);
  WritePoolPack(root + "/main.kdp", /*seed=*/7);
  ArtifactPool pool(root, 1 << 20);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto miss = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  auto hit = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(**miss, **hit);
  EXPECT_EQ(miss->get(), hit->get());  // The very same cached string.
  EXPECT_EQ(pool.cache_stats().misses, 1);
  EXPECT_EQ(pool.cache_stats().hits, 1);
  EXPECT_EQ(pool.packs_open(), 1);

  // Decoded content matches the array that was packed: every fourth
  // element present.
  auto decoded = FetchSubsetResponse::Decode(**hit);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->present.size(), 64u);
  EXPECT_EQ(decoded->values.size(), 16u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded->present[i] != 0, i % 4 == 0) << "element " << i;
  }
}

TEST(ArtifactPoolPackTest, RepackEvictsStaleCachedSlices) {
  const std::string root = ::testing::TempDir() + "/pack_pool_repack";
  mkdir(root.c_str(), 0755);
  const std::string path = root + "/main.kdp";
  WritePoolPack(path, /*seed=*/7);
  ArtifactPool pool(root, 1 << 20);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto before = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(before.ok()) << before.status();

  // Repack in place with different content: both the whole-file
  // fingerprint and the pack fingerprint (manifest CRC) change, so the
  // cached slice must be unreachable AND swept as stale, and the pooled
  // PackReader must be reopened.
  const StatusOr<PackStats> repacked =
      RepackKdpFile(path, path, MakePoolArray(/*seed=*/99));
  ASSERT_TRUE(repacked.ok()) << repacked.status();

  auto after = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(**before, **after);
  EXPECT_EQ(pool.cache_stats().hits, 0);
  EXPECT_EQ(pool.cache_stats().misses, 2);
  EXPECT_EQ(pool.cache_stats().stale_evictions, 1);
  EXPECT_EQ(pool.packs_reopened(), 1);

  auto decoded_before = FetchSubsetResponse::Decode(**before);
  auto decoded_after = FetchSubsetResponse::Decode(**after);
  ASSERT_TRUE(decoded_before.ok() && decoded_after.ok());
  EXPECT_NE(decoded_before->values, decoded_after->values);

  // Post-repack hits are byte-identical to the post-repack miss.
  auto again = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(after->get(), again->get());
  EXPECT_EQ(pool.cache_stats().hits, 1);
}

TEST_F(ServeTest, PackedArtifactServesOverTheWire) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);

  // The served subset carries exactly the packed D_Θ: every retained
  // element with its value, every other element absent.
  FetchSubsetRequest packed_request;
  packed_request.artifact = "main.kdp";
  packed_request.begin = 0;
  packed_request.end = 64;
  auto packed = client->FetchSubset(packed_request);
  ASSERT_TRUE(packed.ok()) << packed.status();
  const DebloatedArray array = MakePoolArray(/*seed=*/7);
  ASSERT_EQ(packed->present.size(), 64u);
  size_t value_pos = 0;
  for (int64_t linear = 0; linear < 64; ++linear) {
    const StatusOr<double> want = array.At(array.shape().Delinearize(linear));
    ASSERT_EQ(packed->present[static_cast<size_t>(linear)] != 0, want.ok())
        << "element " << linear;
    if (want.ok()) {
      ASSERT_LT(value_pos, packed->values.size());
      EXPECT_EQ(packed->values[value_pos++], *want) << "element " << linear;
    }
  }
  EXPECT_EQ(value_pos, packed->values.size());

  // And raw hit/miss byte-identity holds for the packed path too.
  auto raw_miss = client->FetchSubsetRaw(packed_request);
  auto raw_hit = client->FetchSubsetRaw(packed_request);
  ASSERT_TRUE(raw_miss.ok() && raw_hit.ok());
  EXPECT_EQ(*raw_miss, *raw_hit);
  server_->Stop();
}

TEST_F(ServeTest, FetchErrorsAreStatusCarrying) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "absent.kdp";
  request.end = 8;
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kNotFound);
  request.artifact = "../escape.kdp";
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kInvalidArgument);
  // fetch-subset serves packages only; any other pool name is refused
  // before the pool is touched.
  request.artifact = "trace.kel2";
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kInvalidArgument);
  request.artifact = "main.kdd";
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kInvalidArgument);
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 1 << 20;  // Past the 64-element shape.
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kOutOfRange);
  // The connection survives application errors.
  request.end = 8;
  EXPECT_TRUE(client->FetchSubset(request).ok());
  server_->Stop();
}

TEST_F(ServeTest, QueryStreamsBatchesAndTotals) {
  ServeOptions options;
  options.events_per_batch = 4;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  QueryRequest request;
  request.store = "trace.kel2";
  request.file_id = 1;
  request.begin = 0;
  request.end = 96;  // Events 0..11 overlap (offsets 0,8,...,88).
  auto result = client->QueryProvenance(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->done.events_total, 12);
  ASSERT_EQ(result->events.size(), 12u);  // 3 batches of 4, reassembled.
  for (size_t i = 0; i < result->events.size(); ++i) {
    EXPECT_EQ(result->events[i].offset, static_cast<int64_t>(i) * 8);
  }
  EXPECT_EQ(result->done.runs, (std::vector<int64_t>{0, 1, 2, 3}));
  // The store has 5 blocks (20 events, 4 per block); [0,96) needs 3.
  EXPECT_EQ(result->done.blocks_considered, 5);
  EXPECT_EQ(result->done.blocks_decoded, 3);
  EXPECT_EQ(result->done.blocks_skipped, 2);

  // runs_only suppresses the event stream but keeps the totals.
  request.runs_only = 1;
  auto runs = client->QueryProvenance(request);
  ASSERT_TRUE(runs.ok()) << runs.status();
  EXPECT_TRUE(runs->events.empty());
  EXPECT_EQ(runs->done.events_total, 12);
  EXPECT_EQ(runs->done.runs, (std::vector<int64_t>{0, 1, 2, 3}));
  // Block counters are per-query deltas, not the store's lifetime
  // totals: the repeat considers the same 5 blocks but decodes none
  // fresh — the store's decode memo serves all three.
  EXPECT_EQ(runs->done.blocks_considered, 5);
  EXPECT_EQ(runs->done.blocks_skipped, 2);
  EXPECT_EQ(runs->done.blocks_decoded, 0);
  server_->Stop();
}

TEST_F(ServeTest, SubmitRunsCampaignAndWritesLineage) {
  ServeOptions options;
  options.jobs = 2;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.seed = 5;
  request.max_iter = 30;
  auto response = client->SubmitCampaign(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->accepted, 1);
  EXPECT_EQ(response->job_id, 1);
  server_->Stop();  // Drains the job.

  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 1);
  EXPECT_EQ(stats.campaigns_completed, 1);
  EXPECT_EQ(stats.campaigns_failed, 0);
  EXPECT_EQ(stats.campaign_queue_depth, 0);
  EXPECT_EQ(stats.campaign_inflight, 0);
  EXPECT_GT(stats.lineage_bytes_written, 0);

  // The lineage store the job wrote is a queryable pool member.
  auto store = ProvenanceStore::Open(pool_root_ + "/job-1.kel2");
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_GT((*store)->NumEvents(), 0);
}

TEST_F(ServeTest, UnknownProgramIsNotFound) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "NO_SUCH_PROGRAM";
  EXPECT_EQ(client->SubmitCampaign(request).status().code(),
            StatusCode::kNotFound);
  server_->Stop();
}

TEST_F(ServeTest, ZeroQueueCapacityRejectsEverySubmit) {
  ServeOptions options;
  options.queue_capacity = 0;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  auto response = client->SubmitCampaign(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->accepted, 0);
  EXPECT_EQ(response->message, "queue full");
  EXPECT_EQ(server_->Stats().campaigns_rejected, 1);
  server_->Stop();
}

TEST_F(ServeTest, InflightCapRejectsThirdConcurrentSubmit) {
  ServeOptions options;
  options.jobs = 1;
  options.max_inflight = 2;
  // Long enough that neither job finishes while the submits race in.
  options.job_spin_micros = 500 * 1000;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.max_iter = 10;
  auto first = client->SubmitCampaign(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->accepted, 1);
  auto second = client->SubmitCampaign(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->accepted, 1);
  auto third = client->SubmitCampaign(request);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->accepted, 0);
  EXPECT_EQ(third->message, "session in-flight cap reached");
  server_->Stop();
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 2);
  EXPECT_EQ(stats.campaigns_rejected, 1);
  EXPECT_EQ(stats.campaigns_completed, 2);
}

TEST_F(ServeTest, StopWithPendingJobsDrainsEverything) {
  ServeOptions options;
  options.jobs = 1;
  options.max_inflight = 8;
  options.job_spin_micros = 50 * 1000;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.max_iter = 10;
  for (int i = 0; i < 4; ++i) {
    auto response = client->SubmitCampaign(request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->accepted, 1);
  }
  server_->Stop();  // Must wait for all four, not abandon them.
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 4);
  EXPECT_EQ(stats.campaigns_completed + stats.campaigns_failed, 4);
  EXPECT_EQ(stats.campaign_queue_depth, 0);
  EXPECT_EQ(stats.campaign_inflight, 0);
  EXPECT_EQ(stats.sessions_active, 0);
}

TEST_F(ServeTest, StatsVerbMatchesServerSnapshot) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest fetch;
  fetch.artifact = "main.kdp";
  fetch.end = 8;
  ASSERT_TRUE(client->FetchSubset(fetch).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_misses, 1);
  EXPECT_EQ(stats->sessions_accepted, 1);
  EXPECT_EQ(stats->sessions_active, 1);
  EXPECT_EQ(stats->verbs[kVerbFetchSubset].count, 1);
  EXPECT_GE(stats->verbs[kVerbFetchSubset].max_micros, 0);
  server_->Stop();
}

TEST_F(ServeTest, ProtocolGarbageDropsConnectionAndCounts) {
  StartServer(ServeOptions{});
  auto conn = NetEnv::Default()->Connect(server_->bound_address());
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::string garbage = "this is not a KPC frame at all....";
  ASSERT_TRUE((*conn)->WriteFully(garbage.data(), garbage.size()).ok());
  // The server drops the connection; the next read sees EOF.
  char byte = 0;
  EXPECT_FALSE((*conn)->ReadFully(&byte, 1).ok());
  server_->Stop();
  EXPECT_EQ(server_->Stats().protocol_errors, 1);
}

TEST_F(ServeTest, ServesOverTcpWithPortZero) {
  ServeOptions options;
  StartServer(options);
  server_->Stop();
  // Re-start on TCP: port 0 resolves to a real ephemeral port.
  ServeOptions tcp;
  tcp.address.port = 0;
  tcp.pool_root = pool_root_;
  KondoServer server(tcp);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.bound_address().unix_path.empty());
  EXPECT_GT(server.bound_address().port, 0);
  auto client = KpcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok()) << client.status();
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.end = 16;
  auto response = (*client)->FetchSubset(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->present.size(), 16u);
  server.Stop();
}

TEST_F(ServeTest, BlastSeesIdenticalResponsesAcrossClients) {
  StartServer(ServeOptions{});
  BlastOptions blast;
  blast.address = server_->bound_address();
  blast.artifact = "main.kdp";
  blast.clients = 4;
  blast.requests = 25;
  blast.begin = 0;
  blast.end = 64;
  auto report = RunBlast(blast);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->ok_requests, 100);
  EXPECT_EQ(report->failed_requests, 0);
  EXPECT_TRUE(report->responses_identical);
  EXPECT_GT(report->bytes_received, 0);
  server_->Stop();
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 100);
  EXPECT_EQ(stats.cache_misses, 1);  // One load, 99 identical hits.
}

TEST_F(ServeTest, StopIsIdempotentAndDestructorSafe) {
  StartServer(ServeOptions{});
  server_->Stop();
  server_->Stop();     // Second stop is a no-op.
  server_.reset();     // Destructor after explicit stop is safe too.
}

/// Descriptors this process holds open: test clients and the in-process
/// server alike.
int OpenDescriptors() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    static_cast<void>(entry);
    ++count;
  }
  return count;
}

TEST_F(ServeTest, SequentialClientsDoNotLeakDescriptors) {
  StartServer(ServeOptions{});
  const int before = OpenDescriptors();
  for (int i = 0; i < 300; ++i) {
    auto client = Client();
    ASSERT_NE(client, nullptr);
    const StatusOr<ServeStatsSnapshot> stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << "cycle " << i << ": " << stats.status();
  }
  // Ended sessions are reaped at the next accept; only the last few may
  // still hold their server-side descriptor.
  EXPECT_LE(OpenDescriptors() - before, 8);
  EXPECT_EQ(server_->Stats().sessions_accepted, 300);
}

/// Lowers the soft RLIMIT_NOFILE and restores the original on every exit
/// path: the rest of the binary runs in this same process.
class ScopedDescriptorLimit {
 public:
  explicit ScopedDescriptorLimit(rlim_t soft) {
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~ScopedDescriptorLimit() { EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &saved_), 0); }

  ScopedDescriptorLimit(const ScopedDescriptorLimit&) = delete;
  ScopedDescriptorLimit& operator=(const ScopedDescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

/// The descriptor number the next open() would return.
int LowestFreeDescriptor() {
  const int fd = open("/dev/null", O_RDONLY);
  EXPECT_GE(fd, 0);
  close(fd);
  return fd;
}

/// Sends a stats request on a raw connection and waits up to
/// `timeout_micros` for the reply frame.
StatusOr<KpcFrame> RawStats(Connection& conn, int64_t timeout_micros) {
  KONDO_RETURN_IF_ERROR(conn.SetRecvTimeout(timeout_micros));
  KONDO_RETURN_IF_ERROR(WriteKpcFrame(conn, KpcKind::kStatsRequest, ""));
  return ReadKpcFrame(conn);
}

TEST_F(ServeTest, AcceptSurvivesDescriptorExhaustion) {
  StartServer(ServeOptions{});
  // A live session, so the server has nothing to reap while starved.
  auto held = Client();
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(held->Stats().ok());

  std::unique_ptr<Connection> starved;
  {
    // Room for exactly one more descriptor, which the client socket
    // takes. Linux reserves a blocked accept's descriptor up front, so the
    // server may still accept this connection; its next accept, at the
    // latest, fails with EMFILE.
    ScopedDescriptorLimit limit(
        static_cast<rlim_t>(LowestFreeDescriptor()) + 1);
    StatusOr<std::unique_ptr<Connection>> conn =
        NetEnv::Default()->Connect(server_->bound_address());
    ASSERT_TRUE(conn.ok()) << conn.status();
    starved = std::move(*conn);
    ASSERT_TRUE(
        WriteKpcFrame(*starved, KpcKind::kStatsRequest, std::string()).ok());
    // Let the accept loop run into the exhausted table.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  held.reset();  // Ends a session; its descriptor can be reaped.

  // The accept loop survived: the starved connection's request and a new
  // connection's request are both answered.
  ASSERT_TRUE(starved->SetRecvTimeout(5'000'000).ok());
  const StatusOr<KpcFrame> late = ReadKpcFrame(*starved);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->kind, KpcKind::kStatsResponse);
  StatusOr<std::unique_ptr<Connection>> fresh =
      NetEnv::Default()->Connect(server_->bound_address());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const StatusOr<KpcFrame> reply = RawStats(**fresh, 5'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->kind, KpcKind::kStatsResponse);
}

/// A NetEnv whose listener fails every Accept the way a full descriptor
/// table does: transiently, and on Linux still after Shutdown(). After
/// three failures past Shutdown() it reports "listener closed", so a host
/// that ignored Stop() ends in bounded time instead of hanging the test.
class ExhaustedNetEnv : public NetEnv {
 public:
  StatusOr<std::unique_ptr<ListenSocket>> Listen(
      const SocketAddress& address) override {
    return std::unique_ptr<ListenSocket>(new Listener(this, address));
  }
  StatusOr<std::unique_ptr<Connection>> Connect(
      const SocketAddress& /*address*/) override {
    return UnimplementedError("connect");
  }

  std::atomic<int> accepts{0};
  std::atomic<int> accepts_after_shutdown{0};

 private:
  class Listener : public ListenSocket {
   public:
    Listener(ExhaustedNetEnv* env, const SocketAddress& address)
        : ListenSocket(address), env_(env) {}

    StatusOr<std::unique_ptr<Connection>> Accept() override {
      ++env_->accepts;
      if (shut_down_.load() && ++env_->accepts_after_shutdown > 3) {
        return FailedPreconditionError("listener closed");
      }
      return ResourceExhaustedError("accept: Too many open files");
    }

    void Shutdown() override { shut_down_.store(true); }

   private:
    ExhaustedNetEnv* const env_;
    std::atomic<bool> shut_down_{false};
  };
};

TEST(KpcSessionHostTest, StopEndsTransientAcceptRetries) {
  ExhaustedNetEnv net;
  KpcSessionHost host(
      [](Connection& /*conn*/, int64_t /*id*/) {
        return std::unique_ptr<KpcSession>();
      },
      [](int64_t /*id*/, const Status& /*ended*/) {});
  ASSERT_TRUE(host.Start(&net, SocketAddress{}).ok());
  while (net.accepts.load() < 2) {  // Retrying already.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  // At most the accept in flight when Stop() shut the listener.
  EXPECT_LE(net.accepts_after_shutdown.load(), 1);
}

}  // namespace
}  // namespace kondo
