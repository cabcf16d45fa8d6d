// The KPC and fleet payload codec (serve/kpc_codec.h). One type list of all
// 14 wire messages drives the property tests: each message's sample sets
// every field away from its default, round-trips, and fails with kDataLoss
// on every strict prefix, on a trailing byte and on any u32 count set to
// 0xffffffff. The named tests below pin the decode rules the field types
// enforce: int range, enum range, and counts checked before allocation,
// and the fetch-subset response's range/presence/value agreement.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/byte_codec.h"
#include "fleet/fleet_protocol.h"
#include "provenance/kel2_reader.h"
#include "serve/kpc.h"

namespace kondo {
namespace {

template <class T>
T Sample();

template <>
FetchSubsetRequest Sample() {
  FetchSubsetRequest m;
  m.artifact = "main.kdp";
  m.begin = 12;
  m.end = 40;
  return m;
}

template <>
FetchSubsetResponse Sample() {
  FetchSubsetResponse m;
  m.fingerprint_bytes = 123456;
  m.fingerprint_crc = 0xdeadbeef;
  m.begin = 12;
  m.end = 16;
  m.present = {1, 0, 1, 1};
  m.values = {1.5, -2.25, 1e300};
  return m;
}

template <>
QueryRequest Sample() {
  QueryRequest m;
  m.store = "merged.kel2";
  m.file_id = 2;
  m.begin = -8;
  m.end = 1 << 20;
  m.runs_only = 1;
  return m;
}

template <>
EventBatch Sample() {
  EventBatch m;
  m.events = {{{7, 2}, EventType::kPread, 64, 8},
              {{8, 1}, EventType::kClose, 0, 0}};
  return m;
}

template <>
QueryDone Sample() {
  QueryDone m;
  m.events_total = 40;
  m.runs = {100, 101, 102};
  m.blocks_considered = 3;
  m.blocks_skipped = 1;
  m.blocks_decoded = 2;
  return m;
}

template <>
SubmitRequest Sample() {
  SubmitRequest m;
  m.program = "LDC";
  m.seed = 7;
  m.max_evals = 300;
  m.max_iter = -1;
  return m;
}

template <>
SubmitResponse Sample() {
  SubmitResponse m;
  m.accepted = 1;
  m.job_id = 9;
  m.queue_depth = 3;
  m.message = "queued";
  return m;
}

template <>
ServeStatsSnapshot Sample() {
  ServeStatsSnapshot m;
  int64_t next = 1;
  for (int64_t* counter :
       {&m.cache_hits, &m.cache_misses, &m.cache_evictions,
        &m.cache_stale_evictions, &m.cache_entries, &m.cache_bytes,
        &m.cache_capacity_bytes, &m.sessions_accepted, &m.sessions_active,
        &m.requests_total, &m.protocol_errors, &m.campaigns_submitted,
        &m.campaigns_rejected, &m.campaigns_completed, &m.campaigns_failed,
        &m.campaign_queue_depth, &m.campaign_inflight,
        &m.lineage_bytes_written, &m.stores_open, &m.stores_reopened}) {
    *counter = next++;
  }
  for (VerbLatency& verb : m.verbs) {
    verb.count = next++;
    verb.total_micros = next++;
    verb.max_micros = next++;
    verb.buckets[next % kKpcLatencyBuckets] = next;
    ++next;
  }
  return m;
}

template <>
KpcError Sample() {
  return KpcError::FromStatus(DataLossError("bad frame"));
}

template <>
WorkerHello Sample() {
  WorkerHello m;
  m.program = "STORM";
  m.extent = 32;
  m.rng_seed = 0x8000000000000001ULL;
  m.fuzz.stop_iter = 501;
  m.fuzz.max_iter = 2001;
  m.fuzz.diameter = 21.5;
  m.fuzz.u_reps = 9;
  m.fuzz.n_reps = 6;
  m.fuzz.u_dist = {5.5, 15.5};
  m.fuzz.n_dist = {30.5, 50.5};
  m.fuzz.restart = 301;
  m.fuzz.decay_iter = 201;
  m.fuzz.decay = 0.5;
  m.fuzz.epsilon0 = 0.75;
  m.fuzz.init_seeds = 11;
  m.fuzz.max_seconds = 2.5;
  m.fuzz.max_evals = 400;
  m.fuzz.test_max_attempts = 3;
  m.fuzz.test_backoff_micros = 250;
  return m;
}

template <>
WorkerHelloAck Sample() {
  WorkerHelloAck m;
  m.program = "STORM";
  m.file_shapes = {Shape({32, 32}), Shape({4, 8, 16})};
  return m;
}

template <>
RunShardRequest Sample() {
  RunShardRequest m;
  m.shard = 3;
  m.slices = {{0, 0, 512}, {1, 64, 128}};
  return m;
}

template <>
HeartbeatMsg Sample() {
  HeartbeatMsg m;
  m.shard = 3;
  m.sequence = 17;
  return m;
}

template <>
ShardResultMsg Sample() {
  ShardResultMsg m;
  m.shard = 3;
  m.kss = "KSS1 fixed state\n";
  m.kel2 = std::string("KEL2\0\0\0\0", 8);
  return m;
}

/// The wire bytes of each leaf field, nested structs flattened: the unit in
/// which a decoded message is compared and a sample is checked for fields
/// left at their default.
struct LeafBytes {
  std::vector<std::string> leaves;

  template <class... F>
  void operator()(F&... fields) {
    (Add(fields), ...);
  }

  template <class T>
  void Add(T& field) {
    if constexpr (HasWireFields<T>) {
      field.Fields(*this);
    } else if constexpr (std::is_array_v<T> &&
                         HasWireFields<std::remove_extent_t<T>>) {
      for (auto& element : field) {
        element.Fields(*this);
      }
    } else {
      std::string bytes;
      WireWriter writer(&bytes);
      writer(field);
      leaves.push_back(bytes);
    }
  }
};

template <class T>
std::vector<std::string> Leaves(T message) {
  LeafBytes visitor;
  message.Fields(visitor);
  return visitor.leaves;
}

/// Walks a message's encoding and records the payload offset of every u32
/// count: string lengths, list counts and shape ranks.
struct CountOffsets {
  size_t offset = 0;
  std::vector<size_t> counts;

  template <class... F>
  void operator()(F&... fields) {
    (Add(fields), ...);
  }

  template <class T>
  void Add(T& field) {
    if constexpr (HasWireFields<T>) {
      field.Fields(*this);
    } else if constexpr (std::is_array_v<T>) {
      for (auto& element : field) {
        Add(element);
      }
    } else if constexpr (internal::IsVector<T>::value) {
      counts.push_back(offset);
      offset += 4;
      for (auto& element : field) {
        Add(element);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      counts.push_back(offset);
      offset += 4 + field.size();
    } else if constexpr (std::is_same_v<T, Shape>) {
      counts.push_back(offset);
      offset += 4 + 8 * static_cast<size_t>(field.rank());
    } else {
      std::string bytes;
      WireWriter writer(&bytes);
      writer(field);
      offset += bytes.size();
    }
  }
};

template <class T>
class WireMessageTest : public ::testing::Test {};

using WireMessages =
    ::testing::Types<FetchSubsetRequest, FetchSubsetResponse, QueryRequest,
                     EventBatch, QueryDone, SubmitRequest, SubmitResponse,
                     ServeStatsSnapshot, KpcError, WorkerHello, WorkerHelloAck,
                     RunShardRequest, HeartbeatMsg, ShardResultMsg>;
TYPED_TEST_SUITE(WireMessageTest, WireMessages);

TYPED_TEST(WireMessageTest, SampleSetsEveryFieldAwayFromItsDefault) {
  const std::vector<std::string> sample = Leaves(Sample<TypeParam>());
  const std::vector<std::string> defaults = Leaves(TypeParam{});
  ASSERT_EQ(sample.size(), defaults.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_NE(sample[i], defaults[i]) << "leaf field " << i;
  }
}

TYPED_TEST(WireMessageTest, RoundTripsEveryField) {
  const TypeParam sample = Sample<TypeParam>();
  const StatusOr<TypeParam> decoded = TypeParam::Decode(sample.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(Leaves(*decoded), Leaves(sample));
}

TYPED_TEST(WireMessageTest, EveryStrictPrefixIsDataLoss) {
  const std::string payload = Sample<TypeParam>().Encode();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_EQ(TypeParam::Decode(payload.substr(0, cut)).status().code(),
              StatusCode::kDataLoss)
        << "prefix of " << cut << " of " << payload.size() << " bytes";
  }
}

TYPED_TEST(WireMessageTest, ATrailingByteIsDataLoss) {
  const std::string payload = Sample<TypeParam>().Encode();
  EXPECT_EQ(TypeParam::Decode(payload + '\0').status().code(),
            StatusCode::kDataLoss);
}

TYPED_TEST(WireMessageTest, EveryCountAtMaxIsDataLoss) {
  TypeParam sample = Sample<TypeParam>();
  const std::string payload = sample.Encode();
  CountOffsets walk;
  sample.Fields(walk);
  ASSERT_EQ(walk.offset, payload.size());
  for (size_t at : walk.counts) {
    std::string hostile = payload;
    hostile.replace(at, 4, "\xff\xff\xff\xff");
    EXPECT_EQ(TypeParam::Decode(hostile).status().code(),
              StatusCode::kDataLoss)
        << "count at byte " << at;
  }
}

// -------------------------------------------------------- int fields --

TEST(WireCodecTest, RunShardRequestRejectsASliceFileOutsideInt) {
  std::string wire;
  AppendI64(1, &wire);                  // shard
  AppendU32(1, &wire);                  // one slice
  AppendI64(int64_t{1} << 32, &wire);   // file: wraps to 0 as an int
  AppendI64(0, &wire);
  AppendI64(8, &wire);
  EXPECT_EQ(RunShardRequest::Decode(wire).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, WorkerHelloRejectsAStopIterOutsideInt) {
  WorkerHello hello;
  hello.program = "STORM";
  const std::string wire = hello.Encode();
  // program (u32 length + bytes), extent, rng_seed, then fuzz.stop_iter.
  const size_t stop_iter_at = 4 + hello.program.size() + 8 + 8;
  std::string hostile = wire.substr(0, stop_iter_at);
  AppendI64((int64_t{1} << 32) + 500, &hostile);  // Wraps to 500.
  hostile += wire.substr(stop_iter_at + 8);
  ASSERT_EQ(hostile.size(), wire.size());
  EXPECT_EQ(WorkerHello::Decode(hostile).status().code(),
            StatusCode::kDataLoss);
}

// ------------------------------------------------------- enum fields --

TEST(WireCodecTest, EventBatchRejectsUnknownEventTypes) {
  const auto batch_with_type = [](uint8_t type) {
    std::string wire;
    AppendU32(1, &wire);
    AppendI64(7, &wire);  // pid
    AppendI64(1, &wire);  // file_id
    AppendU8(type, &wire);
    AppendI64(0, &wire);  // offset
    AppendI64(8, &wire);  // size
    return EventBatch::Decode(wire);
  };
  const StatusOr<EventBatch> close = batch_with_type(5);
  ASSERT_TRUE(close.ok()) << close.status();
  EXPECT_EQ(close->events[0].type, EventType::kClose);
  EXPECT_EQ(batch_with_type(6).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(batch_with_type(200).status().code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, KpcErrorRejectsCodesOutsideTheErrorRange) {
  const auto error_with_code = [](uint32_t code) {
    std::string wire;
    AppendU32(code, &wire);
    AppendString("message", &wire);
    return KpcError::Decode(wire);
  };
  const StatusOr<KpcError> missing =
      error_with_code(static_cast<uint32_t>(StatusCode::kDataMissing));
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->ToStatus().code(), StatusCode::kDataMissing);
  for (uint32_t code : {0u, 11u, 77u}) {
    EXPECT_EQ(error_with_code(code).status().code(), StatusCode::kDataLoss)
        << "code " << code;
  }
}

// ------------------------------------------------ fetch-subset checks --

/// Decodes the Sample() response ([12, 16), present {1,0,1,1}, three
/// values) after `edit`, through the encoder, so only the edit differs.
template <class Edit>
StatusCode DecodeEditedSubset(Edit edit) {
  FetchSubsetResponse m = Sample<FetchSubsetResponse>();
  edit(m);
  return FetchSubsetResponse::Decode(m.Encode()).status().code();
}

TEST(WireCodecTest, FetchSubsetRejectsBeginAfterEnd) {
  EXPECT_EQ(DecodeEditedSubset([](FetchSubsetResponse& m) {
              m.begin = 16;
              m.end = 12;
            }),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, FetchSubsetRejectsPresenceBytesDisagreeingWithTheRange) {
  EXPECT_EQ(DecodeEditedSubset([](FetchSubsetResponse& m) { m.end = 17; }),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeEditedSubset([](FetchSubsetResponse& m) {
              m.begin = std::numeric_limits<int64_t>::min();
              m.end = std::numeric_limits<int64_t>::max();
            }),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, FetchSubsetRejectsPresenceBytesOtherThanZeroOrOne) {
  EXPECT_EQ(DecodeEditedSubset([](FetchSubsetResponse& m) {
              m.present[1] = 2;
              m.values.push_back(0.0);
            }),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, FetchSubsetRejectsValuesDisagreeingWithPresentBits) {
  // The reader walks `values` once per set bit: {1, 1} with no values
  // would read past the end.
  EXPECT_EQ(DecodeEditedSubset([](FetchSubsetResponse& m) {
              m.begin = 0;
              m.end = 2;
              m.present = {1, 1};
              m.values.clear();
            }),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeEditedSubset(
                [](FetchSubsetResponse& m) { m.values.push_back(4.0); }),
            StatusCode::kDataLoss);
}

TEST(WireCodecTest, Kel2TypeColumnRejectsUnknownEventTypes) {
  const auto block_with_type = [](uint8_t type) {
    std::string payload;
    AppendSignedVarint(7, &payload);  // pid column
    AppendSignedVarint(1, &payload);  // file_id column
    AppendU8(type, &payload);         // type column: one run of one
    AppendVarint(1, &payload);
    AppendSignedVarint(0, &payload);  // offset column
    AppendSignedVarint(8, &payload);  // size column: one run of one
    AppendVarint(1, &payload);
    return DecodeKel2Payload(payload.data(), payload.size(), 1);
  };
  const StatusOr<std::vector<Event>> pread = block_with_type(2);
  ASSERT_TRUE(pread.ok()) << pread.status();
  EXPECT_EQ((*pread)[0].type, EventType::kPread);
  EXPECT_EQ(block_with_type(6).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(block_with_type(200).status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------ counts --

TEST(WireCodecTest, FleetCountsAreCheckedAgainstThePayloadBeforeAllocating) {
  // 2^20 elements pass the fleet count cap but not the 5 bytes left, and
  // must be refused before the decoder sizes anything for them.
  std::string ack;
  AppendString("", &ack);
  AppendU32(1u << 20, &ack);
  ack.append(5, '\0');
  ASSERT_EQ(ack.size(), 13u);
  const Status ack_status = WorkerHelloAck::Decode(ack).status();
  EXPECT_EQ(ack_status.code(), StatusCode::kDataLoss);
  EXPECT_NE(ack_status.message().find("overruns"), std::string::npos)
      << ack_status;

  std::string run;
  AppendI64(0, &run);
  AppendU32(1u << 20, &run);
  run.append(1, '\0');
  ASSERT_EQ(run.size(), 13u);
  const Status run_status = RunShardRequest::Decode(run).status();
  EXPECT_EQ(run_status.code(), StatusCode::kDataLoss);
  EXPECT_NE(run_status.message().find("overruns"), std::string::npos)
      << run_status;
}

}  // namespace
}  // namespace kondo
