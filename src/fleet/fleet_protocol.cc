#include "fleet/fleet_protocol.h"

#include <limits>

#include "common/byte_codec.h"
#include "common/strings.h"

namespace kondo {
namespace {

/// Ceiling on counted collections in fleet payloads (slices, files). A
/// header claiming more is corruption: even a degenerate plan never slices
/// one shard a million ways.
constexpr uint32_t kMaxWireCount = 1u << 20;

Status ReadCount(ByteCursor& cursor, const char* what, uint32_t* count) {
  KONDO_RETURN_IF_ERROR(cursor.ReadU32(count));
  if (*count > kMaxWireCount) {
    return DataLossError(StrCat("implausible ", what, " count: ", *count));
  }
  return OkStatus();
}

Status ReadShardId(ByteCursor& cursor, int* shard) {
  int64_t value = 0;
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&value));
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    return DataLossError(StrCat("bad shard id on the wire: ", value));
  }
  *shard = static_cast<int>(value);
  return OkStatus();
}

}  // namespace

std::string WorkerHello::Encode() const {
  std::string out;
  AppendString(program, &out);
  AppendI64(extent, &out);
  AppendI64(static_cast<int64_t>(rng_seed), &out);
  AppendI64(fuzz.stop_iter, &out);
  AppendI64(fuzz.max_iter, &out);
  AppendF64(fuzz.diameter, &out);
  AppendI64(fuzz.u_reps, &out);
  AppendI64(fuzz.n_reps, &out);
  AppendF64(fuzz.u_dist.lo, &out);
  AppendF64(fuzz.u_dist.hi, &out);
  AppendF64(fuzz.n_dist.lo, &out);
  AppendF64(fuzz.n_dist.hi, &out);
  AppendI64(fuzz.restart, &out);
  AppendI64(fuzz.decay_iter, &out);
  AppendF64(fuzz.decay, &out);
  AppendF64(fuzz.epsilon0, &out);
  AppendI64(fuzz.init_seeds, &out);
  AppendF64(fuzz.max_seconds, &out);
  AppendI64(fuzz.max_evals, &out);
  AppendI64(fuzz.test_max_attempts, &out);
  AppendI64(fuzz.test_backoff_micros, &out);
  return out;
}

StatusOr<WorkerHello> WorkerHello::Decode(std::string_view payload) {
  ByteCursor cursor(payload, "fleet payload");
  WorkerHello hello;
  KONDO_RETURN_IF_ERROR(cursor.ReadString(&hello.program));
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&hello.extent));
  int64_t seed = 0;
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&seed));
  hello.rng_seed = static_cast<uint64_t>(seed);
  const auto read_int = [&cursor](int* v) {
    int64_t wide = 0;
    KONDO_RETURN_IF_ERROR(cursor.ReadI64(&wide));
    *v = static_cast<int>(wide);
    return OkStatus();
  };
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.stop_iter));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.max_iter));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.diameter));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.u_reps));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.n_reps));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.u_dist.lo));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.u_dist.hi));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.n_dist.lo));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.n_dist.hi));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.restart));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.decay_iter));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.decay));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.epsilon0));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.init_seeds));
  KONDO_RETURN_IF_ERROR(cursor.ReadF64(&hello.fuzz.max_seconds));
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&hello.fuzz.max_evals));
  KONDO_RETURN_IF_ERROR(read_int(&hello.fuzz.test_max_attempts));
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&hello.fuzz.test_backoff_micros));
  KONDO_RETURN_IF_ERROR(cursor.Done());
  return hello;
}

std::string WorkerHelloAck::Encode() const {
  std::string out;
  AppendString(program, &out);
  AppendU32(static_cast<uint32_t>(file_shapes.size()), &out);
  for (const Shape& shape : file_shapes) {
    AppendU32(static_cast<uint32_t>(shape.rank()), &out);
    for (int d = 0; d < shape.rank(); ++d) {
      AppendI64(shape.dim(d), &out);
    }
  }
  return out;
}

StatusOr<WorkerHelloAck> WorkerHelloAck::Decode(std::string_view payload) {
  ByteCursor cursor(payload, "fleet payload");
  WorkerHelloAck ack;
  KONDO_RETURN_IF_ERROR(cursor.ReadString(&ack.program));
  uint32_t files = 0;
  KONDO_RETURN_IF_ERROR(ReadCount(cursor, "file", &files));
  ack.file_shapes.reserve(files);
  for (uint32_t f = 0; f < files; ++f) {
    uint32_t rank = 0;
    KONDO_RETURN_IF_ERROR(cursor.ReadU32(&rank));
    if (rank > cursor.remaining() / 8) {  // 8 payload bytes per dim.
      return DataLossError(StrCat("file rank ", rank, " overruns the ",
                                  cursor.remaining(), "-byte payload"));
    }
    std::vector<int64_t> dims(rank);
    for (int64_t& dim : dims) {
      KONDO_RETURN_IF_ERROR(cursor.ReadI64(&dim));
    }
    KONDO_ASSIGN_OR_RETURN(Shape shape, DecodeShape(dims, "fleet file shape"));
    ack.file_shapes.push_back(std::move(shape));
  }
  KONDO_RETURN_IF_ERROR(cursor.Done());
  return ack;
}

std::string RunShardRequest::Encode() const {
  std::string out;
  AppendI64(shard, &out);
  AppendU32(static_cast<uint32_t>(slices.size()), &out);
  for (const ShardSlice& slice : slices) {
    AppendI64(slice.file, &out);
    AppendI64(slice.begin, &out);
    AppendI64(slice.end, &out);
  }
  return out;
}

StatusOr<RunShardRequest> RunShardRequest::Decode(std::string_view payload) {
  ByteCursor cursor(payload, "fleet payload");
  RunShardRequest request;
  KONDO_RETURN_IF_ERROR(ReadShardId(cursor, &request.shard));
  uint32_t slices = 0;
  KONDO_RETURN_IF_ERROR(ReadCount(cursor, "slice", &slices));
  request.slices.reserve(slices);
  for (uint32_t i = 0; i < slices; ++i) {
    ShardSlice slice;
    int64_t file = 0;
    KONDO_RETURN_IF_ERROR(cursor.ReadI64(&file));
    KONDO_RETURN_IF_ERROR(cursor.ReadI64(&slice.begin));
    KONDO_RETURN_IF_ERROR(cursor.ReadI64(&slice.end));
    if (file < 0 || slice.begin < 0 || slice.end <= slice.begin) {
      return DataLossError("bad shard slice on the wire");
    }
    slice.file = static_cast<int>(file);
    request.slices.push_back(slice);
  }
  KONDO_RETURN_IF_ERROR(cursor.Done());
  return request;
}

std::string HeartbeatMsg::Encode() const {
  std::string out;
  AppendI64(shard, &out);
  AppendI64(sequence, &out);
  return out;
}

StatusOr<HeartbeatMsg> HeartbeatMsg::Decode(std::string_view payload) {
  ByteCursor cursor(payload, "fleet payload");
  HeartbeatMsg heartbeat;
  KONDO_RETURN_IF_ERROR(ReadShardId(cursor, &heartbeat.shard));
  KONDO_RETURN_IF_ERROR(cursor.ReadI64(&heartbeat.sequence));
  KONDO_RETURN_IF_ERROR(cursor.Done());
  return heartbeat;
}

std::string ShardResultMsg::Encode() const {
  std::string out;
  AppendI64(shard, &out);
  AppendString(kss, &out);
  AppendString(kel2, &out);
  return out;
}

StatusOr<ShardResultMsg> ShardResultMsg::Decode(std::string_view payload) {
  ByteCursor cursor(payload, "fleet payload");
  ShardResultMsg result;
  KONDO_RETURN_IF_ERROR(ReadShardId(cursor, &result.shard));
  KONDO_RETURN_IF_ERROR(cursor.ReadString(&result.kss));
  KONDO_RETURN_IF_ERROR(cursor.ReadString(&result.kel2));
  KONDO_RETURN_IF_ERROR(cursor.Done());
  return result;
}

}  // namespace kondo
