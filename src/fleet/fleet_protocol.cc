#include "fleet/fleet_protocol.h"

#include "common/strings.h"

namespace kondo {
namespace {

/// Ceiling on counted collections in fleet payloads (slices, files). A
/// header claiming more is corruption: even a degenerate plan never slices
/// one shard a million ways.
constexpr size_t kMaxWireCount = size_t{1} << 20;

Status CheckCount(size_t count, const char* what) {
  if (count > kMaxWireCount) {
    return DataLossError(StrCat("implausible ", what, " count: ", count));
  }
  return OkStatus();
}

Status CheckShardId(int shard) {
  if (shard < 0) {
    return DataLossError(StrCat("bad shard id on the wire: ", shard));
  }
  return OkStatus();
}

}  // namespace

Status WorkerHelloAck::Check() const {
  return CheckCount(file_shapes.size(), "file");
}

Status RunShardRequest::Check() const {
  KONDO_RETURN_IF_ERROR(CheckShardId(shard));
  KONDO_RETURN_IF_ERROR(CheckCount(slices.size(), "slice"));
  for (const ShardSlice& slice : slices) {
    if (slice.file < 0 || slice.begin < 0 || slice.end <= slice.begin) {
      return DataLossError("bad shard slice on the wire");
    }
  }
  return OkStatus();
}

Status HeartbeatMsg::Check() const { return CheckShardId(shard); }

Status ShardResultMsg::Check() const { return CheckShardId(shard); }

}  // namespace kondo
