#ifndef KONDO_FLEET_FLEET_PROTOCOL_H_
#define KONDO_FLEET_FLEET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/shape.h"
#include "common/status.h"
#include "fuzz/fuzz_config.h"
#include "serve/kpc_codec.h"
#include "shard/shard_plan.h"

namespace kondo {

/// Payloads of the KPC fleet worker verbs (serve/kpc.h: kHello, kRunShard,
/// kShardResult, kHeartbeat). Each lists its fields once, in wire order, and
/// serve/kpc_codec.h derives Encode() and Decode() from that list; the
/// layout is specified field by field in docs/FORMATS.md. Check() holds the
/// rules no field type expresses.
///
/// The conversation on a worker connection:
///
///   coordinator -> worker   kHello(WorkerHello)        campaign spec
///   worker -> coordinator   kHello(WorkerHelloAck)     program validated
///   repeat:
///     coordinator -> worker kRunShard(RunShardRequest) one shard
///     worker -> coordinator kHeartbeat(HeartbeatMsg)*  liveness while busy
///     worker -> coordinator kShardResult(ShardResultMsg)
///
/// Any side may send kError(KpcError) instead of its next frame; the
/// connection is then done. A worker serves shards until the coordinator
/// closes the connection.

inline constexpr char kFleetPayload[] = "fleet payload";

template <class T>
using FleetMessage = WireMessage<T, kFleetPayload>;

/// kHello, coordinator -> worker: everything a worker needs to replay the
/// campaign schedule bit-identically — the registry program name, its
/// extent override, and the full fuzz configuration plus RNG seed. Carve
/// parameters are *not* shipped: carving happens at the coordinator's
/// merge, never on workers.
struct WorkerHello : FleetMessage<WorkerHello> {
  std::string program;  // Registry name ("STORM", "CLIMATE", ...).
  int64_t extent = 0;   // Grid-extent override; 0 = program default.
  uint64_t rng_seed = 1;
  FuzzConfig fuzz;

  template <class V>
  void Fields(V& v) {
    v(program, extent, rng_seed, fuzz);
  }
};

/// kHello, worker -> coordinator: the worker instantiated the program and
/// echoes its file geometry, so a coordinator whose plan was built against
/// different shapes (wrong binary, wrong extent) fails the handshake
/// instead of merging nonsense.
struct WorkerHelloAck : FleetMessage<WorkerHelloAck> {
  std::string program;
  std::vector<Shape> file_shapes;

  template <class V>
  void Fields(V& v) {
    v(program, file_shapes);
  }
  Status Check() const;
};

/// kRunShard, coordinator -> worker: one shard assignment — the shard id
/// (which names every artefact) and the slices it owns. The worker rebuilds
/// the plan-lite geometry (shapes, offsets, combined space) from its own
/// program instance; only the ownership map crosses the wire.
struct RunShardRequest : FleetMessage<RunShardRequest> {
  int shard = 0;
  std::vector<ShardSlice> slices;

  template <class V>
  void Fields(V& v) {
    v(shard, slices);
  }
  Status Check() const;
};

/// kHeartbeat, worker -> coordinator: sent periodically while the shard
/// campaign runs, so the coordinator's receive timeout distinguishes a
/// long-running worker from a dead or wedged one.
struct HeartbeatMsg : FleetMessage<HeartbeatMsg> {
  int shard = 0;
  int64_t sequence = 0;  // Monotonic per shard, starting at 0.

  template <class V>
  void Fields(V& v) {
    v(shard, sequence);
  }
  Status Check() const;
};

/// kShardResult, worker -> coordinator: the shard's sealed artefacts as
/// complete file images — the KSS state (checksum trailer included, its
/// `A` line fingerprinting the store) and the KEL2 lineage store bytes.
/// The coordinator verifies both fingerprints before anything touches the
/// campaign directory.
struct ShardResultMsg : FleetMessage<ShardResultMsg> {
  int shard = 0;
  std::string kss;
  std::string kel2;

  template <class V>
  void Fields(V& v) {
    v(shard, kss, kel2);
  }
  Status Check() const;
};

}  // namespace kondo

#endif  // KONDO_FLEET_FLEET_PROTOCOL_H_
