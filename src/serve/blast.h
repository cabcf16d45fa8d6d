#ifndef KONDO_SERVE_BLAST_H_
#define KONDO_SERVE_BLAST_H_

#include <cstdint>
#include <string>

#include "common/socket.h"
#include "common/statusor.h"

namespace kondo {

/// `kondo blast`: closed-loop fetch-subset load against a running daemon.
struct BlastOptions {
  SocketAddress address;
  std::string artifact = "main.kdp";
  int clients = 1;        // Concurrent connections, one thread each.
  int requests = 100;     // Requests per client.
  int64_t begin = 0;      // Element range fetched by every request.
  int64_t end = 64;
};

struct BlastReport {
  int64_t ok_requests = 0;
  int64_t failed_requests = 0;
  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;  // Aggregate ok requests / elapsed.
  int64_t bytes_received = 0;   // Wire bytes of successful responses.
  int64_t p50_micros = 0;
  int64_t p90_micros = 0;
  int64_t p99_micros = 0;
  int64_t max_micros = 0;

  /// True when every successful response carried bit-identical bytes —
  /// the cache hit/miss identity observed from outside.
  bool responses_identical = true;
};

/// Runs the load, aggregating across all client threads. Fails only on
/// setup errors (no connection at all); per-request failures are counted.
StatusOr<BlastReport> RunBlast(const BlastOptions& options);

}  // namespace kondo

#endif  // KONDO_SERVE_BLAST_H_
