#include "core/remote_fetch.h"

#include "common/stopwatch.h"

namespace kondo {

StatusOr<std::unique_ptr<KdfRemoteSource>> KdfRemoteSource::Open(
    const std::string& path, int64_t latency_micros) {
  KONDO_ASSIGN_OR_RETURN(KdfReader reader, KdfReader::Open(path));
  return std::unique_ptr<KdfRemoteSource>(
      new KdfRemoteSource(std::move(reader), latency_micros));
}

StatusOr<double> KdfRemoteSource::Fetch(const Index& index) {
  BusyWaitMicros(latency_micros_);
  ++fetch_count_;
  KONDO_ASSIGN_OR_RETURN(double value, reader_.ReadElement(index));
  bytes_fetched_ += reader_.layout().element_size();
  return value;
}

}  // namespace kondo
