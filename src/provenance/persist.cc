#include "provenance/persist.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/thread_annotations.h"
#include "provenance/kel2_reader.h"

namespace kondo {

AuditPersistFn MakeKel2Persister(std::string path,
                                 Kel2WriterOptions options) {
  return [path = std::move(path), options](const EventLog& log) -> Status {
    KONDO_ASSIGN_OR_RETURN(Kel2Writer writer,
                           Kel2Writer::Create(path, options));
    KONDO_RETURN_IF_ERROR(writer.AppendAll(log));
    return writer.Close();
  };
}

StatusOr<CampaignLineageSink> CampaignLineageSink::Create(
    const std::string& path, Kel2WriterOptions options) {
  KONDO_ASSIGN_OR_RETURN(Kel2Writer writer,
                         Kel2Writer::Create(path, options));
  return CampaignLineageSink(
      std::make_shared<Kel2Writer>(std::move(writer)));
}

AuditPersistFn CampaignLineageSink::persister() const {
  return [writer = writer_, runs = runs_](const EventLog& log) -> Status {
    KONDO_RETURN_IF_ERROR(writer->AppendAll(log));
    ++*runs;
    return OkStatus();
  };
}

Status CampaignLineageSink::Close() { return writer_->Close(); }

AuditPersistFn MakeSerializedPersister(AuditPersistFn persist) {
  auto mu = std::make_shared<Mutex>();
  return [mu, persist = std::move(persist)](const EventLog& log) -> Status {
    MutexLock lock(*mu);
    return persist(log);
  };
}

StatusOr<CompactStats> CompactLineageStore(const std::string& input_path,
                                           const std::string& output_path,
                                           Kel2WriterOptions options) {
  KONDO_ASSIGN_OR_RETURN(std::vector<Event> events,
                         ReadLineageStore(input_path));
  KONDO_ASSIGN_OR_RETURN(Kel2Writer writer,
                         Kel2Writer::Create(output_path, options));
  for (const Event& event : events) {
    KONDO_RETURN_IF_ERROR(writer.Append(event));
  }
  KONDO_RETURN_IF_ERROR(writer.Close());

  CompactStats stats;
  stats.events = static_cast<int64_t>(events.size());
  stats.blocks = writer.blocks_written();
  KONDO_ASSIGN_OR_RETURN(stats.input_bytes, FileSizeBytes(input_path));
  KONDO_ASSIGN_OR_RETURN(stats.output_bytes, FileSizeBytes(output_path));
  return stats;
}

StatusOr<int64_t> FileSizeBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("cannot open: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const int64_t size = std::ftell(file);
  std::fclose(file);
  if (size < 0) {
    return InternalError("cannot size: " + path);
  }
  return size;
}

}  // namespace kondo
