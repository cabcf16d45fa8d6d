#include "provenance/persist.h"

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
                         ReadLineageStore(input_path, options.env));
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
  KONDO_ASSIGN_OR_RETURN(const std::unique_ptr<RandomAccessFile> file,
                         Env::Default()->NewRandomAccessFile(path));
  return file->Size();
}

}  // namespace kondo
