#include "shard/shard_campaign.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "audit/event_log.h"
#include "common/interval_set.h"
#include "common/strings.h"
#include "exec/result_collector.h"
#include "provenance/crc32.h"
#include "provenance/persist.h"
#include "shard/shard_manifest.h"

namespace kondo {
namespace {

/// Builds the canonical lineage log of one consumed debloat test: for each
/// file in ordinal order (file_id = ordinal + 1), the run's accessed linear
/// ids — restricted to this shard's slices — as coalesced byte ranges
/// (id -> [8id, 8id+8)) recorded as positioned reads under pid = 1 + seq.
/// The encoding is a pure function of the restricted index sets, so merging
/// shard stores and re-encoding reproduces identical bytes for any shard
/// count (docs/FORMATS.md).
std::shared_ptr<EventLog> CanonicalLineageLog(
    const std::vector<IndexSet>& per_file, int64_t seq) {
  auto log = std::make_shared<EventLog>();
  bool any = false;
  for (size_t f = 0; f < per_file.size(); ++f) {
    // The set's runs are maximal, so each maps to one coalesced range.
    per_file[f].ForEachRun([&](int64_t begin, int64_t end) {
      Event event;
      event.id = EventId{1 + seq, static_cast<int64_t>(f) + 1};
      event.type = EventType::kPread;
      event.offset = begin * kLineageElemBytes;
      event.size = (end - begin) * kLineageElemBytes;
      log->Record(event);
      any = true;
    });
  }
  return any ? log : nullptr;
}

}  // namespace

StatusOr<ShardCampaignResult> RunShardCampaign(
    const MultiFileProgram& program, const ShardPlan& plan,
    const Shard& shard, const KondoConfig& config, CampaignExecutor& executor,
    const AuditPersistFn& persist) {
  const std::vector<Shape>& file_shapes = plan.file_shapes;
  const std::vector<int64_t>& offsets = plan.offsets;
  const Shape combined_shape = plan.combined_shape();

  // The shard's ownership map: per file, the linear-id ranges it collects.
  std::vector<IntervalSet> owned(file_shapes.size());
  for (const ShardSlice& slice : shard.slices) {
    owned[static_cast<size_t>(slice.file)].Add(slice.begin, slice.end);
  }

  const bool build_logs = static_cast<bool>(persist);
  const CandidateTestFn test = [&program, &file_shapes, &offsets,
                                &combined_shape, &owned,
                                build_logs](const TestCandidate& candidate) {
    IndexSet::Builder accessed(combined_shape);
    std::vector<IndexSet::Builder> per_file;
    per_file.reserve(file_shapes.size());
    for (const Shape& shape : file_shapes) {
      per_file.emplace_back(shape);
    }
    program.Execute(candidate.value, [&](int file, const Index& index) {
      const Shape& shape = file_shapes[static_cast<size_t>(file)];
      if (!shape.Contains(index)) {
        return;
      }
      const int64_t linear = shape.Linearize(index);
      // Progress tracking spans *all* files: the combined accessed set is
      // what the schedule's stopping criteria consume, and it must match
      // the unsharded campaign's trajectory exactly for every shard to
      // replay identical decisions.
      accessed.InsertLinear(offsets[static_cast<size_t>(file)] + linear);
      // Collection is restricted to the shard's own slices.
      if (owned[static_cast<size_t>(file)].Contains(linear)) {
        per_file[static_cast<size_t>(file)].InsertLinear(linear);
      }
    });
    CandidateResult result;
    result.accessed = accessed.Build();
    result.per_file.reserve(per_file.size());
    for (IndexSet::Builder& builder : per_file) {
      result.per_file.push_back(builder.Build());
    }
    if (build_logs) {
      result.log = CanonicalLineageLog(result.per_file, candidate.seq);
    }
    return result;
  };

  ResultCollector collector(combined_shape, persist);
  collector.EnablePerFile(file_shapes);
  FuzzSchedule schedule(program.param_space(), combined_shape, config.fuzz,
                        config.rng_seed);
  FuzzResult fuzz = schedule.Run(executor, test, &collector);
  if (!fuzz.status.ok()) {
    return Status(fuzz.status.code(),
                  StrCat("shard ", shard.id, " campaign aborted: ",
                         fuzz.status.message()));
  }

  ShardCampaignResult result;
  result.per_file = collector.TakePerFile();
  result.seeds = std::move(fuzz.seeds);
  result.stats = std::move(fuzz.stats);
  return result;
}

void ExtendCampaign(ShardCampaignResult* base, ShardCampaignResult latest) {
  for (size_t f = 0; f < base->per_file.size(); ++f) {
    base->per_file[f].Union(latest.per_file[f]);
  }
  base->seeds.insert(base->seeds.end(), latest.seeds.begin(),
                     latest.seeds.end());
  std::vector<ParamValue> quarantined =
      std::move(base->stats.quarantined_points);
  quarantined.insert(quarantined.end(),
                     latest.stats.quarantined_points.begin(),
                     latest.stats.quarantined_points.end());
  base->stats = std::move(latest.stats);
  base->stats.quarantined_points = std::move(quarantined);
}

StatusOr<ShardArtifactInfo> HashFileArtifact(const std::string& path,
                                             Env* env) {
  std::string content;
  KONDO_RETURN_IF_ERROR(ReadFileToString(path, &content, env));
  ShardArtifactInfo info;
  info.lineage_bytes = static_cast<int64_t>(content.size());
  info.lineage_crc = Crc32(content.data(), content.size());
  return info;
}

StatusOr<SealedShard> RunSealedShard(const MultiFileProgram& program,
                                     const ShardPlan& plan, const Shard& shard,
                                     const KondoConfig& config,
                                     CampaignExecutor& executor,
                                     const std::string& lineage_path,
                                     Env* env) {
  Kel2WriterOptions sink_options;
  sink_options.env = env;
  KONDO_ASSIGN_OR_RETURN(
      CampaignLineageSink sink,
      CampaignLineageSink::Create(lineage_path, sink_options));
  SealedShard sealed;
  KONDO_ASSIGN_OR_RETURN(sealed.result,
                         RunShardCampaign(program, plan, shard, config,
                                          executor, sink.persister()));
  KONDO_RETURN_IF_ERROR(sink.Close());
  KONDO_RETURN_IF_ERROR(ReadFileToString(lineage_path, &sealed.kel2, env));
  sealed.info.lineage_bytes = static_cast<int64_t>(sealed.kel2.size());
  sealed.info.lineage_crc = Crc32(sealed.kel2.data(), sealed.kel2.size());
  return sealed;
}

std::string EncodeShardState(int shard, const ShardCampaignResult& result,
                             const ShardArtifactInfo& info) {
  std::ostringstream out;
  out << "KSS2 " << shard << " " << result.per_file.size() << "\n";
  for (const IndexSet& discovered : result.per_file) {
    AppendShapeLine(discovered.shape(), out);
  }
  const FuzzStats& stats = result.stats;
  char buf[64];
  out << "T " << stats.iterations << " " << stats.evaluations << " "
      << stats.useful_evaluations << " " << stats.restarts;
  std::snprintf(buf, sizeof(buf), " %.17g", stats.final_epsilon);
  out << buf;
  std::snprintf(buf, sizeof(buf), " %.17g", stats.elapsed_seconds);
  out << buf << " " << (stats.stopped_by_stagnation ? 1 : 0) << " "
      << (stats.stopped_by_budget ? 1 : 0) << " "
      << (stats.stopped_by_eval_budget ? 1 : 0) << " " << stats.retries
      << " " << stats.quarantined << "\n";
  for (const Seed& seed : result.seeds) {
    out << "S " << (seed.useful ? 1 : 0);
    for (double v : seed.value) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out << buf;
    }
    out << "\n";
  }
  for (const ParamValue& point : stats.quarantined_points) {
    out << "Q";
    for (double v : point) {
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      out << buf;
    }
    out << "\n";
  }
  for (size_t f = 0; f < result.per_file.size(); ++f) {
    for (int64_t id : result.per_file[f].ToSortedLinearIds()) {
      out << "I " << f << " " << id << "\n";
    }
  }
  if (info.lineage_bytes >= 0) {
    out << "A " << info.lineage_bytes << " " << info.lineage_crc << "\n";
  }
  std::string body = out.str();
  AppendChecksumTrailer(&body);
  return body;
}

Status SaveShardState(const std::string& path, int shard,
                      const ShardCampaignResult& result,
                      const ShardArtifactInfo& info, Env* env) {
  KONDO_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path, env));
  KONDO_RETURN_IF_ERROR(file.Append(EncodeShardState(shard, result, info)));
  return file.Commit();
}

StatusOr<ShardCampaignResult> LoadShardState(
    const std::string& path, int shard,
    const std::vector<Shape>& file_shapes, ShardArtifactInfo* info_out,
    Env* env) {
  std::string content;
  KONDO_RETURN_IF_ERROR(ReadFileToString(path, &content, env));
  return DecodeShardState(std::move(content), path, shard, file_shapes,
                          info_out);
}

StatusOr<ShardCampaignResult> DecodeShardState(
    std::string content, const std::string& source, int shard,
    const std::vector<Shape>& file_shapes, ShardArtifactInfo* info_out) {
  if (content.rfind("KCS", 0) == 0) {
    return FailedPreconditionError(
        StrCat(source, " is a KCS campaign state, which is no longer read; "
                       "re-run `kondo fuzz --out` to write a KSS"));
  }
  KONDO_RETURN_IF_ERROR(StripChecksumTrailer("shard state", source, &content));
  std::istringstream in(content);
  std::string line;
  std::getline(in, line);
  std::istringstream header(line);
  std::string magic;
  int stored_shard = -1;
  size_t num_files = 0;
  header >> magic >> stored_shard >> num_files;
  if (header.fail() || magic != "KSS2" || stored_shard != shard) {
    return DataLossError(
        StrCat("bad shard state header for shard ", shard, ": ", source));
  }
  if (num_files != file_shapes.size()) {
    return FailedPreconditionError(
        StrCat("shard state holds ", num_files, " files, which does not ",
               "match the campaign's ", file_shapes.size(), ": ", source));
  }
  // One `F` line per file follows the header: a state written for another
  // program is refused before any of its ids are read.
  for (const Shape& expected : file_shapes) {
    std::getline(in, line);  // Past the end `line` is empty: a bad F line.
    KONDO_ASSIGN_OR_RETURN(const Shape shape,
                           ParseShapeLine(line, "shard state " + source));
    if (!(shape == expected)) {
      return FailedPreconditionError(
          StrCat("shard state shape ", shape.ToString(),
                 " does not match the campaign's ", expected.ToString(),
                 ": ", source));
    }
  }

  ShardCampaignResult result;
  // `I` lines go through builders: a reordered or hostile file must not
  // hit IndexSet's out-of-order insert path once per line.
  std::vector<IndexSet::Builder> per_file;
  per_file.reserve(file_shapes.size());
  for (const Shape& shape : file_shapes) {
    per_file.emplace_back(shape);
  }
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'T') {
      FuzzStats& stats = result.stats;
      int stagnation = 0, budget = 0, eval_budget = 0;
      fields >> stats.iterations >> stats.evaluations >>
          stats.useful_evaluations >> stats.restarts >> stats.final_epsilon >>
          stats.elapsed_seconds >> stagnation >> budget >> eval_budget >>
          stats.retries >> stats.quarantined;
      if (fields.fail()) {
        return DataLossError("bad stats line in shard state: " + line);
      }
      stats.stopped_by_stagnation = stagnation != 0;
      stats.stopped_by_budget = budget != 0;
      stats.stopped_by_eval_budget = eval_budget != 0;
    } else if (tag == 'S') {
      int useful = 0;
      fields >> useful;
      Seed seed;
      seed.useful = useful != 0;
      double v = 0.0;
      while (fields >> v) {
        seed.value.push_back(v);
      }
      result.seeds.push_back(std::move(seed));
    } else if (tag == 'Q') {
      ParamValue point;
      double v = 0.0;
      while (fields >> v) {
        point.push_back(v);
      }
      result.stats.quarantined_points.push_back(std::move(point));
    } else if (tag == 'A') {
      ShardArtifactInfo info;
      fields >> info.lineage_bytes >> info.lineage_crc;
      if (fields.fail() || info.lineage_bytes < 0) {
        return DataLossError("bad artefact line in shard state: " + line);
      }
      if (info_out != nullptr) {
        *info_out = info;
      }
    } else if (tag == 'I') {
      size_t file = 0;
      int64_t id = -1;
      fields >> file >> id;
      if (fields.fail() || file >= file_shapes.size() || id < 0 ||
          id >= file_shapes[file].NumElements()) {
        return DataLossError("bad discovered id in shard state: " + line);
      }
      per_file[file].InsertLinear(id);
    } else {
      return DataLossError("unknown shard state line: " + line);
    }
  }
  result.per_file.reserve(per_file.size());
  for (IndexSet::Builder& builder : per_file) {
    result.per_file.push_back(builder.Build());
  }
  return result;
}

}  // namespace kondo
