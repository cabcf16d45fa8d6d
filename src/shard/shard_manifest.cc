#include "shard/shard_manifest.h"

#include <cstdio>
#include <sstream>

#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {

/// Appends the `C <crc32>` trailer over everything already in `body`.
void AppendChecksumTrailer(std::string* body) {
  const uint32_t crc = Crc32(body->data(), body->size());
  body->append(StrCat("C ", crc, "\n"));
}

/// Splits `content` into body + verified trailer. The trailer must be the
/// final line; its checksum must match every preceding byte.
Status StripChecksumTrailer(const std::string& what, const std::string& path,
                            std::string* content) {
  const size_t pos = content->rfind("\nC ");
  const bool leading_trailer =
      content->rfind("C ", 0) == 0 && pos == std::string::npos;
  size_t body_end = 0;
  size_t trailer_begin = 0;
  if (pos != std::string::npos) {
    body_end = pos + 1;  // Keep the body's trailing newline.
    trailer_begin = pos + 1;
  } else if (leading_trailer) {
    body_end = 0;
    trailer_begin = 0;
  } else {
    return DataLossError(StrCat(what, " missing checksum trailer: ", path));
  }
  std::istringstream fields(content->substr(trailer_begin));
  char tag = 0;
  uint32_t expected = 0;
  fields >> tag >> expected;
  if (tag != 'C' || fields.fail()) {
    return DataLossError(StrCat(what, " bad checksum trailer: ", path));
  }
  const uint32_t actual = Crc32(content->data(), body_end);
  if (actual != expected) {
    return DataLossError(StrCat(what, " checksum mismatch (stored ", expected,
                                ", computed ", actual, "): ", path));
  }
  content->resize(body_end);
  return OkStatus();
}

void AppendShapeLine(const Shape& shape, std::ostream& out) {
  out << "F " << shape.rank();
  for (int d = 0; d < shape.rank(); ++d) {
    out << " " << shape.dim(d);
  }
  out << "\n";
}

StatusOr<Shape> ParseShapeLine(const std::string& line,
                               const std::string& what) {
  std::istringstream fields(line);
  char tag = 0;
  int rank = 0;
  fields >> tag >> rank;
  std::vector<int64_t> dims;
  for (int64_t dim = 0;
       static_cast<int>(dims.size()) < rank && fields >> dim;) {
    dims.push_back(dim);
  }
  if (tag != 'F' || static_cast<int>(dims.size()) != rank) {
    return DataLossError(StrCat("bad file line in ", what, ": ", line));
  }
  return DecodeShape(dims, StrCat(what, " line '", line, "'"));
}

bool ShardManifest::AllFuzzed() const {
  for (ShardStatus status : statuses) {
    if (status != ShardStatus::kFuzzed) {
      return false;
    }
  }
  return !statuses.empty();
}

std::string ShardLineageFileName(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03d.kel2", shard);
  return buf;
}

std::string ShardStateFileName(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03d.kss", shard);
  return buf;
}

ShardManifest MakeShardManifest(const ShardPlan& plan, uint64_t rng_seed) {
  ShardManifest manifest;
  manifest.rng_seed = rng_seed;
  manifest.file_shapes = plan.file_shapes;
  manifest.shards = plan.shards;
  manifest.statuses.assign(plan.shards.size(), ShardStatus::kPending);
  manifest.dispatch_counts.assign(plan.shards.size(), 0);
  return manifest;
}

Status SaveShardManifest(const std::string& path,
                         const ShardManifest& manifest, Env* env) {
  std::ostringstream out;
  out << "KSM1 " << manifest.num_shards() << " " << manifest.rng_seed << " "
      << manifest.file_shapes.size() << " " << (manifest.merged ? 1 : 0)
      << "\n";
  for (const Shape& shape : manifest.file_shapes) {
    AppendShapeLine(shape, out);
  }
  for (int s = 0; s < manifest.num_shards(); ++s) {
    out << "H " << s << " "
        << static_cast<int>(manifest.statuses[static_cast<size_t>(s)])
        << "\n";
  }
  for (const Shard& shard : manifest.shards) {
    for (const ShardSlice& slice : shard.slices) {
      out << "L " << shard.id << " " << slice.file << " " << slice.begin
          << " " << slice.end << "\n";
    }
  }
  for (int s = 0; s < manifest.num_shards(); ++s) {
    const int dispatches =
        static_cast<size_t>(s) < manifest.dispatch_counts.size()
            ? manifest.dispatch_counts[static_cast<size_t>(s)]
            : 0;
    out << "W " << s << " " << dispatches << "\n";
  }
  std::string body = out.str();
  AppendChecksumTrailer(&body);
  KONDO_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path, env));
  KONDO_RETURN_IF_ERROR(file.Append(body));
  return file.Commit();
}

StatusOr<ShardManifest> LoadShardManifest(const std::string& path,
                                          Env* env) {
  std::string content;
  KONDO_RETURN_IF_ERROR(ReadFileToString(path, &content, env));
  KONDO_RETURN_IF_ERROR(
      StripChecksumTrailer("shard manifest", path, &content));
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line)) {
    return DataLossError("empty shard manifest: " + path);
  }
  std::istringstream header(line);
  std::string magic;
  int num_shards = 0;
  uint64_t rng_seed = 0;
  size_t num_files = 0;
  int merged = 0;
  header >> magic >> num_shards >> rng_seed >> num_files >> merged;
  if (magic != "KSM1" || num_shards <= 0 || num_files == 0 ||
      (merged != 0 && merged != 1)) {
    return DataLossError("bad shard manifest header: " + path);
  }

  ShardManifest manifest;
  manifest.rng_seed = rng_seed;
  manifest.merged = merged == 1;
  manifest.shards.resize(static_cast<size_t>(num_shards));
  manifest.statuses.assign(static_cast<size_t>(num_shards),
                           ShardStatus::kPending);
  manifest.dispatch_counts.assign(static_cast<size_t>(num_shards), 0);
  for (int s = 0; s < num_shards; ++s) {
    manifest.shards[static_cast<size_t>(s)].id = s;
  }

  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'F') {
      KONDO_ASSIGN_OR_RETURN(Shape shape,
                             ParseShapeLine(line, "shard manifest"));
      manifest.file_shapes.push_back(std::move(shape));
    } else if (tag == 'H') {
      int shard = -1;
      int status = -1;
      fields >> shard >> status;
      if (shard < 0 || shard >= num_shards || (status != 0 && status != 1)) {
        return DataLossError("bad shard status line: " + line);
      }
      manifest.statuses[static_cast<size_t>(shard)] =
          static_cast<ShardStatus>(status);
    } else if (tag == 'L') {
      ShardSlice slice;
      int shard = -1;
      fields >> shard >> slice.file >> slice.begin >> slice.end;
      if (fields.fail() || shard < 0 || shard >= num_shards) {
        return DataLossError("bad slice line in shard manifest: " + line);
      }
      manifest.shards[static_cast<size_t>(shard)].slices.push_back(slice);
    } else if (tag == 'W') {
      int shard = -1;
      int dispatches = -1;
      fields >> shard >> dispatches;
      if (fields.fail() || shard < 0 || shard >= num_shards ||
          dispatches < 0) {
        return DataLossError("bad dispatch line in shard manifest: " + line);
      }
      manifest.dispatch_counts[static_cast<size_t>(shard)] = dispatches;
    } else {
      return DataLossError("unknown shard manifest line: " + line);
    }
  }
  if (manifest.file_shapes.size() != num_files) {
    return DataLossError("shard manifest file count mismatch: " + path);
  }
  return manifest;
}

Status CheckManifestMatchesPlan(const ShardManifest& manifest,
                                const ShardPlan& plan, uint64_t rng_seed) {
  if (manifest.rng_seed != rng_seed) {
    return FailedPreconditionError(
        StrCat("shard manifest was written for rng_seed ", manifest.rng_seed,
               ", this campaign uses ", rng_seed));
  }
  if (manifest.file_shapes != plan.file_shapes) {
    return FailedPreconditionError(
        "shard manifest file shapes do not match the campaign's files");
  }
  if (manifest.num_shards() != plan.num_shards()) {
    return FailedPreconditionError(
        StrCat("shard manifest has ", manifest.num_shards(),
               " shards, the plan has ", plan.num_shards()));
  }
  for (int s = 0; s < plan.num_shards(); ++s) {
    if (manifest.shards[static_cast<size_t>(s)].slices !=
        plan.shards[static_cast<size_t>(s)].slices) {
      return FailedPreconditionError(
          StrCat("shard ", s, " slices differ between manifest and plan"));
    }
  }
  return OkStatus();
}

}  // namespace kondo
