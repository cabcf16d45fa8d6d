#include "fuzz/campaign_state.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace kondo {

Status SaveCampaignState(const std::string& path, const CampaignState& state,
                         Env* env) {
  // Header: KCS1 <rank> <dim...>
  std::string body = StrCat("KCS1 ", state.shape.rank());
  for (int d = 0; d < state.shape.rank(); ++d) {
    body += StrCat(" ", state.shape.dim(d));
  }
  body += "\n";
  // Seeds: S <useful> <v...> with full double precision.
  for (const Seed& seed : state.seeds) {
    body += seed.useful ? "S 1" : "S 0";
    for (double v : seed.value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.17g", v);
      body += buf;
    }
    body += "\n";
  }
  // Discovered ids: I <linear>, sorted for reproducible files.
  for (int64_t id : state.discovered.ToSortedLinearIds()) {
    body += StrCat("I ", id, "\n");
  }
  StatusOr<AtomicFile> file = AtomicFile::Create(path, env);
  if (!file.ok()) {
    return Status(file.status().code(),
                  StrCat("cannot open campaign state for write: ", path, ": ",
                         file.status().message()));
  }
  KONDO_RETURN_IF_ERROR(file->Append(body));
  return file->Commit();
}

StatusOr<CampaignState> LoadCampaignState(const std::string& path,
                                          Env* env) {
  std::string content;
  KONDO_RETURN_IF_ERROR(ReadFileToString(path, &content, env));
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line)) {
    return DataLossError("empty campaign state: " + path);
  }
  std::istringstream header(line);
  std::string magic;
  int rank = 0;
  header >> magic >> rank;
  std::vector<int64_t> dims;
  for (int64_t dim = 0;
       static_cast<int>(dims.size()) < rank && header >> dim;) {
    dims.push_back(dim);
  }
  if (magic != "KCS1" || static_cast<int>(dims.size()) != rank) {
    return DataLossError("bad campaign state header: " + path);
  }

  CampaignState state;
  KONDO_ASSIGN_OR_RETURN(state.shape,
                         DecodeShape(dims, "campaign state dims " + path));
  // `I` lines go through a builder: a shuffled or hostile file must not hit
  // IndexSet's out-of-order insert path once per line.
  IndexSet::Builder discovered(state.shape);
  const int64_t num_elements = state.shape.NumElements();
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'S') {
      int useful = 0;
      fields >> useful;
      Seed seed;
      seed.useful = useful != 0;
      double v = 0.0;
      while (fields >> v) {
        seed.value.push_back(v);
      }
      state.seeds.push_back(std::move(seed));
    } else if (tag == 'I') {
      int64_t id = -1;
      if (!(fields >> id) || id < 0 || id >= num_elements) {
        return DataLossError("bad discovered id in campaign state: " + line);
      }
      discovered.InsertLinear(id);
    } else {
      return DataLossError("unknown campaign state line: " + line);
    }
  }
  state.discovered = discovered.Build();
  return state;
}

CampaignState MakeCampaignState(const Shape& shape,
                                const FuzzResult& result) {
  CampaignState state;
  state.shape = shape;
  state.seeds = result.seeds;
  state.discovered = result.discovered;
  return state;
}

void MergeCampaignState(CampaignState* base, const CampaignState& extra) {
  KONDO_CHECK(base->shape == extra.shape);
  base->seeds.insert(base->seeds.end(), extra.seeds.begin(),
                     extra.seeds.end());
  base->discovered.Union(extra.discovered);
}

}  // namespace kondo
