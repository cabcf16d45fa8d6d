#include "workloads/multi_file_program.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace kondo {

MultiIndexSets MultiFileProgram::AccessSets(const ParamValue& v) const {
  std::vector<IndexSet::Builder> builders;
  builders.reserve(static_cast<size_t>(num_files()));
  for (int f = 0; f < num_files(); ++f) {
    builders.emplace_back(file_shape(f));
  }
  Execute(v, [&builders](int file, const Index& index) {
    builders[static_cast<size_t>(file)].Insert(index);
  });
  MultiIndexSets sets;
  sets.reserve(builders.size());
  for (IndexSet::Builder& builder : builders) {
    sets.push_back(builder.Build());
  }
  return sets;
}

MultiIndexSets MultiFileProgram::GroundTruths(
    double max_enumerated_valuations) const {
  const ParamSpace& space = param_space();
  const double valuations = space.NumValuations();
  KONDO_CHECK(std::isfinite(valuations) &&
              valuations <= max_enumerated_valuations)
      << "Θ too large to enumerate for " << name();

  MultiIndexSets truths;
  truths.reserve(static_cast<size_t>(num_files()));
  for (int f = 0; f < num_files(); ++f) {
    truths.emplace_back(file_shape(f));
  }

  const int m = space.num_params();
  std::vector<int64_t> lo(static_cast<size_t>(m)), hi(static_cast<size_t>(m)),
      cur(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    lo[static_cast<size_t>(i)] =
        static_cast<int64_t>(std::ceil(space.range(i).lo));
    hi[static_cast<size_t>(i)] =
        static_cast<int64_t>(std::floor(space.range(i).hi));
    cur[static_cast<size_t>(i)] = lo[static_cast<size_t>(i)];
  }
  ParamValue v(static_cast<size_t>(m));
  while (true) {
    for (int i = 0; i < m; ++i) {
      v[static_cast<size_t>(i)] =
          static_cast<double>(cur[static_cast<size_t>(i)]);
    }
    const MultiIndexSets sets = AccessSets(v);
    for (size_t f = 0; f < sets.size(); ++f) {
      truths[f].Union(sets[f]);
    }
    int d = m - 1;
    while (d >= 0 &&
           ++cur[static_cast<size_t>(d)] > hi[static_cast<size_t>(d)]) {
      cur[static_cast<size_t>(d)] = lo[static_cast<size_t>(d)];
      --d;
    }
    if (d < 0) {
      break;
    }
  }
  return truths;
}

StormTrackProgram::StormTrackProgram(int64_t n, int64_t levels)
    : n_(n),
      levels_(levels),
      space_({ParamRange{0, static_cast<double>(n - 1), true},
              ParamRange{0, static_cast<double>(n - 1), true}}),
      terrain_shape_({n, n}),
      atmosphere_shape_({n / 2, n / 2, levels}) {}

void StormTrackProgram::Execute(const ParamValue& v,
                                const MultiReadFn& read) const {
  const int64_t x0 = static_cast<int64_t>(std::llround(v[0]));
  const int64_t y0 = static_cast<int64_t>(std::llround(v[1]));
  if (x0 < 0 || y0 < 0 || x0 > n_ - 1 || y0 > n_ - 1 || x0 > y0) {
    return;  // Unsupported entry point (cf. Listing 1's guard).
  }
  int64_t x = x0;
  int64_t y = y0;
  int64_t step = 0;
  while (x < n_ && y < n_) {
    // Terrain under the track cell (file 0: the 2-D grid).
    read(0, Index{x, y});
    // Every other step, the full pressure column of the coarser
    // atmosphere mesh above the track (file 1: the 3-D mesh).
    if (step % 2 == 0) {
      const Index base{x / 2, y / 2};
      if (base[0] < atmosphere_shape_.dim(0) &&
          base[1] < atmosphere_shape_.dim(1)) {
        for (int64_t level = 0; level < levels_; ++level) {
          read(1, Index{base[0], base[1], level});
        }
      }
    }
    ++x;
    ++y;
    ++step;
  }
}

ClimateRegionProgram::ClimateRegionProgram(int64_t n, int64_t levels)
    : n_(n),
      levels_(levels),
      space_({ParamRange{0, static_cast<double>(n - 1), true},
              ParamRange{0, static_cast<double>(n - 1), true}}),
      sst_shape_({n, n}),
      wind_shape_({n / 2, n / 2, levels}),
      precip_shape_({n, n}),
      coast_shape_({n}) {}

std::string_view ClimateRegionProgram::file_name(int file) const {
  switch (file) {
    case 0:
      return "sst";
    case 1:
      return "wind";
    case 2:
      return "precip";
    default:
      return "coast";
  }
}

const Shape& ClimateRegionProgram::file_shape(int file) const {
  switch (file) {
    case 0:
      return sst_shape_;
    case 1:
      return wind_shape_;
    case 2:
      return precip_shape_;
    default:
      return coast_shape_;
  }
}

void ClimateRegionProgram::Execute(const ParamValue& v,
                                   const MultiReadFn& read) const {
  const int64_t lat0 = static_cast<int64_t>(std::llround(v[0]));
  const int64_t lon0 = static_cast<int64_t>(std::llround(v[1]));
  if (lat0 < 0 || lon0 < 0 || lat0 > n_ - 1 || lon0 > n_ - 1 || lat0 > lon0) {
    return;  // Unsupported anchor (cf. Listing 1's guard).
  }
  const int64_t block = std::min<int64_t>(8, n_);
  const int64_t lat_end = std::min(n_, lat0 + block);
  const int64_t lon_end = std::min(n_, lon0 + block);

  for (int64_t lat = lat0; lat < lat_end; ++lat) {
    for (int64_t lon = lon0; lon < lon_end; ++lon) {
      // SST under every study cell (file 0: the 2-D grid).
      read(0, Index{lat, lon});
      // Wind column above every other cell on the coarser mesh (file 1).
      if ((lat + lon) % 2 == 0) {
        const Index base{lat / 2, lon / 2};
        if (base[0] < wind_shape_.dim(0) && base[1] < wind_shape_.dim(1)) {
          for (int64_t level = 0; level < levels_; ++level) {
            read(1, Index{base[0], base[1], level});
          }
        }
      }
    }
  }

  // Precipitation along the block diagonal (file 2: the 2-D grid).
  for (int64_t step = 0; lat0 + step < lat_end && lon0 + step < lon_end;
       ++step) {
    read(2, Index{lat0 + step, lon0 + step});
  }

  // Coastline segment at the anchor longitude (file 3: the 1-D profile).
  const int64_t coast_end = std::min(n_, lon0 + 2 * block);
  for (int64_t lon = lon0; lon < coast_end; ++lon) {
    read(3, Index{lon});
  }
}

SingleFileProgramAdapter::SingleFileProgramAdapter(
    std::unique_ptr<Program> program)
    : program_(std::move(program)) {
  KONDO_CHECK(program_ != nullptr) << "adapter requires a program";
}

void SingleFileProgramAdapter::Execute(const ParamValue& v,
                                       const MultiReadFn& read) const {
  program_->Execute(v, [&read](const Index& index) { read(0, index); });
}

}  // namespace kondo
