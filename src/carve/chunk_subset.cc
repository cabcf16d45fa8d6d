#include "carve/chunk_subset.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace kondo {
namespace {

/// Linear chunk id of the chunk containing `index`.
int64_t ChunkIdOf(const Index& index, const ChunkedLayout& layout) {
  int64_t chunk_linear = 0;
  for (int d = 0; d < layout.shape().rank(); ++d) {
    chunk_linear = chunk_linear * layout.ChunkGridDim(d) +
                   index[d] / layout.chunk_dims()[d];
  }
  return chunk_linear;
}

}  // namespace

std::vector<int64_t> TouchedChunks(const IndexSet& subset,
                                   const ChunkedLayout& layout) {
  KONDO_CHECK(subset.shape() == layout.shape());
  std::set<int64_t> chunks;
  subset.ForEach([&chunks, &layout](const Index& index) {
    chunks.insert(ChunkIdOf(index, layout));
  });
  return std::vector<int64_t>(chunks.begin(), chunks.end());
}

IndexSet ChunkAlignedSubset(const IndexSet& subset,
                            const ChunkedLayout& layout,
                            ChunkSubsetStats* stats) {
  const Shape& shape = layout.shape();
  const int rank = shape.rank();
  const std::vector<int64_t> touched = TouchedChunks(subset, layout);

  IndexSet::Builder aligned(shape);
  for (int64_t chunk_linear : touched) {
    // Decode the chunk coordinate (row-major over the grid).
    Index chunk_coord(rank);
    int64_t rest = chunk_linear;
    for (int d = rank - 1; d >= 0; --d) {
      chunk_coord[d] = rest % layout.ChunkGridDim(d);
      rest /= layout.ChunkGridDim(d);
    }
    // Insert every in-bounds element of the chunk.
    std::vector<int64_t> lo(static_cast<size_t>(rank));
    std::vector<int64_t> hi(static_cast<size_t>(rank));
    for (int d = 0; d < rank; ++d) {
      lo[static_cast<size_t>(d)] = chunk_coord[d] * layout.chunk_dims()[d];
      hi[static_cast<size_t>(d)] =
          std::min(lo[static_cast<size_t>(d)] + layout.chunk_dims()[d],
                   shape.dim(d));
    }
    Index index(rank);
    std::vector<int64_t> cur = lo;
    while (true) {
      for (int d = 0; d < rank; ++d) {
        index[d] = cur[static_cast<size_t>(d)];
      }
      aligned.Insert(index);
      int d = rank - 1;
      while (d >= 0 &&
             ++cur[static_cast<size_t>(d)] >= hi[static_cast<size_t>(d)]) {
        cur[static_cast<size_t>(d)] = lo[static_cast<size_t>(d)];
        --d;
      }
      if (d < 0) {
        break;
      }
    }
  }

  IndexSet result = aligned.Build();
  if (stats != nullptr) {
    int64_t total_chunks = 1;
    for (int d = 0; d < rank; ++d) {
      total_chunks *= layout.ChunkGridDim(d);
    }
    stats->total_chunks = total_chunks;
    stats->retained_chunks = static_cast<int64_t>(touched.size());
    stats->subset_elements = static_cast<int64_t>(subset.size());
    stats->chunk_aligned_elements = static_cast<int64_t>(result.size());
  }
  return result;
}

int64_t ChunkSubsetPayloadBytes(int64_t retained_chunks,
                                const ChunkedLayout& layout) {
  int64_t chunk_elements = 1;
  for (int64_t c : layout.chunk_dims()) {
    chunk_elements *= c;
  }
  return retained_chunks * (chunk_elements * layout.element_size() + 8);
}

}  // namespace kondo
