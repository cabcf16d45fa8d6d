// Fixture: the clean counterpart of r6_bad.cc — the i64 chunk count read
// from the file is bounded by the bytes its entries must occupy before it
// sizes the manifest table.
#include <cstdint>
#include <vector>

namespace kondo_fixture {

struct ByteCursor {
  bool ReadI64(int64_t* v);
  unsigned long remaining() const;
};

struct ChunkInfo {
  int64_t offset = 0;
};

constexpr int64_t kEntryBytes = 29;

bool DecodeChunkTable(ByteCursor& cur, std::vector<ChunkInfo>* chunks) {
  int64_t num_chunks = 0;
  cur.ReadI64(&num_chunks);
  if (num_chunks < 0 ||
      num_chunks > static_cast<int64_t>(cur.remaining()) / kEntryBytes) {
    return false;
  }
  chunks->resize(num_chunks);
  return true;
}

}  // namespace kondo_fixture
