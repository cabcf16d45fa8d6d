// Fixture: R6 violation in a file decoder — a KDP trailer's i64 chunk
// count sizing the manifest table before any bounds comparison. A hostile
// count commands an allocation far larger than the file that carried it.
// lint_test.cc asserts the sink line and the witness text naming the
// tainting read; append only.
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

bool DecodeChunkTable(ByteCursor& cur, std::vector<ChunkInfo>* chunks) {
  int64_t num_chunks = 0;
  cur.ReadI64(&num_chunks);
  chunks->resize(num_chunks);  // line 23: unchecked i64 file count
  return true;
}

}  // namespace kondo_fixture
