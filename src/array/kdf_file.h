#ifndef KONDO_ARRAY_KDF_FILE_H_
#define KONDO_ARRAY_KDF_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/layout.h"
#include "common/env.h"
#include "common/status.h"
#include "common/statusor.h"

namespace kondo {

/// KDF — "Kondo Data Format" — is the repo's self-describing array file
/// format, standing in for HDF5/NetCDF (see DESIGN.md §2). A KDF file is:
///
///   magic "KDF1" | u8 rank | u8 dtype | u8 layout | u8 reserved
///   | i64 dims[rank] | i64 chunk_dims[rank] (chunked only) | payload
///
/// The header carries exactly the metadata Kondo's I/O audit needs to map
/// byte offsets to index tuples (Section IV-C): dimensions, layout, dtype.
struct KdfHeader {
  DType dtype = DType::kFloat128;
  LayoutKind layout_kind = LayoutKind::kRowMajor;
  Shape shape;
  std::vector<int64_t> chunk_dims;  // Empty for row-major.

  /// Header size in bytes for this configuration.
  int64_t HeaderBytes() const;

  /// Builds the layout described by this header.
  std::unique_ptr<Layout> MakeFileLayout() const;
};

/// Serialises `header` (magic through chunk_dims). The one KDF header
/// encoder: WriteKdfFile and the re-execution view of a debloated package
/// (core/debloated_file.h) both emit it.
std::string EncodeKdfHeader(const KdfHeader& header);

/// Serialises one element value at `buf` (DTypeSize(dtype) bytes).
void EncodeElement(double value, DType dtype, char* buf);

/// Deserialises one element value from `buf`.
double DecodeElement(const char* buf, DType dtype);

/// Writes `array` to `path` with the given layout. The file is committed
/// atomically (tmp + fsync + rename) through `env` (nullptr selects
/// Env::Default()), so a crash mid-write leaves the previous file in place.
Status WriteKdfFile(const std::string& path, const DataArray& array,
                    LayoutKind layout_kind = LayoutKind::kRowMajor,
                    std::vector<int64_t> chunk_dims = {}, Env* env = nullptr);

/// Random-access reader over a KDF file. All reads are positioned reads
/// through Env::NewRandomAccessFile, so they can be interposed by the audit
/// layer and by read-fault tests.
class KdfReader {
 public:
  /// Opens `path` through `env` (nullptr selects Env::Default()) and parses
  /// the header.
  static StatusOr<KdfReader> Open(const std::string& path, Env* env = nullptr);

  const KdfHeader& header() const { return header_; }
  const Layout& layout() const { return *layout_; }
  const Shape& shape() const { return header_.shape; }

  /// File offset at which the payload begins.
  int64_t payload_offset() const { return header_.HeaderBytes(); }

  /// Total file size in bytes.
  int64_t FileBytes() const;

  /// Reads the element at `index`.
  StatusOr<double> ReadElement(const Index& index) const;

  /// Reads `size` raw bytes at absolute file offset `offset` into `buf`.
  /// Returns the number of bytes read (short reads at EOF are allowed).
  StatusOr<int64_t> ReadRaw(int64_t offset, int64_t size, char* buf) const;

  /// Reads the entire array into memory.
  StatusOr<DataArray> ReadAll() const;

  /// False once the reader has been moved from.
  bool is_open() const { return file_ != nullptr; }

 private:
  KdfReader(std::unique_ptr<RandomAccessFile> file, KdfHeader header);

  std::unique_ptr<RandomAccessFile> file_;
  KdfHeader header_;
  std::unique_ptr<Layout> layout_;
};

}  // namespace kondo

#endif  // KONDO_ARRAY_KDF_FILE_H_
