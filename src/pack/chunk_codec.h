#ifndef KONDO_PACK_CHUNK_CODEC_H_
#define KONDO_PACK_CHUNK_CODEC_H_

#include <cstdint>
#include <string>

#include "array/dtype.h"
#include "common/statusor.h"
#include "pack/kdp_format.h"

namespace kondo {

/// Per-chunk codecs for the KDP payload (LEB128 varints and zigzag deltas
/// from common/byte_codec.h, CRC32 from provenance/crc32.h).
///
/// A chunk's DECODED payload is always `bitmap_bytes` membership bytes
/// (LSB-first bits over the chunk's in-bounds elements) followed by the
/// retained elements' on-disk bytes at DTypeSize(dtype) width, in
/// chunk-local row-major order. The codecs transform those bytes:
///
///  * raw          — stored verbatim.
///  * delta-varint — integer dtypes: the bitmap verbatim, then each value
///                   (read back at its integer width) as a zigzag varint
///                   delta from its predecessor. Smooth integer fields
///                   collapse to ~1 byte/element.
///  * byte-plane   — float dtypes: the bitmap verbatim, then the value
///                   bytes transposed plane-major (all byte 0s, then all
///                   byte 1s, ...) and run-length encoded as varint
///                   control tokens: low bit 1 = repeat run of
///                   (control >> 1) copies of the following byte, low bit
///                   0 = literal run of (control >> 1) verbatim bytes.
///                   Exponent planes and float128's zero pad collapse to a
///                   few bytes while mantissa entropy stays near raw-cost.

/// Number of membership-bitmap bytes for a chunk of `elements` elements.
inline int64_t KdpBitmapBytes(int64_t elements) {
  return (elements + 7) / 8;
}

/// The codec the writer attempts for `dtype` before falling back to raw.
KdpCodec PreferredKdpCodec(DType dtype);

/// Encodes `decoded` (bitmap + packed element bytes for a chunk of
/// `elements` in-bounds elements) with `codec`. Requires a coded codec
/// (not hole/raw) matching the dtype family.
std::string EncodeChunkPayload(KdpCodec codec, DType dtype, int64_t elements,
                               const std::string& decoded);

/// Decodes an encoded chunk payload back to bitmap + packed element bytes.
/// `decoded_bytes` is the manifest's expected output size. kDataLoss on
/// truncated, over-long, or structurally invalid input — corrupt chunks
/// are detected, never silently mis-decoded (the caller additionally
/// checks the manifest CRC over the decoded bytes).
StatusOr<std::string> DecodeChunkPayload(KdpCodec codec, DType dtype,
                                         int64_t elements,
                                         int64_t decoded_bytes,
                                         const std::string& encoded);

}  // namespace kondo

#endif  // KONDO_PACK_CHUNK_CODEC_H_
