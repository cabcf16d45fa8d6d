#include "pack/chunk_codec.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/status.h"

namespace kondo {
namespace {

/// Reads the retained value at packed position `i` of the decoded payload
/// back at its integer width (sign-extended to i64).
int64_t IntValueAt(const std::string& decoded, int64_t bitmap_bytes,
                   int64_t elem_size, int64_t i) {
  const char* buf = decoded.data() + bitmap_bytes + i * elem_size;
  if (elem_size == 4) {
    int32_t v = 0;
    std::memcpy(&v, buf, 4);
    return v;
  }
  int64_t v = 0;
  std::memcpy(&v, buf, 8);
  return v;
}

}  // namespace

KdpCodec PreferredKdpCodec(DType dtype) {
  switch (dtype) {
    case DType::kInt32:
    case DType::kInt64:
      return KdpCodec::kDeltaVarint;
    case DType::kFloat32:
    case DType::kFloat64:
    case DType::kFloat128:
      return KdpCodec::kBytePlane;
  }
  return KdpCodec::kRaw;
}

std::string EncodeChunkPayload(KdpCodec codec, DType dtype, int64_t elements,
                               const std::string& decoded) {
  const int64_t bitmap_bytes = KdpBitmapBytes(elements);
  const int64_t elem_size = DTypeSize(dtype);
  const int64_t values =
      (static_cast<int64_t>(decoded.size()) - bitmap_bytes) / elem_size;
  std::string out;
  out.append(decoded.data(), static_cast<size_t>(bitmap_bytes));

  if (codec == KdpCodec::kDeltaVarint) {
    // Differences wrap mod 2^64 (uint64_t, never signed overflow); the
    // decoder's wrapping sum undoes them exactly.
    uint64_t previous = 0;
    for (int64_t i = 0; i < values; ++i) {
      const uint64_t value = static_cast<uint64_t>(
          IntValueAt(decoded, bitmap_bytes, elem_size, i));
      AppendSignedVarint(static_cast<int64_t>(value - previous), &out);
      previous = value;
    }
    return out;
  }

  // Byte-plane RLE: emit plane p of every value, then plane p+1, ...  The
  // plane stream is tokenised as varint controls: low bit 1 = repeat run of
  // (control >> 1) copies of the following byte, low bit 0 = literal run of
  // (control >> 1) verbatim bytes. Long runs (zero pads, shared exponents)
  // collapse to ~3 bytes regardless of length, while entropy planes
  // (mantissas) pay only ~1 byte of framing per literal run instead of
  // doubling under a pairs-only encoding.
  const char* value_base = decoded.data() + bitmap_bytes;
  const int64_t plane_bytes = values * elem_size;
  std::string planes;
  planes.reserve(static_cast<size_t>(plane_bytes));
  for (int64_t plane = 0; plane < elem_size; ++plane) {
    for (int64_t i = 0; i < values; ++i) {
      planes.push_back(value_base[i * elem_size + plane]);
    }
  }
  std::string literal;
  const auto flush_literal = [&out, &literal] {
    if (literal.empty()) {
      return;
    }
    AppendVarint(static_cast<uint64_t>(literal.size()) << 1, &out);
    out += literal;
    literal.clear();
  };
  int64_t pos = 0;
  while (pos < plane_bytes) {
    int64_t run = 1;
    while (pos + run < plane_bytes && planes[static_cast<size_t>(pos + run)] ==
                                          planes[static_cast<size_t>(pos)]) {
      ++run;
    }
    if (run >= 4) {  // A repeat token costs 2-3 bytes; shorter runs go
                     // literal.
      flush_literal();
      AppendVarint((static_cast<uint64_t>(run) << 1) | 1, &out);
      out.push_back(planes[static_cast<size_t>(pos)]);
    } else {
      literal.append(planes, static_cast<size_t>(pos),
                     static_cast<size_t>(run));
    }
    pos += run;
  }
  flush_literal();
  return out;
}

StatusOr<std::string> DecodeChunkPayload(KdpCodec codec, DType dtype,
                                         int64_t elements,
                                         int64_t decoded_bytes,
                                         const std::string& encoded) {
  const int64_t bitmap_bytes = KdpBitmapBytes(elements);
  const int64_t elem_size = DTypeSize(dtype);
  if (decoded_bytes < bitmap_bytes ||
      (decoded_bytes - bitmap_bytes) % elem_size != 0) {
    return DataLossError("KDP chunk: decoded size inconsistent with the "
                         "chunk geometry");
  }
  const int64_t values = (decoded_bytes - bitmap_bytes) / elem_size;

  if (codec == KdpCodec::kRaw) {
    if (static_cast<int64_t>(encoded.size()) != decoded_bytes) {
      return DataLossError("KDP chunk: raw payload size mismatch");
    }
    return encoded;
  }
  ByteCursor reader(encoded, "KDP chunk");
  const char* bitmap = nullptr;
  KONDO_RETURN_IF_ERROR(
      reader.ReadBytes(static_cast<size_t>(bitmap_bytes), &bitmap));
  std::string out;
  out.reserve(static_cast<size_t>(decoded_bytes));
  out.append(bitmap, static_cast<size_t>(bitmap_bytes));

  if (codec == KdpCodec::kDeltaVarint) {
    uint64_t previous = 0;
    char buf[8];
    for (int64_t i = 0; i < values; ++i) {
      int64_t delta = 0;
      KONDO_RETURN_IF_ERROR(reader.ReadSignedVarint(&delta));
      previous += static_cast<uint64_t>(delta);
      if (elem_size == 4) {
        const int32_t v = static_cast<int32_t>(previous);
        std::memcpy(buf, &v, 4);
        out.append(buf, 4);
      } else {
        std::memcpy(buf, &previous, 8);
        out.append(buf, 8);
      }
    }
    KONDO_RETURN_IF_ERROR(reader.Done());
    return out;
  }

  if (codec != KdpCodec::kBytePlane) {
    return DataLossError("KDP chunk: codec does not match any decoder");
  }
  // Reconstruct the plane-major byte sequence, then transpose back.
  const int64_t plane_bytes = values * elem_size;
  std::string planes;
  planes.reserve(static_cast<size_t>(plane_bytes));
  while (static_cast<int64_t>(planes.size()) < plane_bytes) {
    uint64_t control = 0;
    KONDO_RETURN_IF_ERROR(reader.ReadVarint(&control));
    const uint64_t count = control >> 1;
    if (count == 0 ||
        count > static_cast<uint64_t>(plane_bytes) - planes.size()) {
      return DataLossError("KDP chunk: invalid byte-plane run");
    }
    const char* run = nullptr;
    if ((control & 1) != 0) {  // Repeat run: one byte, `count` copies.
      KONDO_RETURN_IF_ERROR(reader.ReadBytes(1, &run));
      planes.append(static_cast<size_t>(count), *run);
    } else {  // Literal run: `count` verbatim bytes.
      KONDO_RETURN_IF_ERROR(reader.ReadBytes(static_cast<size_t>(count), &run));
      planes.append(run, static_cast<size_t>(count));
    }
  }
  KONDO_RETURN_IF_ERROR(reader.Done());
  out.resize(static_cast<size_t>(decoded_bytes));
  char* value_base = out.data() + bitmap_bytes;
  for (int64_t plane = 0; plane < elem_size; ++plane) {
    for (int64_t i = 0; i < values; ++i) {
      value_base[i * elem_size + plane] = planes[static_cast<size_t>(
          plane * values + i)];
    }
  }
  return out;
}

}  // namespace kondo
