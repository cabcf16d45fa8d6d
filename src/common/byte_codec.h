#ifndef KONDO_COMMON_BYTE_CODEC_H_
#define KONDO_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace kondo {

/// The one integer encoding of every binary format (KDF, KDP, KEL2, KPC and
/// fleet payloads; docs/FORMATS.md): fixed-width integers are little-endian
/// whatever the host order, strings are u32 length-prefixed bytes, and
/// varints are unsigned LEB128 (1..10 bytes), signed ones zigzag-mapped
/// first. Array element values keep their own host-order codec
/// (EncodeElement in array/kdf_file.h).

namespace internal {

template <size_t kBytes>
void AppendLittleEndian(uint64_t value, std::string* out) {
  char buf[kBytes];
  for (size_t i = 0; i < kBytes; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out->append(buf, kBytes);
}

}  // namespace internal

// The writers are inline: the KEL2 and chunk encoders call them per value.
inline void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(uint32_t v, std::string* out) {
  internal::AppendLittleEndian<4>(v, out);
}

inline void AppendI64(int64_t v, std::string* out) {
  internal::AppendLittleEndian<8>(static_cast<uint64_t>(v), out);
}

inline void AppendF64(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  internal::AppendLittleEndian<8>(bits, out);
}

inline void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendString(std::string_view v, std::string* out);

/// Maps a signed value onto the unsigned varint space so that small
/// magnitudes of either sign stay short: 0,-1,1,-2,... -> 0,1,2,3,...
inline uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

inline int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

inline void AppendSignedVarint(int64_t v, std::string* out) {
  AppendVarint(ZigzagEncode(v), out);
}

/// Sequential decoder over untrusted bytes. Every read checks bounds and
/// fails with kDataLoss on underrun or an over-long varint, consuming
/// nothing; Done() verifies the input was consumed exactly. The success
/// path is inline: columnar decoders call it once per value. `what` names
/// the input in error messages ("KPC payload", "KEL2 block payload").
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view data, const char* what = "input")
      : data_(data), what_(what) {}

  /// Points `*p` at the next `n` bytes and consumes them.
  Status ReadBytes(size_t n, const char** p) {
    if (n > remaining()) {
      return Underrun(n);
    }
    *p = data_.data() + pos_;
    pos_ += n;
    return Status();
  }

  Status ReadU8(uint8_t* v) { return ReadLittleEndian(v); }
  Status ReadU32(uint32_t* v) { return ReadLittleEndian(v); }
  Status ReadI64(int64_t* v) { return ReadLittleEndian(v); }
  Status ReadF64(double* v) { return ReadLittleEndian(v); }

  /// A u32 length-prefixed string.
  Status ReadString(std::string* v);

  Status ReadVarint(uint64_t* v) {
    uint64_t result = 0;
    for (size_t i = pos_, shift = 0; i < data_.size(); ++i, shift += 7) {
      const uint8_t byte = static_cast<uint8_t>(data_[i]);
      if (shift == 63 && byte > 1) {
        break;  // Bits past bit 63, or an 11th byte.
      }
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        pos_ = i + 1;
        return Status();
      }
    }
    return BadVarint();
  }

  Status ReadSignedVarint(int64_t* v) {
    uint64_t raw = 0;
    KONDO_RETURN_IF_ERROR(ReadVarint(&raw));
    *v = ZigzagDecode(raw);
    return Status();
  }

  size_t remaining() const { return data_.size() - pos_; }

  /// kDataLoss unless every byte was consumed.
  Status Done() const;

 private:
  template <typename T>
  Status ReadLittleEndian(T* v) {
    static_assert(!std::is_floating_point_v<T> || sizeof(T) == 8);
    const char* p = nullptr;
    KONDO_RETURN_IF_ERROR(ReadBytes(sizeof(T), &p));
    uint64_t bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    if constexpr (std::is_floating_point_v<T>) {
      std::memcpy(v, &bits, sizeof(T));
    } else {
      *v = static_cast<T>(bits);
    }
    return Status();
  }

  Status Underrun(size_t n) const;
  Status BadVarint() const;

  std::string_view data_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace kondo

#endif  // KONDO_COMMON_BYTE_CODEC_H_
