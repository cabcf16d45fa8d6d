#ifndef KONDO_SERVE_KPC_CODEC_H_
#define KONDO_SERVE_KPC_CODEC_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "array/shape.h"
#include "common/byte_codec.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/strings.h"

namespace kondo {

/// The one payload codec of the KPC verbs and the fleet worker verbs
/// (docs/FORMATS.md). A message lists its fields once, in wire order:
///
///   struct HeartbeatMsg : FleetMessage<HeartbeatMsg> {
///     int shard = 0;
///     int64_t sequence = 0;
///     template <class V> void Fields(V& v) { v(shard, sequence); }
///     Status Check() const;  // Optional: rules no field type expresses.
///   };
///
/// and gets `Encode()` / `Decode(payload)` from WireMessage. Field types and
/// their wire form:
///
///   uint8_t, uint32_t     u8, u32
///   int64_t, uint64_t     i64 (uint64_t bit-cast)
///   int                   i64; a decoded value outside int is kDataLoss
///   double                f64
///   enum E                its underlying integer, validated on decode by
///                         the overload `Status DecodeEnum(raw, E*)` that
///                         is declared next to E
///   std::string           u32 length + bytes
///   Shape                 u32 rank + rank x i64 dims, then DecodeShape
///   T[N]                  N x T
///   std::vector<T>        u32 count + count x T (uint8_t: one bulk copy)
///   a struct with Fields  its fields, in order
///
/// Every count is checked against the remaining payload divided by its
/// element's minimum wire size (MinWireBytes, derived from the field list)
/// before anything is allocated, so a hostile count cannot command more
/// memory than the frame-capped payload that carried it.

template <class T>
size_t MinWireBytes();

namespace internal {

template <class T>
struct IsVector : std::false_type {};
template <class E>
struct IsVector<std::vector<E>> : std::true_type {};

template <class T>
constexpr bool kTravelsAsI64 = std::is_same_v<T, int64_t> ||
                               std::is_same_v<T, uint64_t> ||
                               std::is_same_v<T, int>;

struct MinBytesVisitor {
  size_t bytes = 0;
  template <class... F>
  void operator()(F&...) {
    bytes += (MinWireBytes<F>() + ... + 0);
  }
};

}  // namespace internal

template <class T>
concept HasWireFields =
    std::is_class_v<T> && requires(T& t, internal::MinBytesVisitor& v) {
      t.Fields(v);
    };

/// The fewest payload bytes one well-formed T occupies.
template <class T>
size_t MinWireBytes() {
  if constexpr (std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return 1;
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return 4;
  } else if constexpr (internal::kTravelsAsI64<T> ||
                       std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       internal::IsVector<T>::value) {
    return 4;
  } else if constexpr (std::is_same_v<T, Shape>) {
    return 4 + 8;  // DecodeShape accepts no rank below 1.
  } else if constexpr (std::is_array_v<T>) {
    return std::extent_v<T> * MinWireBytes<std::remove_extent_t<T>>();
  } else {
    static_assert(HasWireFields<T>, "no wire form for this field type");
    T value;
    internal::MinBytesVisitor visitor;
    value.Fields(visitor);
    return visitor.bytes;
  }
}

/// Appends the wire form of each field it visits.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

 private:
  template <class T>
  void Put(const T& x) {
    if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(x));
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      AppendU8(x, out_);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      AppendU32(x, out_);
    } else if constexpr (internal::kTravelsAsI64<T>) {
      AppendI64(static_cast<int64_t>(x), out_);
    } else if constexpr (std::is_same_v<T, double>) {
      AppendF64(x, out_);
    } else if constexpr (std::is_same_v<T, std::string>) {
      AppendString(x, out_);
    } else if constexpr (std::is_same_v<T, Shape>) {
      Put(x.dims());
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& element : x) {
        Put(element);
      }
    } else if constexpr (internal::IsVector<T>::value) {
      AppendU32(static_cast<uint32_t>(x.size()), out_);
      if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
        out_->append(x.begin(), x.end());
      } else {
        for (const auto& element : x) {
          Put(element);
        }
      }
    } else {
      // The visitor only reads: Fields is non-const so one list serves
      // both directions.
      const_cast<T&>(x).Fields(*this);
    }
  }

  std::string* out_;
};

/// Fills each field it visits from a ByteCursor. After the first error the
/// remaining fields are skipped and Finish() returns that error.
class WireReader {
 public:
  WireReader(std::string_view payload, const char* what)
      : cur_(payload, what), what_(what) {}

  template <class... F>
  void operator()(F&... fields) {
    (Get(fields), ...);
  }

  /// The first error, else kDataLoss unless every byte was consumed.
  Status Finish() const { return status_.ok() ? cur_.Done() : status_; }

 private:
  void Note(Status status) {
    if (!status.ok()) {
      status_ = std::move(status);
    }
  }

  template <class T>
  void Get(T& x) {
    if (!status_.ok()) {
      return;
    }
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      Get(raw);
      if (status_.ok()) {
        Note(DecodeEnum(raw, &x));
      }
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      Note(cur_.ReadU8(&x));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      Note(cur_.ReadU32(&x));
    } else if constexpr (internal::kTravelsAsI64<T>) {
      int64_t wide = 0;
      Note(cur_.ReadI64(&wide));
      x = static_cast<T>(wide);
      if (static_cast<int64_t>(x) != wide) {  // Only an int can narrow.
        Note(DataLossError(
            StrCat(what_, " int field value ", wide, " is out of range")));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      Note(cur_.ReadF64(&x));
    } else if constexpr (std::is_same_v<T, std::string>) {
      Note(cur_.ReadString(&x));
    } else if constexpr (std::is_same_v<T, Shape>) {
      std::vector<int64_t> dims;
      Get(dims);
      if (status_.ok()) {
        StatusOr<Shape> shape = DecodeShape(dims, what_);
        if (shape.ok()) {
          x = std::move(*shape);
        } else {
          Note(shape.status());
        }
      }
    } else if constexpr (std::is_array_v<T>) {
      for (auto& element : x) {
        Get(element);
      }
    } else if constexpr (internal::IsVector<T>::value) {
      GetList(x);
    } else {
      x.Fields(*this);
    }
  }

  template <class E>
  void GetList(std::vector<E>& list) {
    uint32_t count = 0;
    Note(cur_.ReadU32(&count));
    if (!status_.ok()) {
      return;
    }
    if (count > cur_.remaining() / MinWireBytes<E>()) {
      Note(DataLossError(StrCat(what_, " list count ", count,
                                " overruns the remaining ", cur_.remaining(),
                                " bytes")));
      return;
    }
    if constexpr (std::is_same_v<E, uint8_t>) {
      const char* bytes = nullptr;
      Note(cur_.ReadBytes(count, &bytes));
      list.assign(bytes, bytes + count);
    } else {
      list.resize(count);
      for (E& element : list) {
        Get(element);
      }
    }
  }

  ByteCursor cur_;
  const char* what_;
  Status status_;
};

template <class T>
concept HasWireCheck = requires(const T& t) {
  { t.Check() } -> std::same_as<Status>;
};

/// CRTP base giving a payload struct T its Encode/Decode from T::Fields.
/// `kWhat` names the payload in error messages. Decode runs T::Check(), when
/// T declares one, after the fields decode exactly.
template <class T, const char* kWhat>
struct WireMessage {
  std::string Encode() const {
    std::string out;
    WireWriter writer(&out);
    writer(static_cast<const T&>(*this));
    return out;
  }

  static StatusOr<T> Decode(std::string_view payload) {
    T message;
    WireReader reader(payload, kWhat);
    message.Fields(reader);
    KONDO_RETURN_IF_ERROR(reader.Finish());
    if constexpr (HasWireCheck<T>) {
      KONDO_RETURN_IF_ERROR(message.Check());
    }
    return message;
  }
};

}  // namespace kondo

#endif  // KONDO_SERVE_KPC_CODEC_H_
