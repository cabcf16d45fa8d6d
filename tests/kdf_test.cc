#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "common/byte_codec.h"
#include "common/env.h"
#include "common/rng.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes a KDF header with arbitrary (possibly hostile) fields, then
/// zero bytes up to `file_bytes`, and returns the status of opening it.
Status OpenCraftedKdf(const std::string& name, uint8_t layout,
                      const std::vector<int64_t>& dims,
                      const std::vector<int64_t>& chunk_dims,
                      size_t file_bytes) {
  std::string bytes = "KDF1";
  AppendU8(static_cast<uint8_t>(dims.size()), &bytes);
  AppendU8(static_cast<uint8_t>(DType::kFloat64), &bytes);
  AppendU8(layout, &bytes);
  AppendU8(0, &bytes);
  for (int64_t dim : dims) {
    AppendI64(dim, &bytes);
  }
  for (int64_t chunk : chunk_dims) {
    AppendI64(chunk, &bytes);
  }
  bytes.resize(std::max(bytes.size(), file_bytes), '\0');
  const std::string path = TempPath(name);
  std::ofstream(path, std::ios::binary) << bytes;
  return KdfReader::Open(path).status();
}

// ------------------------------------------------------- element codecs --

TEST(ElementCodecTest, RoundTripsAllDTypes) {
  char buf[16];
  for (DType dtype : {DType::kInt32, DType::kInt64, DType::kFloat32,
                      DType::kFloat64, DType::kFloat128}) {
    EncodeElement(42.0, dtype, buf);
    EXPECT_DOUBLE_EQ(DecodeElement(buf, dtype), 42.0)
        << DTypeName(dtype);
  }
}

TEST(ElementCodecTest, Float64PrecisionPreserved) {
  char buf[16];
  EncodeElement(0.12345678901234567, DType::kFloat64, buf);
  EXPECT_DOUBLE_EQ(DecodeElement(buf, DType::kFloat64), 0.12345678901234567);
  EncodeElement(0.12345678901234567, DType::kFloat128, buf);
  EXPECT_DOUBLE_EQ(DecodeElement(buf, DType::kFloat128),
                   0.12345678901234567);
}

TEST(ElementCodecTest, IntegerTruncation) {
  char buf[16];
  EncodeElement(3.9, DType::kInt32, buf);
  EXPECT_DOUBLE_EQ(DecodeElement(buf, DType::kInt32), 3.0);
}

TEST(ElementCodecTest, DoubleWidthSpecialValuesRoundTripExactly) {
  // float64 and float128 store the full double bit pattern, so every
  // special value — infinities, signed zero, denormals, extremes — must
  // come back bit-exact, sign bit included.
  char buf[16];
  const double specials[] = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
  };
  for (DType dtype : {DType::kFloat64, DType::kFloat128}) {
    for (double value : specials) {
      EncodeElement(value, dtype, buf);
      const double back = DecodeElement(buf, dtype);
      EXPECT_EQ(back, value) << DTypeName(dtype) << " " << value;
      EXPECT_EQ(std::signbit(back), std::signbit(value))
          << DTypeName(dtype) << " " << value;
    }
    EncodeElement(std::nan(""), dtype, buf);
    EXPECT_TRUE(std::isnan(DecodeElement(buf, dtype))) << DTypeName(dtype);
  }
}

TEST(ElementCodecTest, Float32SpecialValuesRoundTripAtFloatWidth) {
  char buf[16];
  const float specials[] = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),  // ~1.4e-45, denormal.
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
  };
  for (float value : specials) {
    EncodeElement(static_cast<double>(value), DType::kFloat32, buf);
    const double back = DecodeElement(buf, DType::kFloat32);
    EXPECT_EQ(back, static_cast<double>(value)) << value;
    EXPECT_EQ(std::signbit(back), std::signbit(static_cast<double>(value)))
        << value;
  }
  EncodeElement(std::nan(""), DType::kFloat32, buf);
  EXPECT_TRUE(std::isnan(DecodeElement(buf, DType::kFloat32)));
  // A double denormal below float range rounds to (positive) zero at the
  // 4-byte width rather than producing garbage.
  EncodeElement(std::numeric_limits<double>::denorm_min(), DType::kFloat32,
                buf);
  EXPECT_EQ(DecodeElement(buf, DType::kFloat32), 0.0);
}

TEST(ElementCodecTest, IntegerExtremesRoundTrip) {
  char buf[16];
  const double int32_extremes[] = {2147483647.0, -2147483648.0, -1.0, 0.0};
  for (double value : int32_extremes) {
    EncodeElement(value, DType::kInt32, buf);
    EXPECT_EQ(DecodeElement(buf, DType::kInt32), value) << value;
  }
  // +/- 2^53: the widest integers a double carries exactly.
  const double int64_extremes[] = {9007199254740992.0, -9007199254740992.0,
                                   -1.0, 0.0};
  for (double value : int64_extremes) {
    EncodeElement(value, DType::kInt64, buf);
    EXPECT_EQ(DecodeElement(buf, DType::kInt64), value) << value;
  }
  // Negative truncation is toward zero, matching static_cast.
  EncodeElement(-3.9, DType::kInt64, buf);
  EXPECT_EQ(DecodeElement(buf, DType::kInt64), -3.0);
}

// ------------------------------------------------------------- KDF files --

using KdfParam = std::tuple<DType, LayoutKind>;

class KdfRoundTripTest : public ::testing::TestWithParam<KdfParam> {
 protected:
  /// Per-instance temp path: ctest runs each parameterized instance as its
  /// own test process, so a shared name would race under `ctest -j`.
  std::string ParamPath(const std::string& stem) const {
    const auto& [dtype, layout_kind] = GetParam();
    return TempPath(stem + "_" + std::string(DTypeName(dtype)) + "_" +
                    std::to_string(static_cast<int>(layout_kind)) + ".kdf");
  }
};

TEST_P(KdfRoundTripTest, WriteReadAllRoundTrips) {
  const auto& [dtype, layout_kind] = GetParam();
  DataArray array(Shape{6, 7}, dtype);
  array.FillWith([](const Index& index) {
    return static_cast<double>(index[0] * 100 + index[1]);
  });
  const std::string path = ParamPath("roundtrip");
  ASSERT_TRUE(WriteKdfFile(path, array, layout_kind, {3, 4}).ok());

  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->shape(), array.shape());
  EXPECT_EQ(reader->header().dtype, dtype);
  EXPECT_EQ(reader->header().layout_kind, layout_kind);

  StatusOr<DataArray> back = reader->ReadAll();
  ASSERT_TRUE(back.ok());
  array.shape().ForEachIndex([&](const Index& index) {
    EXPECT_DOUBLE_EQ(back->At(index), array.At(index)) << index;
  });
}

TEST_P(KdfRoundTripTest, ReadElementMatchesArray) {
  const auto& [dtype, layout_kind] = GetParam();
  DataArray array(Shape{5, 5}, dtype);
  array.FillWith([](const Index& index) {
    return static_cast<double>(index[0] + 10 * index[1]);
  });
  const std::string path = ParamPath("element");
  ASSERT_TRUE(WriteKdfFile(path, array, layout_kind, {2, 2}).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  array.shape().ForEachIndex([&](const Index& index) {
    StatusOr<double> value = reader->ReadElement(index);
    ASSERT_TRUE(value.ok());
    EXPECT_DOUBLE_EQ(*value, array.At(index)) << index;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KdfRoundTripTest,
    ::testing::Combine(::testing::Values(DType::kInt32, DType::kFloat64,
                                         DType::kFloat128),
                       ::testing::Values(LayoutKind::kRowMajor,
                                         LayoutKind::kChunked)));

TEST(KdfFileTest, ThreeDimensionalRoundTrip) {
  DataArray array(Shape{3, 4, 5}, DType::kFloat64);
  array.FillPattern(17);
  const std::string path = TempPath("threedee.kdf");
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  StatusOr<double> value = reader->ReadElement(Index{2, 3, 4});
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, array.At(Index{2, 3, 4}));
}

TEST(KdfFileTest, OpenMissingFileFails) {
  StatusOr<KdfReader> reader = KdfReader::Open(TempPath("nope.kdf"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(KdfFileTest, RejectsBadMagic) {
  const std::string path = TempPath("bad.kdf");
  std::ofstream(path) << "not a kdf file at all";
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(KdfFileTest, RejectsTruncatedHeader) {
  const std::string path = TempPath("trunc.kdf");
  std::ofstream(path) << "KDF1";
  EXPECT_FALSE(KdfReader::Open(path).ok());
}

TEST(KdfFileTest, RejectsHeaderShapesOutsideTheShapeBounds) {
  const int64_t big = int64_t{1} << 31;
  const std::vector<std::vector<int64_t>> bad_shapes = {
      {},               // Rank zero.
      {1, 1, 1, 1, 1},  // Rank above kMaxRank.
      {4, 0},           // Non-positive dim.
      {big, big, big},  // 2^93 elements: NumElements would wrap.
  };
  for (const std::vector<int64_t>& dims : bad_shapes) {
    SCOPED_TRACE(dims.size());
    EXPECT_EQ(OpenCraftedKdf("bad_shape.kdf", 0, dims, {}, 64).code(),
              StatusCode::kDataLoss);
  }
}

TEST(KdfFileTest, RejectsPayloadLargerThanTheFile) {
  // An 80-byte file whose header declares 8.8 TB of float64 payload.
  const Status status =
      OpenCraftedKdf("huge.kdf", 0, {10000, 10000, 11000}, {}, 80);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("exceed the 80-byte file"),
            std::string::npos)
      << status;
  // One byte short of a complete payload is refused as well.
  EXPECT_EQ(OpenCraftedKdf("short.kdf", 0, {2, 2}, {}, 24 + 31).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(OpenCraftedKdf("exact.kdf", 0, {2, 2}, {}, 24 + 32).ok());
}

TEST(KdfFileTest, RejectsChunkDimsWhosePaddedExtentOverflows) {
  const int64_t big = int64_t{1} << 62;
  EXPECT_EQ(OpenCraftedKdf("chunk_pad.kdf", 1, {big + 1}, {big}, 64).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(OpenCraftedKdf("chunk_zero.kdf", 1, {4}, {0}, 64).code(),
            StatusCode::kDataLoss);
  // A chunk wider than the array pads it: 1 element stored as 3.
  EXPECT_TRUE(OpenCraftedKdf("chunk_wide.kdf", 1, {1}, {3}, 24 + 24).ok());
  EXPECT_EQ(OpenCraftedKdf("chunk_wide_short.kdf", 1, {1}, {3}, 24 + 23)
                .code(),
            StatusCode::kDataLoss);
}

TEST(KdfFileTest, ReadElementOutOfBounds) {
  DataArray array(Shape{2, 2}, DType::kFloat64);
  const std::string path = TempPath("oob.kdf");
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadElement(Index{2, 0}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(KdfFileTest, FileBytesMatchesHeaderPlusPayload) {
  DataArray array(Shape{4, 4}, DType::kFloat128);
  const std::string path = TempPath("size.kdf");
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  // Header: 8 fixed + 2*8 dims; payload 16 elements * 16 bytes.
  EXPECT_EQ(reader->payload_offset(), 24);
  EXPECT_EQ(reader->FileBytes(), 24 + 256);
}

TEST(KdfFileTest, ReadRawShortReadAtEof) {
  DataArray array(Shape{2, 2}, DType::kFloat64);
  const std::string path = TempPath("raw.kdf");
  ASSERT_TRUE(WriteKdfFile(path, array).ok());
  StatusOr<KdfReader> reader = KdfReader::Open(path);
  ASSERT_TRUE(reader.ok());
  char buf[64];
  StatusOr<int64_t> n = reader->ReadRaw(reader->FileBytes() - 8, 64, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8);
}

/// The bytes of `path` (empty, with a test failure, when unreadable).
std::string FileContents(const std::string& path) {
  std::string bytes;
  const Status read = ReadFileToString(path, &bytes);
  EXPECT_TRUE(read.ok()) << read;
  return bytes;
}

// `kondo make-data` over an existing KDF rewrites it: a crash at any point
// of the write must leave the old file or the new one, and either opens.
TEST(KdfCrashSweepTest, InterruptedRewriteKeepsTheOldOrNewFile) {
  DataArray before(Shape{6, 5}, DType::kFloat64);
  before.FillPattern(1);
  DataArray after(Shape{6, 5}, DType::kFloat64);
  after.FillPattern(2);

  const std::string scratch = TempPath("crash_count.kdf");
  ASSERT_TRUE(WriteKdfFile(scratch, after).ok());
  const std::string new_bytes = FileContents(scratch);
  ASSERT_TRUE(WriteKdfFile(scratch, before).ok());
  const std::string old_bytes = FileContents(scratch);
  ASSERT_NE(old_bytes, new_bytes);
  FaultInjectingEnv counter(Env::Default(), FaultPlan{});
  ASSERT_TRUE(
      WriteKdfFile(scratch, after, LayoutKind::kRowMajor, {}, &counter).ok());
  EXPECT_EQ(FileContents(scratch), new_bytes);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 2);

  for (int64_t k = 0; k < num_ops; ++k) {
    const std::string path = TempPath("crash_" + std::to_string(k) + ".kdf");
    ASSERT_TRUE(WriteKdfFile(path, before).ok());
    FaultPlan plan;
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    EXPECT_FALSE(
        WriteKdfFile(path, after, LayoutKind::kRowMajor, {}, &env).ok())
        << "crash at op " << k << " did not surface";
    const std::string left = FileContents(path);
    EXPECT_TRUE(left == old_bytes || left == new_bytes)
        << "torn KDF after crash at op " << k;
    const StatusOr<KdfReader> reader = KdfReader::Open(path);
    EXPECT_TRUE(reader.ok()) << "crash at op " << k << ": " << reader.status();
  }
}

// ------------------------------------------------------- DebloatedArray --

DebloatedArray MakeCheckerboard(const Shape& shape, DataArray* array_out) {
  DataArray array(shape, DType::kFloat64);
  array.FillWith([&shape](const Index& index) {
    return static_cast<double>(shape.Linearize(index));
  });
  IndexSet retained(shape);
  shape.ForEachIndex([&retained](const Index& index) {
    int64_t sum = 0;
    for (int d = 0; d < index.rank(); ++d) {
      sum += index[d];
    }
    if (sum % 2 == 0) {
      retained.Insert(index);
    }
  });
  if (array_out != nullptr) {
    *array_out = array;
  }
  return DebloatedArray::FromDataArray(array, retained);
}

TEST(DebloatedArrayTest, RetainedValuesMatch) {
  DataArray array(Shape{1, 1}, DType::kFloat64);
  DebloatedArray debloated = MakeCheckerboard(Shape{8, 8}, &array);
  array.shape().ForEachIndex([&](const Index& index) {
    const int64_t sum = index[0] + index[1];
    StatusOr<double> value = debloated.At(index);
    if (sum % 2 == 0) {
      ASSERT_TRUE(value.ok()) << index;
      EXPECT_DOUBLE_EQ(*value, array.At(index));
      EXPECT_TRUE(debloated.IsRetained(index));
    } else {
      EXPECT_EQ(value.status().code(), StatusCode::kDataMissing) << index;
      EXPECT_FALSE(debloated.IsRetained(index));
    }
  });
}

TEST(DebloatedArrayTest, OutOfBoundsIsOutOfRangeNotMissing) {
  DebloatedArray debloated = MakeCheckerboard(Shape{4, 4}, nullptr);
  EXPECT_EQ(debloated.At(Index{4, 0}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(DebloatedArrayTest, SizeAccounting) {
  DebloatedArray debloated = MakeCheckerboard(Shape{8, 8}, nullptr);
  EXPECT_EQ(debloated.retained_count(), 32);
  EXPECT_EQ(debloated.OriginalPayloadBytes(), 64 * 8);
  // Bitmap (1 word) + 32 packed values.
  EXPECT_EQ(debloated.DebloatedPayloadBytes(), 8 + 32 * 8);
  EXPECT_GT(debloated.SizeReductionFraction(), 0.4);
}

TEST(DebloatedArrayTest, EmptyRetentionIsAllMissing) {
  DataArray array(Shape{4, 4}, DType::kFloat64);
  DebloatedArray debloated =
      DebloatedArray::FromDataArray(array, IndexSet(array.shape()));
  EXPECT_EQ(debloated.retained_count(), 0);
  EXPECT_EQ(debloated.At(Index{0, 0}).status().code(),
            StatusCode::kDataMissing);
}

TEST(DebloatedArrayTest, FullRetentionKeepsEverything) {
  DataArray array(Shape{4, 4}, DType::kFloat64);
  array.FillPattern(3);
  IndexSet all(array.shape());
  array.shape().ForEachIndex([&all](const Index& index) { all.Insert(index); });
  DebloatedArray debloated = DebloatedArray::FromDataArray(array, all);
  EXPECT_EQ(debloated.retained_count(), 16);
  EXPECT_DOUBLE_EQ(*debloated.At(Index{3, 3}), array.At(Index{3, 3}));
  // Full retention is slightly larger than the original (bitmap overhead).
  EXPECT_LT(debloated.SizeReductionFraction(), 0.0);
}

TEST(DebloatedArrayTest, RandomRetentionProperty) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Shape shape{9, 7};
    DataArray array(shape, DType::kFloat128);
    array.FillPattern(trial);
    IndexSet retained(shape);
    shape.ForEachIndex([&](const Index& index) {
      if (rng.Bernoulli(0.35)) {
        retained.Insert(index);
      }
    });
    DebloatedArray debloated = DebloatedArray::FromDataArray(array, retained);
    EXPECT_EQ(debloated.retained_count(),
              static_cast<int64_t>(retained.size()));
    shape.ForEachIndex([&](const Index& index) {
      if (retained.Contains(index)) {
        EXPECT_DOUBLE_EQ(*debloated.At(index), array.At(index));
      } else {
        EXPECT_FALSE(debloated.At(index).ok());
      }
    });
  }
}

}  // namespace
}  // namespace kondo
