// Tests for the KDP package subsystem (src/pack/): chunk grid geometry,
// chunk codecs, writer/reader round-trips across every dtype, random
// access + decoded-chunk LRU cache, corruption detection (errors name the
// chunk), incremental repack, jobs-invariance, and a crash-point sweep over
// the writer's commit protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "common/byte_codec.h"
#include "common/env.h"
#include "exec/thread_pool.h"
#include "pack/chunk_codec.h"
#include "pack/kdp_format.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "provenance/crc32.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

uint64_t FaultSeed() {
  if (const char* env = std::getenv("KONDO_FAULT_SEED")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) {
      return parsed;
    }
  }
  return 1;
}

/// Builds a debloated array over `shape` keeping every element whose
/// coordinate sum is divisible by `keep_mod` (keep_mod 1 = keep all).
DebloatedArray MakeArray(const Shape& shape, DType dtype, int keep_mod) {
  DataArray array(shape, dtype);
  array.FillWith([&shape](const Index& index) {
    return static_cast<double>(shape.Linearize(index) % 977);
  });
  IndexSet retained(shape);
  shape.ForEachIndex([&retained, keep_mod](const Index& index) {
    int64_t sum = 0;
    for (int d = 0; d < index.rank(); ++d) {
      sum += index[d];
    }
    if (sum % keep_mod == 0) {
      retained.Insert(index);
    }
  });
  return DebloatedArray::FromDataArray(array, retained);
}

/// Element-wise equality of two debloated arrays, including the retention
/// mask; NaN compares equal to NaN.
void ExpectSameArray(const DebloatedArray& a, const DebloatedArray& b) {
  ASSERT_EQ(a.shape().dims(), b.shape().dims());
  ASSERT_EQ(a.dtype(), b.dtype());
  EXPECT_EQ(a.retained_count(), b.retained_count());
  a.shape().ForEachIndex([&](const Index& index) {
    const StatusOr<double> va = a.At(index);
    const StatusOr<double> vb = b.At(index);
    ASSERT_EQ(va.ok(), vb.ok()) << "retention diverged";
    if (va.ok()) {
      if (std::isnan(*va)) {
        EXPECT_TRUE(std::isnan(*vb));
      } else {
        EXPECT_EQ(*va, *vb);
      }
    }
  });
}

// ------------------------------------------------------------ chunk grid --

TEST(KdpChunkGridTest, EdgeChunksClipToTheShape) {
  const KdpChunkGrid grid(Shape{7, 5}, {3, 2});
  EXPECT_EQ(grid.num_chunks(), 3 * 3);  // ceil(7/3) x ceil(5/2).
  // Last chunk: origin (6, 4), clipped extents (1, 1).
  const int64_t last = grid.num_chunks() - 1;
  EXPECT_EQ(grid.ChunkOrigin(last), (Index{6, 4}));
  EXPECT_EQ(grid.ChunkExtents(last), (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(grid.ChunkElements(last), 1);
  // Interior chunk 0 is full-size.
  EXPECT_EQ(grid.ChunkElements(0), 6);
}

TEST(KdpChunkGridTest, ChunkOfIndexAgreesWithOriginAndExtents) {
  const KdpChunkGrid grid(Shape{7, 5}, {3, 2});
  grid.shape().ForEachIndex([&grid](const Index& index) {
    const int64_t chunk = grid.ChunkOfIndex(index);
    const Index origin = grid.ChunkOrigin(chunk);
    const std::vector<int64_t> extents = grid.ChunkExtents(chunk);
    for (int d = 0; d < index.rank(); ++d) {
      EXPECT_GE(index[d], origin[d]);
      EXPECT_LT(index[d], origin[d] + extents[static_cast<size_t>(d)]);
    }
    EXPECT_EQ(grid.ChunkOfLinear(grid.shape().Linearize(index)), chunk);
  });
}

TEST(KdpChunkGridTest, LocalPositionEnumeratesChunkRowMajor) {
  const KdpChunkGrid grid(Shape{7, 5}, {3, 2});
  for (int64_t chunk = 0; chunk < grid.num_chunks(); ++chunk) {
    int64_t expected = 0;
    grid.ForEachChunkElement(chunk, [&](const Index& index) {
      EXPECT_EQ(grid.LocalPosition(index), expected) << "chunk " << chunk;
      ++expected;
    });
    EXPECT_EQ(expected, grid.ChunkElements(chunk));
  }
}

// ---------------------------------------------------------- chunk codecs --

std::string MakePayload(DType dtype, const std::vector<double>& values,
                        int64_t elements) {
  std::string decoded(
      static_cast<size_t>(KdpBitmapBytes(elements)), '\0');
  for (size_t i = 0; i < values.size(); ++i) {
    decoded[i / 8] = static_cast<char>(
        static_cast<uint8_t>(decoded[i / 8]) | (1u << (i % 8)));
  }
  char buf[16];
  for (double value : values) {
    EncodeElement(value, dtype, buf);
    decoded.append(buf, static_cast<size_t>(DTypeSize(dtype)));
  }
  return decoded;
}

TEST(ChunkCodecTest, DeltaVarintRoundTripsAndCompressesSmoothInts) {
  const std::vector<double> values = {100, 101, 102, 103, 104, 105, 104,
                                      103, 102, 101, 100, 99,  98,  97};
  const std::string decoded =
      MakePayload(DType::kInt64, values, static_cast<int64_t>(values.size()));
  const std::string encoded = EncodeChunkPayload(
      KdpCodec::kDeltaVarint, DType::kInt64,
      static_cast<int64_t>(values.size()), decoded);
  EXPECT_LT(encoded.size(), decoded.size());
  const StatusOr<std::string> back = DecodeChunkPayload(
      KdpCodec::kDeltaVarint, DType::kInt64,
      static_cast<int64_t>(values.size()),
      static_cast<int64_t>(decoded.size()), encoded);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, decoded);
}

TEST(ChunkCodecTest, DeltaVarintRoundTripsInt64Extremes) {
  // INT64_MAX - INT64_MIN overflows int64; the codec must difference and
  // sum in wrapping uint64. Built from raw bytes because MakePayload's
  // doubles cannot hold INT64_MAX.
  const std::vector<int64_t> values = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      0, -1, std::numeric_limits<int64_t>::min()};
  const int64_t elements = static_cast<int64_t>(values.size());
  std::string decoded(static_cast<size_t>(KdpBitmapBytes(elements)), '\0');
  decoded[0] = static_cast<char>((1u << values.size()) - 1);
  for (int64_t value : values) {
    char buf[8];
    std::memcpy(buf, &value, 8);
    decoded.append(buf, 8);
  }
  const std::string encoded = EncodeChunkPayload(
      KdpCodec::kDeltaVarint, DType::kInt64, elements, decoded);
  const StatusOr<std::string> back =
      DecodeChunkPayload(KdpCodec::kDeltaVarint, DType::kInt64, elements,
                         static_cast<int64_t>(decoded.size()), encoded);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, decoded);
}

TEST(ChunkCodecTest, BytePlaneRoundTripsFloats) {
  const std::vector<double> values = {1.5, 2.5, 3.5, 4.5, 1e-3, -0.0, 7.25};
  for (DType dtype :
       {DType::kFloat32, DType::kFloat64, DType::kFloat128}) {
    const std::string decoded =
        MakePayload(dtype, values, static_cast<int64_t>(values.size()));
    const std::string encoded = EncodeChunkPayload(
        KdpCodec::kBytePlane, dtype, static_cast<int64_t>(values.size()),
        decoded);
    const StatusOr<std::string> back = DecodeChunkPayload(
        KdpCodec::kBytePlane, dtype, static_cast<int64_t>(values.size()),
        static_cast<int64_t>(decoded.size()), encoded);
    ASSERT_TRUE(back.ok()) << DTypeName(dtype) << ": " << back.status();
    EXPECT_EQ(*back, decoded) << DTypeName(dtype);
  }
}

TEST(ChunkCodecTest, TruncatedInputIsDataLossNotUb) {
  const std::vector<double> values = {10, 20, 30, 40};
  for (KdpCodec codec : {KdpCodec::kDeltaVarint, KdpCodec::kBytePlane}) {
    const DType dtype = codec == KdpCodec::kDeltaVarint ? DType::kInt64
                                                        : DType::kFloat64;
    const std::string decoded =
        MakePayload(dtype, values, static_cast<int64_t>(values.size()));
    const std::string encoded = EncodeChunkPayload(
        codec, dtype, static_cast<int64_t>(values.size()), decoded);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      const StatusOr<std::string> back = DecodeChunkPayload(
          codec, dtype, static_cast<int64_t>(values.size()),
          static_cast<int64_t>(decoded.size()), encoded.substr(0, cut));
      EXPECT_FALSE(back.ok()) << KdpCodecName(codec) << " cut " << cut;
    }
  }
}

TEST(ChunkCodecTest, RawDecodeRejectsSizeMismatch) {
  const StatusOr<std::string> back = DecodeChunkPayload(
      KdpCodec::kRaw, DType::kFloat64, 4, 16, std::string(15, 'x'));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------- pack round trips --

TEST(PackRoundTripTest, AllDTypesUnpackIdentically) {
  for (DType dtype : {DType::kInt32, DType::kInt64, DType::kFloat32,
                      DType::kFloat64, DType::kFloat128}) {
    const DebloatedArray array = MakeArray(Shape{9, 11}, dtype, 3);
    const std::string path =
        TempPath(std::string("rt_") + std::string(DTypeName(dtype)) +
                 ".kdp");
    PackOptions options;
    options.chunk_dims = {4, 3};
    const StatusOr<PackStats> stats = WriteKdpFile(path, array, options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->total_chunks, 3 * 4);

    StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ((*reader)->dtype(), dtype);
    EXPECT_EQ((*reader)->retained_count(), array.retained_count());
    const StatusOr<DebloatedArray> unpacked = (*reader)->Unpack();
    ASSERT_TRUE(unpacked.ok()) << unpacked.status();
    ExpectSameArray(array, *unpacked);
  }
}

TEST(PackRoundTripTest, RepackOfUnpackIsByteIdentical) {
  // Unpack loses nothing the writer encodes: packing the unpacked D_Θ
  // again reproduces the original package byte for byte.
  const DebloatedArray array = MakeArray(Shape{16, 16}, DType::kFloat64, 2);
  const std::string kdp = TempPath("ident.kdp");
  const std::string again = TempPath("ident_again.kdp");
  ASSERT_TRUE(WriteKdpFile(kdp, array).ok());
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(kdp);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const StatusOr<DebloatedArray> unpacked = (*reader)->Unpack();
  ASSERT_TRUE(unpacked.ok()) << unpacked.status();
  ASSERT_TRUE(WriteKdpFile(again, *unpacked).ok());
  EXPECT_EQ(ReadFileBytes(again), ReadFileBytes(kdp));
}

TEST(PackSizeTest, LdcGroundTruthPackageIsFourTimesSmallerThanDenseKdf) {
  // The format's economics: LDC's carved D_Θ (the ground truth I'_Θ the
  // carve converges to) packs at least 4x smaller than its dense source.
  const std::unique_ptr<Program> program = CreateProgram("LDC");
  ASSERT_NE(program, nullptr);
  DataArray data(program->data_shape());
  data.FillPattern(/*seed=*/42);
  const std::string kdf = TempPath("size_dense.kdf");
  const std::string kdp = TempPath("size_dtheta.kdp");
  ASSERT_TRUE(WriteKdfFile(kdf, data).ok());
  ASSERT_TRUE(
      WriteKdpFile(kdp, DebloatedArray::FromDataArray(data,
                                                      program->GroundTruth()))
          .ok());
  const size_t kdf_bytes = ReadFileBytes(kdf).size();
  const size_t kdp_bytes = ReadFileBytes(kdp).size();
  ASSERT_GT(kdp_bytes, 0u);
  EXPECT_GE(kdf_bytes, 4 * kdp_bytes)
      << "dense KDF " << kdf_bytes << " B, KDP " << kdp_bytes << " B";
}

TEST(PackRoundTripTest, SpecialFloatValuesSurvive) {
  const Shape shape{2, 4};
  DataArray array(shape, DType::kFloat64);
  const std::vector<double> specials = {
      std::nan(""), std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.0,
      std::numeric_limits<double>::denorm_min(), 1e308, -1e-308, 0.0};
  array.FillWith([&](const Index& index) {
    return specials[static_cast<size_t>(shape.Linearize(index))];
  });
  IndexSet retained(shape);
  shape.ForEachIndex([&retained](const Index& index) {
    retained.Insert(index);
  });
  const DebloatedArray original = DebloatedArray::FromDataArray(
      array, retained);
  const std::string path = TempPath("specials.kdp");
  ASSERT_TRUE(WriteKdpFile(path, original).ok());
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const StatusOr<DebloatedArray> unpacked = (*reader)->Unpack();
  ASSERT_TRUE(unpacked.ok()) << unpacked.status();
  ExpectSameArray(original, *unpacked);
}

TEST(PackWriterTest, ChunkClassificationMatchesRetention) {
  // Shape 8x8, chunks 4x4: quadrant (0,0) fully retained, the rest empty.
  const Shape shape{8, 8};
  DataArray array(shape, DType::kInt64);
  array.FillWith([&shape](const Index& index) {
    return static_cast<double>(shape.Linearize(index));
  });
  IndexSet retained(shape);
  shape.ForEachIndex([&retained](const Index& index) {
    if (index[0] < 4 && index[1] < 4) {
      retained.Insert(index);
    }
  });
  const DebloatedArray quadrant =
      DebloatedArray::FromDataArray(array, retained);
  const std::string path = TempPath("quadrant.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  const StatusOr<PackStats> stats = WriteKdpFile(path, quadrant, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->total_chunks, 4);
  EXPECT_EQ(stats->hole_chunks, 3);
  EXPECT_EQ(stats->raw_chunks + stats->coded_chunks, 1);

  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  int64_t holes = 0;
  for (const KdpChunkInfo& chunk : (*reader)->manifest().chunks) {
    if (chunk.codec == KdpCodec::kHole) {
      ++holes;
      EXPECT_EQ(chunk.encoded_bytes, 0);
      EXPECT_EQ(chunk.decoded_bytes, 0);
    }
  }
  EXPECT_EQ(holes, 3);
}

TEST(PackWriterTest, PackagesAreByteIdenticalAtEveryJobsSetting) {
  const DebloatedArray array = MakeArray(Shape{20, 14}, DType::kFloat64, 2);
  const std::string serial = TempPath("jobs1.kdp");
  const std::string fanned = TempPath("jobs4.kdp");
  const std::string pooled = TempPath("pooled.kdp");
  PackOptions options;
  ASSERT_TRUE(WriteKdpFile(serial, array, options).ok());
  options.jobs = 4;
  ASSERT_TRUE(WriteKdpFile(fanned, array, options).ok());
  ThreadPool pool(3);
  options.pool = &pool;
  ASSERT_TRUE(WriteKdpFile(pooled, array, options).ok());
  const std::string want = ReadFileBytes(serial);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(ReadFileBytes(fanned), want);
  EXPECT_EQ(ReadFileBytes(pooled), want);
}

TEST(PackReaderTest, UnpackIsIdenticalAtEveryJobsSetting) {
  const DebloatedArray array = MakeArray(Shape{20, 14}, DType::kInt64, 3);
  const std::string path = TempPath("unpack_jobs.kdp");
  ASSERT_TRUE(WriteKdpFile(path, array).ok());
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const StatusOr<DebloatedArray> serial = (*reader)->Unpack();
  ASSERT_TRUE(serial.ok()) << serial.status();
  const StatusOr<DebloatedArray> fanned = (*reader)->Unpack(nullptr, 4);
  ASSERT_TRUE(fanned.ok()) << fanned.status();
  ThreadPool pool(3);
  const StatusOr<DebloatedArray> pooled = (*reader)->Unpack(&pool, 3);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  ExpectSameArray(*serial, *fanned);
  ExpectSameArray(*serial, *pooled);
}

// ---------------------------------------------------------- random access --

TEST(PackReaderTest, ReadElementMatchesArrayAndReportsMissing) {
  const DebloatedArray array = MakeArray(Shape{9, 7}, DType::kFloat64, 2);
  const std::string path = TempPath("read_element.kdp");
  PackOptions options;
  options.chunk_dims = {3, 3};
  ASSERT_TRUE(WriteKdpFile(path, array, options).ok());
  StatusOr<std::unique_ptr<PackReader>> opened = PackReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackReader& reader = **opened;

  array.shape().ForEachIndex([&](const Index& index) {
    const StatusOr<double> want = array.At(index);
    const StatusOr<double> got = reader.ReadElement(index);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(*want, *got);
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kDataMissing);
    }
  });
  EXPECT_EQ(reader.ReadElement(Index{9, 0}).status().code(),
            StatusCode::kOutOfRange);

  // The full sweep visits each of the 9 chunks many times; all but the
  // first touch per chunk must come from cache.
  const PackReaderStats stats = reader.stats();
  EXPECT_EQ(stats.chunks_decoded, 9);
  EXPECT_GT(stats.cache_hits, stats.cache_misses);
}

TEST(PackReaderTest, ReadRangeSpansChunkBoundaries) {
  const DebloatedArray array = MakeArray(Shape{8, 10}, DType::kInt32, 3);
  const std::string path = TempPath("read_range.kdp");
  PackOptions options;
  options.chunk_dims = {3, 4};
  ASSERT_TRUE(WriteKdpFile(path, array, options).ok());
  StatusOr<std::unique_ptr<PackReader>> opened = PackReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackReader& reader = **opened;

  const int64_t total = array.shape().NumElements();
  for (const auto& [begin, end] :
       std::vector<std::pair<int64_t, int64_t>>{
           {0, total}, {0, 0}, {5, 37}, {17, 18}, {total - 1, total}}) {
    std::vector<uint8_t> present;
    std::vector<double> values;
    ASSERT_TRUE(reader.ReadRange(begin, end, &present, &values).ok());
    ASSERT_EQ(present.size(), static_cast<size_t>(end - begin));
    size_t value_at = 0;
    for (int64_t linear = begin; linear < end; ++linear) {
      const StatusOr<double> want =
          array.At(array.shape().Delinearize(linear));
      ASSERT_EQ(present[static_cast<size_t>(linear - begin)] != 0,
                want.ok());
      if (want.ok()) {
        ASSERT_LT(value_at, values.size());
        EXPECT_EQ(values[value_at], *want);
        ++value_at;
      }
    }
    EXPECT_EQ(value_at, values.size());
  }
}

TEST(PackReaderTest, TinyCacheEvictsLeastRecentlyUsedChunks) {
  const DebloatedArray array = MakeArray(Shape{12, 12}, DType::kFloat64, 1);
  const std::string path = TempPath("lru.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  ASSERT_TRUE(WriteKdpFile(path, array, options).ok());
  PackReadOptions read_options;
  read_options.cache_bytes = 300;  // Roughly two decoded 16-element chunks.
  StatusOr<std::unique_ptr<PackReader>> opened =
      PackReader::Open(path, read_options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackReader& reader = **opened;

  // Two full sweeps over all 9 chunks: the second sweep cannot be all hits
  // with only ~2 chunks resident, so eviction must have fired.
  for (int sweep = 0; sweep < 2; ++sweep) {
    array.shape().ForEachIndex([&](const Index& index) {
      ASSERT_TRUE(reader.ReadElement(index).ok());
    });
  }
  const PackReaderStats stats = reader.stats();
  EXPECT_GT(stats.cache_evictions, 0);
  EXPECT_GT(stats.chunks_decoded, 9);
}

// ------------------------------------------------------------- corruption --

TEST(PackCorruptionTest, FlippedPayloadByteNamesTheChunk) {
  const DebloatedArray array = MakeArray(Shape{8, 8}, DType::kFloat64, 1);
  const std::string path = TempPath("corrupt.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  ASSERT_TRUE(WriteKdpFile(path, array, options).ok());

  std::string bytes = ReadFileBytes(path);
  // First payload byte lives right after the header (rank-2 header is
  // 8 + 16*2 = 40 bytes).
  const size_t victim = 40;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5a);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The trailer CRC covers header + manifest only, so Open succeeds; the
  // decode of chunk 0 must fail and the error must name it.
  StatusOr<std::unique_ptr<PackReader>> opened = PackReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const StatusOr<DebloatedArray> unpacked = (*opened)->Unpack();
  ASSERT_FALSE(unpacked.ok());
  EXPECT_EQ(unpacked.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(unpacked.status().message().find("KDP chunk 0"),
            std::string::npos)
      << unpacked.status();
}

TEST(PackCorruptionTest, DamagedTrailerFailsOpen) {
  const DebloatedArray array = MakeArray(Shape{6, 6}, DType::kInt64, 2);
  const std::string path = TempPath("trailer.kdp");
  ASSERT_TRUE(WriteKdpFile(path, array).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 6] =
      static_cast<char>(bytes[bytes.size() - 6] ^ 0xff);  // file_crc field.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const StatusOr<std::unique_ptr<PackReader>> opened = PackReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackCorruptionTest, HugeChunkCountIsBoundedBeforeArithmetic) {
  // num_chunks * entry bytes would overflow int64 for a count of 2^62.
  const std::string tail = EncodeKdpTrailer(0, int64_t{1} << 62, 0);
  EXPECT_EQ(DecodeKdpTrailer(tail, 4096).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeKdpTrailer(EncodeKdpTrailer(-1, 0, 0), 0).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeKdpTrailer(tail.substr(1), 4096).status().code(),
            StatusCode::kDataLoss);

  // The same trailer on disk: Open refuses it without allocating.
  const DebloatedArray array = MakeArray(Shape{6, 6}, DType::kInt64, 2);
  const std::string path = TempPath("huge_count.kdp");
  ASSERT_TRUE(WriteKdpFile(path, array).ok());
  std::string bytes = ReadFileBytes(path);
  bytes.replace(bytes.size() - kKdpTrailerBytes, kKdpTrailerBytes, tail);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(PackReader::Open(path).status().code(), StatusCode::kDataLoss);
}

/// A KDP header with arbitrary (possibly hostile) rank and dims.
std::string CraftedKdpHeader(const std::vector<int64_t>& dims,
                             const std::vector<int64_t>& chunk_dims) {
  std::string header = "KDP1";
  AppendU8(kKdpVersion, &header);
  AppendU8(static_cast<uint8_t>(DType::kInt64), &header);
  AppendU8(static_cast<uint8_t>(dims.size()), &header);
  AppendU8(0, &header);
  for (int64_t dim : dims) {
    AppendI64(dim, &header);
  }
  for (int64_t chunk : chunk_dims) {
    AppendI64(chunk, &header);
  }
  return header;
}

TEST(PackCorruptionTest, HeaderShapeIsValidatedBeforeUse) {
  KdpTrailer trailer;
  trailer.num_chunks = 1;
  // True when decoding fails with kDataLoss at the header, before the
  // (deliberately empty) manifest is looked at.
  const auto header_rejected = [&trailer](const std::string& header) {
    trailer.manifest_offset = static_cast<int64_t>(header.size());
    const Status status = DecodeKdpManifest(header, "", trailer).status();
    return status.code() == StatusCode::kDataLoss &&
           status.message().rfind("KDP header", 0) == 0;
  };
  const int64_t dim = int64_t{1} << 31;
  EXPECT_TRUE(header_rejected(CraftedKdpHeader({1, 1, 1, 1, 1},
                                               {1, 1, 1, 1, 1})));
  EXPECT_TRUE(header_rejected(CraftedKdpHeader({}, {})));
  EXPECT_TRUE(header_rejected(CraftedKdpHeader({dim, dim, dim},
                                               {dim, dim, dim})));
  EXPECT_TRUE(header_rejected(CraftedKdpHeader({4, 0}, {2, 2})));
  EXPECT_TRUE(header_rejected(CraftedKdpHeader({4, 4}, {2, -2})));
  EXPECT_TRUE(
      header_rejected(CraftedKdpHeader({4, 4}, {2, 2}).substr(0, 20)));
  EXPECT_FALSE(header_rejected(CraftedKdpHeader({4, 4}, {2, 2})));
}

TEST(PackCorruptionTest, HugeChunkDimsDoNotOverflowTheGrid) {
  // dim + chunk - 1 overflows int64 here; the grid is still one chunk.
  const std::string header = CraftedKdpHeader(
      {int64_t{1} << 62}, {std::numeric_limits<int64_t>::max()});
  KdpManifest hole;
  hole.chunks.resize(1);
  const std::string manifest = EncodeKdpManifest(hole);
  KdpTrailer trailer;
  trailer.manifest_offset = static_cast<int64_t>(header.size());
  trailer.num_chunks = 1;
  trailer.file_crc = Crc32Update(Crc32(header.data(), header.size()),
                                 manifest.data(), manifest.size());
  const StatusOr<KdpManifest> decoded =
      DecodeKdpManifest(header, manifest, trailer);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->MakeGrid().num_chunks(), 1);
  EXPECT_EQ(decoded->MakeGrid().ChunkElements(0), int64_t{1} << 62);
}

// ----------------------------------------------------------------- repack --

TEST(PackRepackTest, CleanRepackReusesEveryChunk) {
  const DebloatedArray array = MakeArray(Shape{10, 10}, DType::kFloat64, 2);
  const std::string in = TempPath("reuse_in.kdp");
  const std::string out = TempPath("reuse_out.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  ASSERT_TRUE(WriteKdpFile(in, array, options).ok());
  const StatusOr<PackStats> stats = RepackKdpFile(in, out, array, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->chunks_reused, stats->total_chunks);
  EXPECT_EQ(stats->chunks_reencoded, 0);
  EXPECT_EQ(ReadFileBytes(in), ReadFileBytes(out));
}

TEST(PackRepackTest, DirtyChunksReencodeAndMatchFreshPack) {
  const Shape shape{12, 12};
  const DebloatedArray before = MakeArray(shape, DType::kFloat64, 2);

  // Rebuild with one corner changed: only the chunks covering it are dirty.
  DataArray array(shape, DType::kFloat64);
  array.FillWith([&shape](const Index& index) {
    const int64_t linear = shape.Linearize(index);
    if (index[0] < 2 && index[1] < 2) {
      return static_cast<double>(-linear);
    }
    return static_cast<double>(linear % 977);
  });
  IndexSet retained(shape);
  shape.ForEachIndex([&retained](const Index& index) {
    if ((index[0] + index[1]) % 2 == 0) {
      retained.Insert(index);
    }
  });
  const DebloatedArray after = DebloatedArray::FromDataArray(array, retained);

  const std::string in = TempPath("dirty_in.kdp");
  const std::string repacked = TempPath("dirty_out.kdp");
  const std::string fresh = TempPath("dirty_fresh.kdp");
  PackOptions options;
  options.chunk_dims = {4, 4};
  ASSERT_TRUE(WriteKdpFile(in, before, options).ok());
  const StatusOr<PackStats> stats =
      RepackKdpFile(in, repacked, after, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->chunks_reencoded, 1);  // Only the (0,0) 4x4 chunk moved.
  EXPECT_EQ(stats->chunks_reused, stats->total_chunks - 1);

  ASSERT_TRUE(WriteKdpFile(fresh, after, options).ok());
  EXPECT_EQ(ReadFileBytes(repacked), ReadFileBytes(fresh));

  // And the repacked fingerprint differs from the original's.
  StatusOr<std::unique_ptr<PackReader>> old_reader = PackReader::Open(in);
  StatusOr<std::unique_ptr<PackReader>> new_reader =
      PackReader::Open(repacked);
  ASSERT_TRUE(old_reader.ok() && new_reader.ok());
  EXPECT_NE((*old_reader)->pack_fingerprint(),
            (*new_reader)->pack_fingerprint());
}

TEST(PackRepackTest, InPlaceRepackRoundTrips) {
  const DebloatedArray before = MakeArray(Shape{8, 8}, DType::kInt64, 2);
  const DebloatedArray after = MakeArray(Shape{8, 8}, DType::kInt64, 4);
  const std::string path = TempPath("inplace.kdp");
  ASSERT_TRUE(WriteKdpFile(path, before).ok());
  ASSERT_TRUE(RepackKdpFile(path, path, after).ok());
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const StatusOr<DebloatedArray> unpacked = (*reader)->Unpack();
  ASSERT_TRUE(unpacked.ok()) << unpacked.status();
  ExpectSameArray(after, *unpacked);
}

TEST(PackRepackTest, ShapeOrDTypeMismatchIsFailedPrecondition) {
  const DebloatedArray array = MakeArray(Shape{6, 6}, DType::kFloat64, 2);
  const std::string path = TempPath("mismatch.kdp");
  ASSERT_TRUE(WriteKdpFile(path, array).ok());
  const DebloatedArray other_shape = MakeArray(Shape{6, 7}, DType::kFloat64, 2);
  EXPECT_EQ(RepackKdpFile(path, path, other_shape).status().code(),
            StatusCode::kFailedPrecondition);
  const DebloatedArray other_dtype = MakeArray(Shape{6, 6}, DType::kInt64, 2);
  EXPECT_EQ(RepackKdpFile(path, path, other_dtype).status().code(),
            StatusCode::kFailedPrecondition);
}

// ----------------------------------------------------------- crash safety --

TEST(PackCrashSweepTest, InterruptedCommitLeavesNoFileOrAValidOne) {
  const DebloatedArray array = MakeArray(Shape{10, 10}, DType::kFloat64, 3);
  const std::string reference_path = TempPath("crash_ref.kdp");
  ASSERT_TRUE(WriteKdpFile(reference_path, array).ok());
  const std::string reference = ReadFileBytes(reference_path);
  ASSERT_FALSE(reference.empty());

  // A fault-free injecting env must be byte-transparent, and its op count
  // bounds the sweep.
  FaultPlan count_plan;
  count_plan.seed = FaultSeed();
  FaultInjectingEnv counter(Env::Default(), count_plan);
  PackOptions counted;
  counted.env = &counter;
  const std::string counted_path = TempPath("crash_count.kdp");
  ASSERT_TRUE(WriteKdpFile(counted_path, array, counted).ok());
  EXPECT_EQ(ReadFileBytes(counted_path), reference);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 2);

  for (int64_t k = 0; k < num_ops; ++k) {
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    PackOptions crashed;
    crashed.env = &env;
    const std::string path = TempPath("crash_" + std::to_string(k) + ".kdp");
    const StatusOr<PackStats> broken = WriteKdpFile(path, array, crashed);
    EXPECT_FALSE(broken.ok()) << "crash at op " << k << " did not surface";
    // Atomic commit: either nothing landed at the target path, or the
    // rename happened and the package is complete and valid.
    if (FileExists(path)) {
      EXPECT_EQ(ReadFileBytes(path), reference) << "crash at op " << k;
      const StatusOr<std::unique_ptr<PackReader>> opened =
          PackReader::Open(path);
      EXPECT_TRUE(opened.ok())
          << "crash at op " << k << ": " << opened.status();
    }
  }
}

TEST(PackCrashSweepTest, InterruptedRepackPreservesTheOldPackage) {
  const DebloatedArray before = MakeArray(Shape{8, 8}, DType::kInt64, 2);
  const DebloatedArray after = MakeArray(Shape{8, 8}, DType::kInt64, 4);

  // Count repack ops on a scratch copy.
  const std::string scratch = TempPath("repack_count.kdp");
  ASSERT_TRUE(WriteKdpFile(scratch, before).ok());
  const std::string old_bytes = ReadFileBytes(scratch);
  FaultPlan count_plan;
  count_plan.seed = FaultSeed();
  FaultInjectingEnv counter(Env::Default(), count_plan);
  PackOptions counted;
  counted.env = &counter;
  ASSERT_TRUE(RepackKdpFile(scratch, scratch, after, counted).ok());
  const std::string new_bytes = ReadFileBytes(scratch);
  ASSERT_NE(new_bytes, old_bytes);
  const int64_t num_ops = counter.ops();
  ASSERT_GT(num_ops, 2);

  for (int64_t k = 0; k < num_ops; ++k) {
    const std::string path =
        TempPath("repack_crash_" + std::to_string(k) + ".kdp");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(old_bytes.data(),
                static_cast<std::streamsize>(old_bytes.size()));
    }
    FaultPlan plan;
    plan.seed = FaultSeed();
    plan.crash_at_op = k;
    FaultInjectingEnv env(Env::Default(), plan);
    PackOptions crashed;
    crashed.env = &env;
    const StatusOr<PackStats> broken =
        RepackKdpFile(path, path, after, crashed);
    EXPECT_FALSE(broken.ok()) << "crash at op " << k << " did not surface";
    // In-place repack through AtomicFile: the package at `path` is either
    // still the old bytes or already the complete new bytes — never torn.
    const std::string left = ReadFileBytes(path);
    EXPECT_TRUE(left == old_bytes || left == new_bytes)
        << "torn package after crash at op " << k;
  }
}

}  // namespace
}  // namespace kondo
