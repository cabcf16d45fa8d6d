#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "array/data_array.h"
#include "array/dtype.h"
#include "array/index.h"
#include "array/index_set.h"
#include "array/layout.h"
#include "array/shape.h"
#include "common/rng.h"

namespace kondo {
namespace {

// ----------------------------------------------------------------- Index --

TEST(IndexTest, ConstructionAndAccess) {
  Index index{3, 4, 5};
  EXPECT_EQ(index.rank(), 3);
  EXPECT_EQ(index[0], 3);
  EXPECT_EQ(index[2], 5);
  index[1] = 9;
  EXPECT_EQ(index[1], 9);
}

TEST(IndexTest, ZeroInitialized) {
  Index index(2);
  EXPECT_EQ(index[0], 0);
  EXPECT_EQ(index[1], 0);
}

TEST(IndexTest, Equality) {
  EXPECT_EQ((Index{1, 2}), (Index{1, 2}));
  EXPECT_FALSE((Index{1, 2}) == (Index{1, 3}));
  EXPECT_FALSE((Index{1, 2}) == (Index{1, 2, 0}));  // Rank differs.
}

TEST(IndexTest, Ordering) {
  EXPECT_LT((Index{1, 2}), (Index{1, 3}));
  EXPECT_LT((Index{1, 9}), (Index{2, 0}));
  EXPECT_LT((Index{5}), (Index{0, 0}));  // Lower rank sorts first.
}

TEST(IndexTest, ToString) {
  EXPECT_EQ((Index{7, 8}).ToString(), "(7, 8)");
  EXPECT_EQ(Index(1).ToString(), "(0)");
}

TEST(IndexTest, HashDistinguishesNearbyIndices) {
  const std::hash<Index> hasher;
  EXPECT_NE(hasher(Index{0, 1}), hasher(Index{1, 0}));
  EXPECT_EQ(hasher(Index{3, 4}), hasher(Index{3, 4}));
}

// ----------------------------------------------------------------- Shape --

TEST(ShapeTest, BasicProperties) {
  const Shape shape{4, 5, 6};
  EXPECT_EQ(shape.rank(), 3);
  EXPECT_EQ(shape.NumElements(), 120);
  EXPECT_EQ(shape.ToString(), "4x5x6");
}

TEST(ShapeTest, Contains) {
  const Shape shape{4, 5};
  EXPECT_TRUE(shape.Contains(Index{0, 0}));
  EXPECT_TRUE(shape.Contains(Index{3, 4}));
  EXPECT_FALSE(shape.Contains(Index{4, 0}));
  EXPECT_FALSE(shape.Contains(Index{0, -1}));
  EXPECT_FALSE(shape.Contains(Index{0, 0, 0}));  // Rank mismatch.
}

TEST(ShapeTest, LinearizeIsRowMajor) {
  const Shape shape{3, 4};
  EXPECT_EQ(shape.Linearize(Index{0, 0}), 0);
  EXPECT_EQ(shape.Linearize(Index{0, 3}), 3);
  EXPECT_EQ(shape.Linearize(Index{1, 0}), 4);
  EXPECT_EQ(shape.Linearize(Index{2, 3}), 11);
}

class ShapeRoundTripTest
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(ShapeRoundTripTest, LinearizeDelinearizeRoundTrips) {
  const Shape shape(GetParam());
  const int64_t n = shape.NumElements();
  for (int64_t linear = 0; linear < n; ++linear) {
    const Index index = shape.Delinearize(linear);
    EXPECT_TRUE(shape.Contains(index));
    EXPECT_EQ(shape.Linearize(index), linear);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeRoundTripTest,
                         ::testing::Values(std::vector<int64_t>{7},
                                           std::vector<int64_t>{3, 5},
                                           std::vector<int64_t>{4, 4, 4},
                                           std::vector<int64_t>{2, 3, 4, 5},
                                           std::vector<int64_t>{1, 9},
                                           std::vector<int64_t>{16, 16}));

TEST(ShapeTest, ForEachIndexVisitsAllOnce) {
  const Shape shape{3, 3};
  int count = 0;
  Index last(2);
  shape.ForEachIndex([&count, &last, &shape](const Index& index) {
    EXPECT_TRUE(shape.Contains(index));
    ++count;
    last = index;
  });
  EXPECT_EQ(count, 9);
  EXPECT_EQ(last, (Index{2, 2}));
}

// -------------------------------------------------------------- IndexSet --

TEST(IndexSetTest, InsertAndContains) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{1, 2});
  EXPECT_TRUE(set.Contains(Index{1, 2}));
  EXPECT_FALSE(set.Contains(Index{2, 1}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(IndexSetTest, OutOfBoundsInsertIsClipped) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{4, 0});
  set.Insert(Index{-1, 2});
  EXPECT_TRUE(set.empty());
}

TEST(IndexSetTest, DuplicateInsertIsIdempotent) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{1, 1});
  set.Insert(Index{1, 1});
  EXPECT_EQ(set.size(), 1u);
}

TEST(IndexSetTest, UnionAndIntersection) {
  IndexSet a(Shape{8, 8});
  IndexSet b(Shape{8, 8});
  a.Insert(Index{0, 0});
  a.Insert(Index{1, 1});
  b.Insert(Index{1, 1});
  b.Insert(Index{2, 2});
  EXPECT_EQ(a.IntersectionSize(b), 1);
  a.Union(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.IntersectionSize(b), 2);
}

TEST(IndexSetTest, UnionIntoDefaultConstructedAdoptsShape) {
  IndexSet a;
  IndexSet b(Shape{4, 4});
  b.Insert(Index{3, 3});
  a.Union(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(a.Contains(Index{3, 3}));
}

TEST(IndexSetTest, IsSubsetOf) {
  IndexSet a(Shape{4, 4});
  IndexSet b(Shape{4, 4});
  a.Insert(Index{0, 1});
  b.Insert(Index{0, 1});
  b.Insert(Index{2, 3});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(IndexSetTest, SortedLinearIdsAreSorted) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{3, 3});
  set.Insert(Index{0, 0});
  set.Insert(Index{1, 2});
  const std::vector<int64_t> ids = set.ToSortedLinearIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[2], 15);
}

TEST(IndexSetTest, ForEachVisitsEveryMember) {
  IndexSet set(Shape{5, 5});
  set.Insert(Index{1, 1});
  set.Insert(Index{4, 0});
  int count = 0;
  set.ForEach([&count, &set](const Index& index) {
    EXPECT_TRUE(set.Contains(index));
    ++count;
  });
  EXPECT_EQ(count, 2);
}

TEST(IndexSetTest, TouchingRunsCoalesce) {
  const Shape shape{10};
  IndexSet set(shape);
  set.InsertRun(5, 8);
  set.InsertRun(0, 3);
  set.InsertRun(3, 5);  // Touches both neighbours.
  EXPECT_EQ(set.num_runs(), 1u);
  EXPECT_EQ(set.size(), 8u);
  set.InsertLinear(9);  // The last id.
  set.InsertLinear(8);  // Bridges to it.
  set.InsertLinear(0);  // Duplicate of the first id.
  set.InsertRun(2, 2);  // Empty run.
  EXPECT_EQ(set.num_runs(), 1u);
  EXPECT_EQ(set.size(), 10u);

  IndexSet low(shape);
  low.InsertRun(0, 4);
  IndexSet high(shape);
  high.InsertRun(4, 6);
  low.Union(high);  // `high` starts where `low` ends.
  EXPECT_EQ(low.num_runs(), 1u);
  EXPECT_EQ(low.size(), 6u);
}

TEST(IndexSetTest, SetOperationsRejectDifferentShapes) {
  IndexSet a(Shape{4, 4});
  IndexSet b(Shape{2, 8});
  a.InsertLinear(3);
  b.InsertLinear(3);
  EXPECT_DEATH(a.IntersectionSize(b), "shapes differ");
  EXPECT_DEATH(a.IsSubsetOf(b), "shapes differ");
  EXPECT_DEATH(a.Union(b), "Check failed");
  // An empty set of any shape (or none) is exempt.
  const IndexSet empty(Shape{3});
  EXPECT_EQ(a.IntersectionSize(empty), 0);
  EXPECT_EQ(empty.IntersectionSize(a), 0);
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(IndexSet()));
}

// ------------------------------------------ IndexSet against std::set --

std::vector<int64_t> Ids(const std::set<int64_t>& model) {
  return std::vector<int64_t>(model.begin(), model.end());
}

// Checks every observer of `set` against the model.
void ExpectMatchesModel(const IndexSet& set, const std::set<int64_t>& model) {
  const Shape& shape = set.shape();
  EXPECT_EQ(set.size(), model.size());
  EXPECT_EQ(set.empty(), model.empty());
  EXPECT_EQ(set.ToSortedLinearIds(), Ids(model));

  std::vector<int64_t> visited;
  set.ForEach([&visited, &shape](const Index& index) {
    visited.push_back(shape.Linearize(index));
  });
  EXPECT_EQ(visited, Ids(model));

  // Runs come ascending, non-empty and maximal (a gap between neighbours).
  std::vector<int64_t> from_runs;
  int64_t previous_end = -1;
  set.ForEachRun([&](int64_t begin, int64_t end) {
    EXPECT_LT(begin, end);
    EXPECT_GT(begin, previous_end);
    previous_end = end;
    for (int64_t id = begin; id < end; ++id) {
      from_runs.push_back(id);
    }
  });
  EXPECT_EQ(from_runs, Ids(model));

  for (int64_t id = 0; id < shape.NumElements(); ++id) {
    ASSERT_EQ(set.ContainsLinear(id), model.count(id) > 0) << "id " << id;
    ASSERT_EQ(set.Contains(shape.Delinearize(id)), model.count(id) > 0);
  }
}

Shape RandomShape(Rng& rng) {
  const int rank = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<int64_t> dims;
  for (int d = 0; d < rank; ++d) {
    dims.push_back(rng.UniformInt(1, rank == 1 ? 300 : 12));
  }
  return Shape(dims);
}

// Applies `ops` random inserts, in random order and with clustered ids so
// that runs form, touch and overlap, to `set`, `builder` and `model` alike.
void RandomInserts(Rng& rng, int ops, IndexSet* set,
                   IndexSet::Builder* builder, std::set<int64_t>* model) {
  const Shape& shape = set->shape();
  const int64_t n = shape.NumElements();
  int64_t cursor = rng.UniformInt(0, n - 1);
  for (int op = 0; op < ops; ++op) {
    // Mostly near the previous insert (ascending or not), sometimes far.
    cursor = rng.Bernoulli(0.2)
                 ? rng.UniformInt(0, n - 1)
                 : std::clamp<int64_t>(cursor + rng.UniformInt(-3, 4), 0,
                                       n - 1);
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // Insert, sometimes one step out of bounds.
        Index index = shape.Delinearize(cursor);
        const int d = static_cast<int>(rng.UniformInt(0, shape.rank() - 1));
        if (rng.Bernoulli(0.1)) {
          index[d] = rng.Bernoulli(0.5) ? -1 : shape.dim(d);
        }
        set->Insert(index);
        builder->Insert(index);
        if (shape.Contains(index)) {
          model->insert(shape.Linearize(index));
        }
        break;
      }
      case 1:
        set->InsertLinear(cursor);
        builder->InsertLinear(cursor);
        model->insert(cursor);
        break;
      default: {
        const int64_t end = std::min(n, cursor + rng.UniformInt(0, 9));
        set->InsertRun(cursor, end);
        builder->InsertRun(cursor, end);
        for (int64_t id = cursor; id < end; ++id) {
          model->insert(id);
        }
        break;
      }
    }
  }
}

TEST(IndexSetModelTest, InsertAndBuilderMatchStdSet) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Shape shape = RandomShape(rng);
    IndexSet set(shape);
    IndexSet::Builder builder(shape);
    std::set<int64_t> model;
    // The first and last ids, then random order.
    set.InsertLinear(shape.NumElements() - 1);
    builder.InsertLinear(shape.NumElements() - 1);
    model.insert(shape.NumElements() - 1);
    RandomInserts(rng, static_cast<int>(rng.UniformInt(0, 400)), &set,
                  &builder, &model);
    set.InsertLinear(0);
    builder.InsertLinear(0);
    model.insert(0);
    ExpectMatchesModel(set, model);
    const IndexSet built = builder.Build();
    EXPECT_EQ(built.shape(), shape);
    ExpectMatchesModel(built, model);
    // Build() leaves the builder empty and reusable.
    EXPECT_TRUE(builder.Build().empty());
  }
}

TEST(IndexSetModelTest, BuilderCoalescesLongDuplicateStreams) {
  // Far more pending runs than the coalescing threshold, nearly all
  // duplicates: the result is still exact.
  const Shape shape{64, 64};
  Rng rng(7);
  IndexSet::Builder builder(shape);
  std::set<int64_t> model;
  for (int i = 0; i < 300000; ++i) {
    const int64_t id = rng.UniformInt(0, 1023) * 4;
    builder.InsertLinear(id);
    model.insert(id);
  }
  ExpectMatchesModel(builder.Build(), model);
}

TEST(IndexSetModelTest, SetOperationsMatchStdSet) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(100 + seed);
    const Shape shape = RandomShape(rng);
    const int64_t n = shape.NumElements();
    auto random_set = [&rng, &shape](std::set<int64_t>* model) {
      IndexSet set(shape);
      IndexSet::Builder unused(shape);
      RandomInserts(rng, static_cast<int>(rng.UniformInt(0, 200)), &set,
                    &unused, model);
      return set;
    };
    std::set<int64_t> a_model;
    std::set<int64_t> b_model;
    const IndexSet a = random_set(&a_model);
    const IndexSet b = random_set(&b_model);

    std::set<int64_t> common;
    std::set_intersection(a_model.begin(), a_model.end(), b_model.begin(),
                          b_model.end(), std::inserter(common, common.end()));
    EXPECT_EQ(a.IntersectionSize(b), static_cast<int64_t>(common.size()));
    EXPECT_EQ(b.IntersectionSize(a), static_cast<int64_t>(common.size()));
    EXPECT_EQ(a.IsSubsetOf(b), std::includes(b_model.begin(), b_model.end(),
                                             a_model.begin(), a_model.end()));
    EXPECT_EQ(b.IsSubsetOf(a), std::includes(a_model.begin(), a_model.end(),
                                             b_model.begin(), b_model.end()));
    EXPECT_TRUE(a.IsSubsetOf(a));

    std::set<int64_t> a_minus_b;
    std::set_difference(a_model.begin(), a_model.end(), b_model.begin(),
                        b_model.end(),
                        std::inserter(a_minus_b, a_minus_b.end()));
    ExpectMatchesModel(a.Difference(b), a_minus_b);
    EXPECT_TRUE(a.Difference(a).empty());
    ExpectMatchesModel(a.Difference(IndexSet()), a_model);

    // Union into a default-constructed set adopts the shape.
    IndexSet adopted;
    adopted.Union(a);
    if (!a.empty()) {
      EXPECT_EQ(adopted.shape(), shape);
    }
    ExpectMatchesModel(adopted.empty() ? a : adopted, a_model);

    // A general union.
    IndexSet merged = a;
    merged.Union(b);
    std::set<int64_t> merged_model = a_model;
    merged_model.insert(b_model.begin(), b_model.end());
    ExpectMatchesModel(merged, merged_model);

    // A contained other: every second member of `merged`.
    IndexSet contained(shape);
    int k = 0;
    for (int64_t id : merged_model) {
      if (k++ % 2 == 0) {
        contained.InsertLinear(id);
      }
    }
    EXPECT_TRUE(contained.IsSubsetOf(merged));
    IndexSet unchanged = merged;
    unchanged.Union(contained);
    ExpectMatchesModel(unchanged, merged_model);

    // A disjoint other: every id `merged` lacks.
    IndexSet disjoint(shape);
    for (int64_t id = 0; id < n; ++id) {
      if (merged_model.count(id) == 0) {
        disjoint.InsertLinear(id);
      }
    }
    EXPECT_EQ(merged.IntersectionSize(disjoint), 0);
    IndexSet full = merged;
    full.Union(disjoint);
    EXPECT_EQ(full.num_runs(), 1u);
    std::set<int64_t> all;
    for (int64_t id = 0; id < n; ++id) {
      all.insert(id);
    }
    ExpectMatchesModel(full, all);
    disjoint.Union(merged);
    ExpectMatchesModel(disjoint, all);
  }
}

// ----------------------------------------------------------------- DType --

TEST(DTypeTest, Sizes) {
  EXPECT_EQ(DTypeSize(DType::kInt32), 4);
  EXPECT_EQ(DTypeSize(DType::kInt64), 8);
  EXPECT_EQ(DTypeSize(DType::kFloat32), 4);
  EXPECT_EQ(DTypeSize(DType::kFloat64), 8);
  // The paper assumes 16-byte long double elements (Section V-B).
  EXPECT_EQ(DTypeSize(DType::kFloat128), 16);
}

TEST(DTypeTest, NamesAndValidity) {
  EXPECT_EQ(DTypeName(DType::kFloat128), "float128");
  EXPECT_TRUE(IsValidDType(0));
  EXPECT_TRUE(IsValidDType(4));
  EXPECT_FALSE(IsValidDType(5));
}

// --------------------------------------------------------------- Layouts --

TEST(RowMajorLayoutTest, OffsetsAreContiguous) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  EXPECT_EQ(layout.PayloadBytes(), 128);
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 0}), 0);
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 1}), 8);
  EXPECT_EQ(layout.ByteOffsetOf(Index{1, 0}), 32);
}

TEST(RowMajorLayoutTest, InverseMapping) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  StatusOr<Index> index = layout.IndexOfByteOffset(33);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, (Index{1, 0}));  // Offset mid-element maps to element.
  EXPECT_FALSE(layout.IndexOfByteOffset(-1).ok());
  EXPECT_FALSE(layout.IndexOfByteOffset(128).ok());
}

TEST(ChunkedLayoutTest, GridDims) {
  ChunkedLayout layout(Shape{10, 10}, DType::kFloat64, {4, 4});
  EXPECT_EQ(layout.ChunkGridDim(0), 3);
  EXPECT_EQ(layout.ChunkGridDim(1), 3);
  // 9 chunks, each padded to 16 elements.
  EXPECT_EQ(layout.PayloadBytes(), 9 * 16 * 8);
}

TEST(ChunkedLayoutTest, ChunkInteriorIsContiguous) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat64, {4, 4});
  const int64_t base = layout.ByteOffsetOf(Index{0, 0});
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 1}) - base, 8);
  EXPECT_EQ(layout.ByteOffsetOf(Index{1, 0}) - base, 32);
  // Next chunk starts a full chunk later.
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 4}), 16 * 8);
}

TEST(ChunkedLayoutTest, PaddingBytesMapToNoElement) {
  ChunkedLayout layout(Shape{3, 3}, DType::kFloat64, {2, 2});
  // Chunk grid is 2x2; the element (0,0) of chunk (1,1) is index (2,2), and
  // its chunk-mate slot for (2,3) -> index (2,3) exists, but (3,3) is pure
  // padding.
  int pad_slots = 0;
  for (int64_t offset = 0; offset < layout.PayloadBytes(); offset += 8) {
    StatusOr<Index> index = layout.IndexOfByteOffset(offset);
    if (!index.ok()) {
      EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
      ++pad_slots;
    }
  }
  // 4 chunks x 4 slots = 16 slots for 9 elements -> 7 padding slots.
  EXPECT_EQ(pad_slots, 7);
}

using LayoutParam = std::tuple<std::vector<int64_t>, std::vector<int64_t>,
                               DType>;

class ChunkedRoundTripTest : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(ChunkedRoundTripTest, OffsetIndexRoundTrips) {
  const auto& [dims, chunks, dtype] = GetParam();
  ChunkedLayout layout(Shape(dims), dtype, chunks);
  layout.shape().ForEachIndex([&layout](const Index& index) {
    const int64_t offset = layout.ByteOffsetOf(index);
    EXPECT_GE(offset, 0);
    EXPECT_LT(offset, layout.PayloadBytes());
    StatusOr<Index> back = layout.IndexOfByteOffset(offset);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, index);
  });
}

TEST_P(ChunkedRoundTripTest, OffsetsAreUnique) {
  const auto& [dims, chunks, dtype] = GetParam();
  ChunkedLayout layout(Shape(dims), dtype, chunks);
  std::vector<int64_t> offsets;
  layout.shape().ForEachIndex([&layout, &offsets](const Index& index) {
    offsets.push_back(layout.ByteOffsetOf(index));
  });
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()),
            offsets.end());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChunkedRoundTripTest,
    ::testing::Values(
        LayoutParam{{8, 8}, {4, 4}, DType::kFloat64},
        LayoutParam{{10, 10}, {4, 4}, DType::kFloat128},
        LayoutParam{{7, 5}, {3, 2}, DType::kInt32},
        LayoutParam{{6, 6, 6}, {2, 3, 4}, DType::kFloat64},
        LayoutParam{{5, 5, 5}, {2, 2, 2}, DType::kFloat32},
        LayoutParam{{9}, {4}, DType::kInt64}));

TEST(LayoutTest, ElementsInByteRange) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  std::vector<Index> elements;
  // Bytes [4, 20) touch elements 0, 1, 2 (element 2 partially).
  layout.ElementsInByteRange(4, 20, &elements);
  ASSERT_EQ(elements.size(), 3u);
  EXPECT_EQ(elements[0], (Index{0, 0}));
  EXPECT_EQ(elements[2], (Index{0, 2}));
}

TEST(LayoutTest, ElementsInByteRangeClipsToPayload) {
  RowMajorLayout layout(Shape{2, 2}, DType::kFloat64);
  std::vector<Index> elements;
  layout.ElementsInByteRange(-100, 1000, &elements);
  EXPECT_EQ(elements.size(), 4u);
  elements.clear();
  layout.ElementsInByteRange(50, 40, &elements);
  EXPECT_TRUE(elements.empty());
}

TEST(LayoutTest, ByteRangeOfCoversElement) {
  ChunkedLayout layout(Shape{4, 4}, DType::kFloat128, {2, 2});
  const Interval range = layout.ByteRangeOf(Index{3, 3});
  EXPECT_EQ(range.length(), 16);
  StatusOr<Index> back = layout.IndexOfByteOffset(range.begin);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (Index{3, 3}));
}

TEST(LayoutTest, MakeLayoutFactory) {
  std::unique_ptr<Layout> row =
      MakeLayout(LayoutKind::kRowMajor, Shape{4, 4}, DType::kFloat64);
  EXPECT_NE(dynamic_cast<RowMajorLayout*>(row.get()), nullptr);
  std::unique_ptr<Layout> chunked =
      MakeLayout(LayoutKind::kChunked, Shape{4, 4}, DType::kFloat64, {2, 2});
  EXPECT_NE(dynamic_cast<ChunkedLayout*>(chunked.get()), nullptr);
}

// ------------------------------------------------------------- DataArray --

TEST(DataArrayTest, ZeroInitialized) {
  DataArray array(Shape{3, 3});
  EXPECT_DOUBLE_EQ(array.At(Index{1, 1}), 0.0);
  EXPECT_EQ(array.dtype(), DType::kFloat128);
}

TEST(DataArrayTest, SetAndGet) {
  DataArray array(Shape{3, 3}, DType::kFloat64);
  array.Set(Index{2, 1}, 3.5);
  EXPECT_DOUBLE_EQ(array.At(Index{2, 1}), 3.5);
  EXPECT_DOUBLE_EQ(array.AtLinear(array.shape().Linearize(Index{2, 1})), 3.5);
}

TEST(DataArrayTest, FillWithFunction) {
  DataArray array(Shape{4, 4});
  array.FillWith([](const Index& index) {
    return static_cast<double>(index[0] * 10 + index[1]);
  });
  EXPECT_DOUBLE_EQ(array.At(Index{3, 2}), 32.0);
}

TEST(DataArrayTest, FillPatternIsDeterministic) {
  DataArray a(Shape{8, 8});
  DataArray b(Shape{8, 8});
  a.FillPattern(5);
  b.FillPattern(5);
  EXPECT_EQ(a.values(), b.values());
  DataArray c(Shape{8, 8});
  c.FillPattern(6);
  EXPECT_NE(a.values(), c.values());
}

}  // namespace
}  // namespace kondo
