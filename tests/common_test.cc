#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/byte_codec.h"
#include "common/interval_set.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace kondo {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad thing");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, DataMissingIsDistinctCode) {
  Status status = DataMissingError("hole");
  EXPECT_EQ(status.code(), StatusCode::kDataMissing);
  EXPECT_EQ(StatusCodeToString(status.code()), "DATA_MISSING");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == InternalError("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

Status FailsIfNegative(int x) {
  if (x < 0) {
    return OutOfRangeError("negative");
  }
  return OkStatus();
}

Status UsesReturnIfError(int x) {
  KONDO_RETURN_IF_ERROR(FailsIfNegative(x));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

// -------------------------------------------------------------- StatusOr --

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgumentError("not positive");
  }
  return x;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 5);
  EXPECT_EQ(result.value(), 5);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> DoublesViaAssignOrReturn(int x) {
  KONDO_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnHappyPath) {
  StatusOr<int> result = DoublesViaAssignOrReturn(4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 8);
}

TEST(StatusOrTest, AssignOrReturnPropagatesError) {
  EXPECT_EQ(DoublesViaAssignOrReturn(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = *std::move(result);
  EXPECT_EQ(*value, 7);
}

TEST(StatusOrTest, OkStatusConstructionIsInternalError) {
  StatusOr<int> result{OkStatus()};
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 12);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 12);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.UniformInt(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, UniformDoubleStaysInRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// ----------------------------------------------------------- IntervalSet --

TEST(IntervalTest, BasicPredicates) {
  const Interval iv{10, 20};
  EXPECT_EQ(iv.length(), 10);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.Contains(10));
  EXPECT_TRUE(iv.Contains(19));
  EXPECT_FALSE(iv.Contains(20));
  EXPECT_TRUE(iv.Overlaps(Interval{19, 25}));
  EXPECT_FALSE(iv.Overlaps(Interval{20, 25}));
  EXPECT_TRUE(iv.Touches(Interval{20, 25}));
}

TEST(IntervalSetTest, PaperWorkedExample) {
  // e1(0,110), e2(70,30), e3(130,20), e4(90,30) -> (0,120) and (130,150).
  IntervalSet set;
  set.Add(0, 110);
  set.Add(70, 100);
  set.Add(130, 150);
  set.Add(90, 120);
  EXPECT_EQ(set.ToString(), "[0,120) [130,150)");
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.TotalLength(), 140);
}

TEST(IntervalSetTest, IgnoresEmptyIntervals) {
  IntervalSet set;
  set.Add(5, 5);
  set.Add(7, 3);
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSetTest, CoalescesTouchingIntervals) {
  IntervalSet set;
  set.Add(0, 10);
  set.Add(10, 20);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.ContainsRange(0, 20));
}

TEST(IntervalSetTest, KeepsGaps) {
  IntervalSet set;
  set.Add(0, 10);
  set.Add(11, 20);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.Contains(10));
}

TEST(IntervalSetTest, AbsorbsMultipleSuccessors) {
  IntervalSet set;
  set.Add(0, 2);
  set.Add(4, 6);
  set.Add(8, 10);
  set.Add(1, 9);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.TotalLength(), 10);
}

TEST(IntervalSetTest, ContainsAndIntersects) {
  IntervalSet set;
  set.Add(10, 20);
  set.Add(30, 40);
  EXPECT_TRUE(set.Contains(15));
  EXPECT_FALSE(set.Contains(25));
  EXPECT_TRUE(set.ContainsRange(31, 39));
  EXPECT_FALSE(set.ContainsRange(15, 35));
  EXPECT_TRUE(set.Intersects(19, 31));
  EXPECT_FALSE(set.Intersects(20, 30));
  EXPECT_FALSE(set.Intersects(25, 25));
}

TEST(IntervalSetTest, UnionMergesSets) {
  IntervalSet a;
  a.Add(0, 10);
  IntervalSet b;
  b.Add(5, 15);
  b.Add(20, 25);
  a.Union(b);
  EXPECT_EQ(a.ToString(), "[0,15) [20,25)");
}

TEST(IntervalSetTest, InOrderAndShuffledAddsAgree) {
  // Ascending adds take the append fast path (extend the last interval or
  // add one after it); the same adds shuffled take the general path.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Interval> adds;
    int64_t begin = 0;
    for (int i = 0; i < 60; ++i) {
      begin += rng.UniformInt(0, 6);  // Repeats, overlaps, touches, gaps.
      adds.push_back(Interval{begin, begin + rng.UniformInt(0, 8)});
    }
    IntervalSet in_order;
    for (const Interval& add : adds) {
      in_order.Add(add);
    }
    rng.Shuffle(adds);
    IntervalSet shuffled;
    for (const Interval& add : adds) {
      shuffled.Add(add);
    }
    EXPECT_EQ(in_order, shuffled) << in_order.ToString() << " vs "
                                  << shuffled.ToString();
  }
}

TEST(IntervalSetTest, RandomizedAgainstBruteForce) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet set;
    std::vector<bool> covered(200, false);
    for (int i = 0; i < 30; ++i) {
      const int64_t begin = rng.UniformInt(0, 180);
      const int64_t end = begin + rng.UniformInt(0, 19);
      set.Add(begin, end);
      for (int64_t x = begin; x < end; ++x) {
        covered[static_cast<size_t>(x)] = true;
      }
    }
    int64_t expected_length = 0;
    for (int x = 0; x < 200; ++x) {
      EXPECT_EQ(set.Contains(x), covered[static_cast<size_t>(x)])
          << "x=" << x << " trial=" << trial;
      expected_length += covered[static_cast<size_t>(x)] ? 1 : 0;
    }
    EXPECT_EQ(set.TotalLength(), expected_length);
    // Intervals must be disjoint, sorted, and non-touching.
    const std::vector<Interval> intervals = set.ToIntervals();
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GT(intervals[i].begin, intervals[i - 1].end);
    }
  }
}

// ---------------------------------------- IntervalSet against std::set --

// Model values lie in [kModelLo, kModelHi); probes reach one step past.
constexpr int64_t kModelLo = -64;
constexpr int64_t kModelHi = 64;

// The maximal runs of consecutive values of `model`.
std::vector<Interval> ModelRuns(const std::set<int64_t>& model) {
  std::vector<Interval> runs;
  for (const int64_t x : model) {
    if (!runs.empty() && runs.back().end == x) {
      ++runs.back().end;
    } else {
      runs.push_back(Interval{x, x + 1});
    }
  }
  return runs;
}

// Checks every observer of `set` against the model.
void ExpectMatchesModel(const IntervalSet& set,
                        const std::set<int64_t>& model) {
  EXPECT_EQ(set.ToIntervals(), ModelRuns(model));
  EXPECT_EQ(set.size(), ModelRuns(model).size());
  EXPECT_EQ(set.empty(), model.empty());
  EXPECT_EQ(set.TotalLength(), static_cast<int64_t>(model.size()));
  // below[x - kModelLo + 1] = number of members < x, for every probe x.
  std::vector<int64_t> below = {0};
  for (int64_t x = kModelLo - 1; x <= kModelHi; ++x) {
    ASSERT_EQ(set.Contains(x), model.count(x) > 0) << "x=" << x;
    below.push_back(below.back() + static_cast<int64_t>(model.count(x)));
  }
  for (int64_t begin = kModelLo - 1; begin <= kModelHi + 1; ++begin) {
    for (int64_t end = begin - 1; end <= kModelHi + 1; ++end) {
      const int64_t covered =
          end <= begin ? 0 : below[end - kModelLo + 1] -
                                 below[begin - kModelLo + 1];
      ASSERT_EQ(set.ContainsRange(begin, end),
                end <= begin || covered == end - begin)
          << "[" << begin << "," << end << ")";
      ASSERT_EQ(set.Intersects(begin, end), covered > 0)
          << "[" << begin << "," << end << ")";
    }
  }
}

// `count` random intervals inside the model range, clustered so that they
// repeat, overlap, touch and leave gaps; some are empty or reversed.
std::vector<Interval> RandomIntervals(Rng& rng, int count) {
  std::vector<Interval> intervals;
  int64_t cursor = rng.UniformInt(kModelLo, kModelHi - 1);
  for (int i = 0; i < count; ++i) {
    cursor = rng.Bernoulli(0.2) ? rng.UniformInt(kModelLo, kModelHi - 1)
                                : std::clamp<int64_t>(
                                      cursor + rng.UniformInt(-6, 8),
                                      kModelLo, kModelHi - 1);
    const int64_t end =
        std::min(kModelHi, cursor + rng.UniformInt(-2, 9));
    intervals.push_back(Interval{cursor, end});
  }
  return intervals;
}

void AddToModel(const std::vector<Interval>& intervals,
                std::set<int64_t>* model) {
  for (const Interval& interval : intervals) {
    for (int64_t x = interval.begin; x < interval.end; ++x) {
      model->insert(x);
    }
  }
}

IntervalSet BuildRandom(Rng& rng, std::set<int64_t>* model) {
  const std::vector<Interval> intervals =
      RandomIntervals(rng, static_cast<int>(rng.UniformInt(0, 40)));
  AddToModel(intervals, model);
  IntervalSet::Builder builder;
  for (const Interval& interval : intervals) {
    builder.Add(interval);
  }
  return builder.Build();
}

TEST(IntervalSetModelTest, AddAndBuilderMatchStdSet) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Interval> intervals =
        RandomIntervals(rng, static_cast<int>(rng.UniformInt(0, 80)));
    std::set<int64_t> model;
    AddToModel(intervals, &model);

    // Ascending by begin: every add takes the at-or-past-the-end path.
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    IntervalSet in_order;
    for (const Interval& interval : intervals) {
      in_order.Add(interval);
    }
    ExpectMatchesModel(in_order, model);

    rng.Shuffle(intervals);
    IntervalSet shuffled;
    IntervalSet::Builder builder;
    for (const Interval& interval : intervals) {
      shuffled.Add(interval);
      builder.Add(interval);
    }
    ExpectMatchesModel(shuffled, model);
    ExpectMatchesModel(builder.Build(), model);
    // Build() leaves the builder empty and reusable.
    EXPECT_TRUE(builder.Build().empty());
  }
}

TEST(IntervalSetModelTest, SetOperationsMatchStdSet) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(100 + seed);
    std::set<int64_t> a_model;
    std::set<int64_t> b_model;
    const IntervalSet a = BuildRandom(rng, &a_model);
    const IntervalSet b = BuildRandom(rng, &b_model);

    std::set<int64_t> common;
    std::set_intersection(a_model.begin(), a_model.end(), b_model.begin(),
                          b_model.end(), std::inserter(common, common.end()));
    EXPECT_EQ(a.IntersectionLength(b), static_cast<int64_t>(common.size()));
    EXPECT_EQ(b.IntersectionLength(a), static_cast<int64_t>(common.size()));
    EXPECT_EQ(a.IsSubsetOf(b), std::includes(b_model.begin(), b_model.end(),
                                             a_model.begin(), a_model.end()));
    EXPECT_EQ(b.IsSubsetOf(a), std::includes(a_model.begin(), a_model.end(),
                                             b_model.begin(), b_model.end()));
    EXPECT_TRUE(a.IsSubsetOf(a));
    EXPECT_TRUE(IntervalSet().IsSubsetOf(a));

    std::set<int64_t> a_minus_b;
    std::set_difference(a_model.begin(), a_model.end(), b_model.begin(),
                        b_model.end(),
                        std::inserter(a_minus_b, a_minus_b.end()));
    ExpectMatchesModel(a.Difference(b), a_minus_b);
    EXPECT_TRUE(a.Difference(a).empty());
    ExpectMatchesModel(a.Difference(IntervalSet()), a_model);

    std::set<int64_t> both = a_model;
    both.insert(b_model.begin(), b_model.end());
    IntervalSet a_then_b = a;
    a_then_b.Union(b);
    ExpectMatchesModel(a_then_b, both);
    IntervalSet b_then_a = b;
    b_then_a.Union(a);
    ExpectMatchesModel(b_then_a, both);
    IntervalSet into_empty;
    into_empty.Union(a);
    ExpectMatchesModel(into_empty, a_model);
    a_then_b.Union(a);  // Already contained: unchanged.
    ExpectMatchesModel(a_then_b, both);

    // `a` cut in two at a random value, so that the halves often touch:
    // their union must rejoin a run split by the cut.
    const int64_t cut = rng.UniformInt(kModelLo, kModelHi);
    IntervalSet::Builder low_builder;
    IntervalSet::Builder high_builder;
    for (const int64_t x : a_model) {
      (x < cut ? low_builder : high_builder).Add(x, x + 1);
    }
    IntervalSet low = low_builder.Build();
    IntervalSet high = high_builder.Build();
    IntervalSet high_then_low = high;
    high_then_low.Union(low);
    ExpectMatchesModel(high_then_low, a_model);
    low.Union(high);
    ExpectMatchesModel(low, a_model);
  }
}

TEST(IntervalSetModelTest, RunsAtTheInt64Limits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Interval> adds = {
      {kMax - 10, kMax}, {-5, 5}, {kMin, kMin + 10}, {kMin + 4, kMin + 6}};
  IntervalSet set;
  IntervalSet::Builder builder;
  for (const Interval& add : adds) {
    set.Add(add);
    builder.Add(add);
  }
  const std::vector<Interval> runs = {
      {kMin, kMin + 10}, {-5, 5}, {kMax - 10, kMax}};
  EXPECT_EQ(set.ToIntervals(), runs);
  EXPECT_EQ(builder.Build(), set);
  EXPECT_EQ(set.TotalLength(), 30);
  EXPECT_TRUE(set.Contains(kMin));
  EXPECT_TRUE(set.Contains(kMax - 1));
  EXPECT_FALSE(set.Contains(kMax));
  EXPECT_TRUE(set.ContainsRange(kMin, kMin + 10));
  EXPECT_FALSE(set.ContainsRange(kMin, kMin + 11));
  EXPECT_TRUE(set.ContainsRange(kMax - 10, kMax));
  EXPECT_TRUE(set.Intersects(kMin, kMin + 1));
  EXPECT_TRUE(set.Intersects(kMax - 1, kMax));
  EXPECT_FALSE(set.Intersects(kMin + 10, -5));

  // One run over every value but INT64_MAX, built from two halves.
  IntervalSet full;
  full.Add(0, kMax);
  full.Add(kMin, 0);
  EXPECT_EQ(full.ToIntervals(), (std::vector<Interval>{{kMin, kMax}}));
  EXPECT_TRUE(full.ContainsRange(kMin, kMax));
  EXPECT_FALSE(full.Contains(kMax));
  EXPECT_TRUE(set.IsSubsetOf(full));
  EXPECT_FALSE(full.IsSubsetOf(set));
  EXPECT_EQ(set.IntersectionLength(full), 30);
  EXPECT_EQ(full.IntersectionLength(set), 30);
  EXPECT_EQ(full.Difference(set).ToIntervals(),
            (std::vector<Interval>{{kMin + 10, -5}, {5, kMax - 10}}));
  EXPECT_TRUE(set.Difference(full).empty());
  IntervalSet merged = set;
  merged.Union(full);
  EXPECT_EQ(merged, full);
  full.Union(set);
  EXPECT_EQ(full.ToIntervals(), (std::vector<Interval>{{kMin, kMax}}));
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, StrSplitBasic) {
  const std::vector<std::string> pieces = StrSplit("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
}

TEST(StringsTest, StrSplitNoDelimiter) {
  const std::vector<std::string> pieces = StrSplit("abc", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "abc");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("PARAM [1-2]", "PARAM"));
  EXPECT_FALSE(StartsWith("PAR", "PARAM"));
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64(" -17 ", &value));
  EXPECT_EQ(value, -17);
  EXPECT_FALSE(ParseInt64("4x", &value));
  EXPECT_FALSE(ParseInt64("", &value));
  EXPECT_FALSE(ParseInt64("3.5", &value));
}

TEST(StringsTest, ParseDouble) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &value));
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_TRUE(ParseDouble("-2", &value));
  EXPECT_DOUBLE_EQ(value, -2.0);
  EXPECT_FALSE(ParseDouble("nope", &value));
  EXPECT_FALSE(ParseDouble("1.2.3", &value));
}

// --------------------------------------------------------------- Logging --

TEST(LoggingTest, SeverityThresholdRoundTrips) {
  const LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(original);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ KONDO_CHECK_EQ(1, 2) << "boom"; }, "Check failed");
}

// ------------------------------------------------------------ ByteCursor --

TEST(VarintTest, RoundTripBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) {
    AppendVarint(v, &buf);
  }
  ByteCursor cursor(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(cursor.ReadVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(cursor.Done().ok());
}

TEST(VarintTest, RoundTripRandomSigned) {
  Rng rng(7);
  std::string buf;
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes so every varint length is exercised.
    const int shift = static_cast<int>(rng.UniformInt(0, 62));
    int64_t v = static_cast<int64_t>(rng.NextU64() >> shift);
    if (rng.Bernoulli(0.5)) {
      v = -v;
    }
    values.push_back(v);
    AppendSignedVarint(v, &buf);
  }
  values.push_back(std::numeric_limits<int64_t>::min());
  AppendSignedVarint(values.back(), &buf);
  values.push_back(std::numeric_limits<int64_t>::max());
  AppendSignedVarint(values.back(), &buf);

  ByteCursor cursor(buf);
  for (int64_t v : values) {
    int64_t got = 0;
    ASSERT_TRUE(cursor.ReadSignedVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(cursor.Done().ok());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  AppendVarint(1ull << 40, &buf);
  ByteCursor cursor(std::string_view(buf).substr(0, buf.size() - 1));
  uint64_t value = 0;
  EXPECT_EQ(cursor.ReadVarint(&value).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cursor.remaining(), buf.size() - 1) << "a failed read consumes";
}

TEST(VarintTest, OverLongInputFails) {
  // Ten continuation bytes never terminate inside 64 bits.
  const std::string ten_continuations = std::string(10, '\x80') + '\x01';
  uint64_t value = 0;
  EXPECT_EQ(ByteCursor(ten_continuations).ReadVarint(&value).code(),
            StatusCode::kDataLoss);
  // A tenth byte above 1 would set bits past bit 63.
  const std::string overflowing = std::string(9, '\xff') + '\x02';
  EXPECT_EQ(ByteCursor(overflowing).ReadVarint(&value).code(),
            StatusCode::kDataLoss);
  int64_t signed_value = 0;
  EXPECT_EQ(ByteCursor(overflowing).ReadSignedVarint(&signed_value).code(),
            StatusCode::kDataLoss);
  // The longest valid encoding still decodes.
  const std::string max_value = std::string(9, '\xff') + '\x01';
  EXPECT_TRUE(ByteCursor(max_value).ReadVarint(&value).ok());
  EXPECT_EQ(value, std::numeric_limits<uint64_t>::max());
}

TEST(VarintTest, SmallMagnitudesStayShort) {
  std::string buf;
  AppendSignedVarint(-1, &buf);
  AppendSignedVarint(1, &buf);
  AppendSignedVarint(0, &buf);
  EXPECT_EQ(buf.size(), 3u);  // Zigzag keeps sign bits out of the way.
}

TEST(ByteCursorTest, FixedWidthValuesAreLittleEndian) {
  std::string buf;
  AppendU8(0xab, &buf);
  AppendU32(0x01020304u, &buf);
  AppendI64(-2, &buf);
  AppendF64(1.5, &buf);
  AppendString("kdp", &buf);
  EXPECT_EQ(buf.substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(buf.substr(5, 8), std::string("\xfe\xff\xff\xff\xff\xff\xff\xff"));
  EXPECT_EQ(buf.substr(13, 8), std::string("\0\0\0\0\0\0\xf8\x3f", 8));

  ByteCursor cursor(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string text;
  ASSERT_TRUE(cursor.ReadU8(&u8).ok());
  ASSERT_TRUE(cursor.ReadU32(&u32).ok());
  ASSERT_TRUE(cursor.ReadI64(&i64).ok());
  ASSERT_TRUE(cursor.ReadF64(&f64).ok());
  ASSERT_TRUE(cursor.ReadString(&text).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(i64, -2);
  EXPECT_EQ(f64, 1.5);
  EXPECT_EQ(text, "kdp");
  EXPECT_TRUE(cursor.Done().ok());
}

TEST(ByteCursorTest, EveryFixedWidthReadRejectsUnderrun) {
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  EXPECT_EQ(ByteCursor("").ReadU8(&u8).code(), StatusCode::kDataLoss);
  EXPECT_EQ(ByteCursor("abc").ReadU32(&u32).code(), StatusCode::kDataLoss);
  EXPECT_EQ(ByteCursor("1234567").ReadI64(&i64).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ByteCursor("1234567").ReadF64(&f64).code(),
            StatusCode::kDataLoss);
  // A string whose length prefix promises more bytes than remain.
  std::string buf;
  AppendU32(4, &buf);
  buf += "abc";
  std::string text;
  ByteCursor cursor(buf, "test payload");
  const Status status = cursor.ReadString(&text);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("test payload"), std::string::npos)
      << status;
  EXPECT_EQ(cursor.remaining(), buf.size()) << "the length prefix stays";
}

TEST(ByteCursorTest, ReadBytesPastTheEndFailsAndConsumesNothing) {
  ByteCursor cursor("abcd");
  const char* p = nullptr;
  EXPECT_EQ(cursor.ReadBytes(5, &p).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cursor.remaining(), 4u);
  ASSERT_TRUE(cursor.ReadBytes(4, &p).ok());
  EXPECT_EQ(std::string(p, 4), "abcd");
  EXPECT_EQ(cursor.ReadBytes(1, &p).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(cursor.ReadBytes(0, &p).ok());
}

TEST(ByteCursorTest, DoneRejectsTrailingBytes) {
  ByteCursor cursor("xy");
  uint8_t byte = 0;
  ASSERT_TRUE(cursor.ReadU8(&byte).ok());
  const Status status = cursor.Done();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("1 trailing bytes"), std::string::npos)
      << status;
  ASSERT_TRUE(cursor.ReadU8(&byte).ok());
  EXPECT_TRUE(cursor.Done().ok());
}

// -------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch stopwatch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
  EXPECT_GE(stopwatch.ElapsedMicros(), 0);
  stopwatch.Reset();
  EXPECT_LT(stopwatch.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace kondo
