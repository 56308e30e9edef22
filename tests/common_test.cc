#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"

namespace qdm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad qubit index");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad qubit index");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad qubit index");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, AsyncLifecycleFactories) {
  Status cancelled = Status::Cancelled("job 3 cancelled while queued");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: job 3 cancelled while queued");

  Status late = Status::DeadlineExceeded("deadline expired while queued");
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: deadline expired while queued");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("no such relation");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  QDM_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  Status s = UseAssignOrReturn(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0) && seen.count(3));
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeight) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Categorical({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// FNV-1a fold of a stream of 64-bit values: one number pins a long stream.
class Fold {
 public:
  void Add(uint64_t value) { hash_ = (hash_ ^ value) * 0x100000001b3ull; }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

const uint64_t kStreamSeeds[] = {0, 1, Rng::kDefaultSeed, ~uint64_t{0}};

TEST(RngTest, EngineMatchesStdMt19937_64) {
  // The standard fixes std::mt19937_64's output sequence, so the in-tree
  // engine must reproduce it exactly.
  for (const uint64_t seed : kStreamSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1000000; ++i) {
      const uint64_t ours = engine();
      const uint64_t theirs = reference();
      if (ours != theirs) {
        FAIL() << "seed " << seed << ", output " << i << ": " << ours
               << " != " << theirs;
      }
    }
  }
}

TEST(RngTest, UnitFromBitsRoundsToNearestAndStaysBelowOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  const uint64_t two_53 = uint64_t{1} << 53;
  const uint64_t top = ~uint64_t{0};
  EXPECT_EQ(Rng::UnitFromBits(0), 0.0);
  EXPECT_EQ(Rng::UnitFromBits(1), 0x1p-64);
  EXPECT_EQ(Rng::UnitFromBits(two_53 - 1), 0x1.fffffffffffffp-12);
  // Ties round to even: 2^53 + 1 -> 2^53, 2^53 + 3 -> 2^53 + 4.
  EXPECT_EQ(Rng::UnitFromBits(two_53 + 1), 0x1p-11);
  EXPECT_EQ(Rng::UnitFromBits(two_53 + 3), 0x1.0000000000002p-11);
  EXPECT_EQ(Rng::UnitFromBits((uint64_t{1} << 63) + 1), 0.5);
  EXPECT_EQ(Rng::UnitFromBits(top - 2047), below_one);  // 2^64 - 2048.
  // The top 1024 inputs round to 2^64 and are clamped below 1.0.
  EXPECT_EQ(Rng::UnitFromBits(top - 1023), below_one);  // 2^64 - 1024.
  EXPECT_EQ(Rng::UnitFromBits(top), below_one);

  // On random inputs it is the direct conversion, scaled and clamped.
  std::mt19937_64 engine(5);
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = engine();
    const double scaled = static_cast<double>(bits) * 0x1p-64;
    if (Bits(Rng::UnitFromBits(bits)) != Bits(std::min(scaled, below_one))) {
      FAIL() << "input " << bits;
    }
  }
}

TEST(RngTest, UniformMatchesRecordedBits) {
  // Per seed of kStreamSeeds: the bits of the first Uniform(), and the
  // fold of the first 10^5.
  const uint64_t kFirst[] = {0x3fc4741be2e5a0eeull, 0x3fc122deafddb438ull,
                             0x3fef83956afa7cf8ull, 0x3f9a8929e88fef22ull};
  const uint64_t kFolds[] = {0x4306f1f508b48a92ull, 0xa6f326ea2f330c21ull,
                             0x1ebcb8db35e7a6c4ull, 0xfb5adfc2a439fc3cull};
  for (int s = 0; s < 4; ++s) {
    Rng rng(kStreamSeeds[s]);
    Fold fold;
    for (int i = 0; i < 100000; ++i) {
      const uint64_t bits = Bits(rng.Uniform());
      if (i == 0) EXPECT_EQ(bits, kFirst[s]) << "seed " << kStreamSeeds[s];
      fold.Add(bits);
    }
    EXPECT_EQ(fold.hash(), kFolds[s]) << "seed " << kStreamSeeds[s];
  }
}

TEST(RngTest, DistributionsMatchRecordedStreams) {
  // Folds of 1000 draws each.
  Rng gaussian(7), uniform_int(8), exponential(9), categorical(10);
  Rng seeds(12), uniform_range(14), bernoulli(15);
  Fold folds[7];
  for (int i = 0; i < 1000; ++i) {
    folds[0].Add(Bits(gaussian.Gaussian()));
    folds[1].Add(static_cast<uint64_t>(uniform_int.UniformInt(-5, 1000)));
    folds[2].Add(Bits(exponential.Exponential(2.5)));
    folds[3].Add(categorical.Categorical({0.1, 0.0, 2.0, 0.7}));
    folds[4].Add(seeds.engine()());  // Per-shot seeds are raw outputs.
    folds[5].Add(Bits(uniform_range.Uniform(-3.0, 5.0)));
    folds[6].Add(bernoulli.Bernoulli(0.3));
  }
  EXPECT_EQ(folds[0].hash(), 0x121c145ec29ab2c3ull);
  EXPECT_EQ(folds[1].hash(), 0xe1b82cfd3d36deaaull);
  EXPECT_EQ(folds[2].hash(), 0x47b143fca7d0e2f0ull);
  EXPECT_EQ(folds[3].hash(), 0x022b6c6f2e1b281bull);
  EXPECT_EQ(folds[4].hash(), 0x09e9e40ea044a19bull);
  EXPECT_EQ(folds[5].hash(), 0x0581fb765c6a22f6ull);
  EXPECT_EQ(folds[6].hash(), 0x55eb7e5e69e21f09ull);

  Rng shuffle(11);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle.Shuffle(&items);
  EXPECT_EQ(items, (std::vector<int>{5, 8, 2, 7, 9, 0, 4, 3, 6, 1}));

  // Interleaved draws: Gaussian keeps the second value of each polar pair
  // across the other distributions' draws.
  Rng mixed(13);
  EXPECT_EQ(Bits(mixed.Uniform()), 0x3fe38774e8a3f2b7ull);
  EXPECT_EQ(Bits(mixed.Gaussian()), 0xbfd1003b1b26ce31ull);
  EXPECT_EQ(mixed.UniformInt(0, 9), 3);
  EXPECT_EQ(Bits(mixed.Gaussian()), 0xbfab1727998f8840ull);
  EXPECT_EQ(Bits(mixed.Gaussian()), 0x3fdb64b97734cdcaull);
  EXPECT_EQ(Bits(mixed.Uniform()), 0x3fef02c1c0d911c7ull);
  EXPECT_EQ(Bits(mixed.Exponential(1.0)), 0x3fc017335975049dull);
  EXPECT_EQ(mixed.UniformInt(-3, 3), 0);
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts{"a", "", "bc"};
  EXPECT_EQ(StrJoin(parts, ","), "a,,bc");
  EXPECT_EQ(StrSplit("a,,bc", ','), parts);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x y\t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_EQ(ToLower("QuBiT"), "qubit");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"N", "value"});
  t.AddRow({"8", "1"});
  t.AddRow({"1024", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("N     value"), std::string::npos);
  EXPECT_NE(s.find("1024  22"), std::string::npos);
}

}  // namespace
}  // namespace qdm
