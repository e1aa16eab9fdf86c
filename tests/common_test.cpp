// Unit tests for common/: rng, string utilities, serde, status, check.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/str_util.h"

namespace qpp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(19);
  const auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(HashTest, HashString64Stable) {
  EXPECT_EQ(HashString64("abc"), HashString64("abc"));
  EXPECT_NE(HashString64("abc"), HashString64("abd"));
  EXPECT_NE(HashString64(""), HashString64("a"));
}

TEST(HashTest, HashString64ContinuesAStream) {
  // The selection truth seeds hash key, '#' and salt as one stream.
  const std::string key = "store_sales|ss_quantity > 10";
  EXPECT_EQ(HashString64("sel", HashString64("#", HashString64(key))),
            HashString64(key + "#" + "sel"));
  EXPECT_EQ(HashString64("", HashString64(key)), HashString64(key));
}

TEST(StrUtilTest, CaseFoldedCompareMatchesToLowerAscii) {
  // The reference: a copy with every character through std::tolower (the
  // C locale's folding, which is ASCII's).
  const auto ToLowerAscii = [](std::string s) {
    for (char& c : s) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
  };
  const std::vector<std::string> words = {
      "", "a", "A", "ab", "aB", "b", "Orders", "ORDERS", "order", "orders_",
      "o_id", "O_ID9", "[", "`", "@", "\x80", "\xC9"};
  const LessIgnoreCaseAscii less;
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      const std::string la = ToLowerAscii(a);
      const std::string lb = ToLowerAscii(b);
      EXPECT_EQ(EqualsIgnoreCaseAscii(a, b), la == lb) << a << " " << b;
      EXPECT_EQ(less(a, b), la < lb) << a << " " << b;
    }
  }
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StrUtilTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.0), "00:00:00.000");
  EXPECT_EQ(FormatDuration(59.5), "00:00:59.500");
  EXPECT_EQ(FormatDuration(3661.25), "01:01:01.250");
  EXPECT_EQ(FormatDuration(2 * 3600.0), "02:00:00.000");
}

TEST(SerdeTest, RoundTripScalarsAndVectors) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.WriteU32(7);
    w.WriteU64(1ull << 40);
    w.WriteI64(-123);
    w.WriteDouble(3.5);
    w.WriteString("hello world");
    w.WriteString("");
    w.WriteDoubles({1.0, -2.0, 0.5});
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadU64(), 1ull << 40);
  EXPECT_EQ(r.ReadI64(), -123);
  EXPECT_EQ(r.ReadDouble(), 3.5);
  EXPECT_EQ(r.ReadString(), "hello world");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadDoubles(), (std::vector<double>{1.0, -2.0, 0.5}));
}

TEST(SerdeTest, TruncatedInputThrows) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.WriteU32(1);
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.ReadU32(), 1u);
  EXPECT_THROW(r.ReadU64(), CheckFailure);
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status e = Status::Error("boom");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Error("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().message(), "nope");
  EXPECT_THROW(err.value(), CheckFailure);
}

TEST(CheckTest, FiresWithMessage) {
  try {
    QPP_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace qpp
