#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "pivot/support/bitset.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/ids.h"
#include "pivot/support/rng.h"
#include "pivot/support/table.h"

namespace pivot {
namespace {

// --- ids ---

TEST(Ids, DefaultIsInvalid) {
  StmtId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(static_cast<bool>(id));
  EXPECT_EQ(id, kNoStmt);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  StmtId s(1);
  ExprId e(1);
  EXPECT_TRUE(s.valid());
  EXPECT_TRUE(e.valid());
  // (s == e) must not compile; checked by design, not by the test.
  EXPECT_EQ(s.value(), e.value());
}

TEST(Ids, OrderingAndHash) {
  StmtId a(1), b(2), c(1);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  std::unordered_set<StmtId> set{a, b, c};
  EXPECT_EQ(set.size(), 2u);
}

// --- diagnostics ---

TEST(Diagnostics, CheckFailureThrowsInternalError) {
  EXPECT_THROW(PIVOT_CHECK(1 == 2), InternalError);
}

TEST(Diagnostics, CheckMessageIsIncluded) {
  try {
    PIVOT_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Diagnostics, ProgramErrorCarriesLine) {
  ProgramError err("bad token", 7);
  EXPECT_EQ(err.line(), 7);
  EXPECT_NE(std::string(err.what()).find("line 7"), std::string::npos);
}

TEST(Diagnostics, ProgramErrorWithoutLine) {
  ProgramError err("plain");
  EXPECT_STREQ(err.what(), "plain");
}

// --- rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(-3, 4);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformReal();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --- bitset ---

TEST(Bitset, SetTestReset) {
  DenseBitset bits(130);
  EXPECT_FALSE(bits.Any());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(Bitset, SetAllRespectsLogicalSize) {
  DenseBitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
}

TEST(Bitset, UnionIntersectSubtract) {
  DenseBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);

  DenseBitset u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.ToIndices(), (std::vector<std::size_t>{1, 50, 99}));

  DenseBitset i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.ToIndices(), (std::vector<std::size_t>{50}));

  DenseBitset d = a;
  d.SubtractWith(b);
  EXPECT_EQ(d.ToIndices(), (std::vector<std::size_t>{1}));
}

TEST(Bitset, TransferComputesGenKill) {
  DenseBitset in(10), gen(10), kill(10), out(10);
  in.Set(1);
  in.Set(2);
  kill.Set(2);
  gen.Set(5);
  EXPECT_TRUE(DenseBitset::Transfer(in, gen, kill, out));
  EXPECT_EQ(out.ToIndices(), (std::vector<std::size_t>{1, 5}));
  // Second application: no change.
  EXPECT_FALSE(DenseBitset::Transfer(in, gen, kill, out));
}

TEST(Bitset, EqualityAndToString) {
  DenseBitset a(5), b(5);
  a.Set(3);
  b.Set(3);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.ToString(), "{3}");
  b.Set(0);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(b.ToString(), "{0, 3}");
}

TEST(Bitset, OutOfRangeChecks) {
  DenseBitset bits(4);
  EXPECT_THROW(bits.Set(4), InternalError);
  EXPECT_THROW(bits.Test(100), InternalError);
}

// --- table ---

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Name", "Val"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Name  | Val"), std::string::npos);
  EXPECT_NE(out.find("alpha | 1"), std::string::npos);
  EXPECT_NE(out.find("b     | 22"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  TextTable t({"A", "B", "C"});
  t.AddRow({"x"});
  EXPECT_NO_THROW(t.Render());
}

}  // namespace
}  // namespace pivot
