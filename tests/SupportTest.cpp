//===- tests/SupportTest.cpp - Support library unit tests --------------------===//

#include "support/Casting.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace alf;

namespace {

TEST(StringUtilTest, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 7, "ok"), "x=7 y=ok");
  EXPECT_EQ(formatString("%05.1f", 2.25), "002.2");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Numbers) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(12.34), "+12.3%");
  EXPECT_EQ(formatPercent(-4.0), "-4.0%");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "12345"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name       value"), std::string::npos);
  EXPECT_NE(Out.find("a              1"), std::string::npos);
  EXPECT_NE(Out.find("long-name  12345"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TextTableTest, NoHeader) {
  TextTable T;
  T.addRow({"x", "y"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_EQ(OS.str(), "x  y\n");
}

TEST(RandomTest, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, KnownStream) {
  // Pin the SplitMix64 stream: the C harness emitted by the CEmitter
  // replicates this generator and must stay bit-identical.
  SplitMix64 R(0);
  EXPECT_EQ(R.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(R.next(), 0x6e789e6aa1b965f4ULL);
}

TEST(RandomTest, DoubleRanges) {
  SplitMix64 R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble(-1.0, 1.0);
    EXPECT_GE(V, -1.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RandomTest, BoundedValues) {
  SplitMix64 R(9);
  for (int I = 0; I < 100; ++I)
    EXPECT_LT(R.nextBounded(7), 7u);
}

// A small hierarchy to exercise the casting templates.
struct Base {
  enum class Kind { A, B } K;
  explicit Base(Kind K) : K(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->K == Kind::A; }
};
struct DerivedB : Base {
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->K == Kind::B; }
};

TEST(CastingTest, IsaCastDynCast) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_EQ(cast<DerivedA>(B), &A);
  EXPECT_EQ(dyn_cast<DerivedA>(B), &A);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  const Base *CB = &A;
  EXPECT_EQ(cast<DerivedA>(CB), &A);
  EXPECT_EQ(dyn_cast_if_present<DerivedA>(static_cast<Base *>(nullptr)),
            nullptr);
}

TEST(JsonTest, DeepNestingIsAPositionedError) {
  // 100,000 levels fit a 200 KB frame; each level costs the recursive
  // parser a few stack frames.
  const std::string Deep = std::string(100000, '[') + std::string(100000, ']');
  std::string Error;
  EXPECT_FALSE(json::parse(Deep, &Error).has_value());
  EXPECT_EQ(Error, "offset " + std::to_string(json::MaxNestingDepth) +
                       ": nesting deeper than " +
                       std::to_string(json::MaxNestingDepth) + " levels");

  // Objects count toward the same limit.
  std::string Objects;
  for (unsigned I = 0; I <= json::MaxNestingDepth; ++I)
    Objects += "{\"k\":";
  Objects += "1" + std::string(json::MaxNestingDepth + 1, '}');
  EXPECT_FALSE(json::parse(Objects).has_value());
}

TEST(JsonTest, NestingUpToTheLimitParses) {
  const unsigned N = json::MaxNestingDepth;
  auto V = json::parse(std::string(N, '[') + "7" + std::string(N, ']'));
  ASSERT_TRUE(V.has_value());
  const json::Value *Cur = &*V;
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(Cur->isArray());
    ASSERT_EQ(Cur->size(), 1u);
    Cur = &Cur->items()[0];
  }
  EXPECT_EQ(Cur->asNumber(), 7);
}

} // namespace
