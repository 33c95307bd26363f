#include <gtest/gtest.h>

#include <utility>

#include "core/color_number.h"
#include "core/entropy_bound.h"
#include "cq/chase.h"
#include "cq/parser.h"

namespace cqbounds {
namespace {

TEST(EntropyBoundTest, TriangleMatchesColorNumber) {
  // Without FDs, s(Q) should coincide with C(Q) = rho*(Q) = 3/2 (the AGM
  // bound is Shannon-derivable via Shearer's lemma).
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto s = EntropySizeBound(*q);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->value, Rational(3, 2));
}

TEST(EntropyBoundTest, NoFdFamiliesMatchColorNumber) {
  const char* queries[] = {
      "Q(X,Y) :- R(X), S(Y).",
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(A,B,C,D,E) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A).",
      "Q(X) :- R(X,Y).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    auto s = EntropySizeBound(*q);
    auto c = ColorNumberNoFds(*q);
    ASSERT_TRUE(s.ok()) << s.status();
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(s->value, c->value) << text;
  }
}

TEST(EntropyBoundTest, SimpleKeysMatchTheorem44) {
  // With simple keys the color bound is tight, so s(Q) == C(chase(Q)).
  const char* queries[] = {
      "Q(X,Y,Z) :- R(X,Y), S(Y,Z). key S: 1.",
      "Q(X,Y,Z) :- R(X,Y), R(X,Z). key R: 1.",
      "Q(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z). key R1: 1.",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    Query chased = Chase(*q);
    auto s = EntropySizeBound(chased);
    auto c = ColorNumberSimpleFds(*q);
    ASSERT_TRUE(s.ok()) << s.status() << " " << text;
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(s->value, c->value) << text;
  }
}

TEST(EntropyBoundTest, DominatesColorNumberWithCompoundFds) {
  // s(Q) >= C(chase(Q)) always (the color LP adds constraints).
  const char* queries[] = {
      "Q(X,Y,Z) :- R(X,Y,Z). fd R: 1,2 -> 3.",
      "Q(A,B,C,D) :- R(A,B,C), S(C,D). fd R: 1,2 -> 3.",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    Query chased = Chase(*q);
    auto s = EntropySizeBound(chased);
    auto c = ColorNumberDiagramLp(chased);
    ASSERT_TRUE(s.ok()) << s.status();
    ASSERT_TRUE(c.ok());
    EXPECT_GE(s->value, c->value) << text;
  }
}

TEST(EntropyBoundTest, FdsTightenTheBound) {
  // The keyed join drops s from 2 to 1.
  auto unkeyed = ParseQuery("Q(X,Y,Z) :- R(X,Y), S(Y,Z).");
  auto keyed = ParseQuery("Q(X,Y,Z) :- R(X,Y), S(Y,Z). key S: 1.");
  ASSERT_TRUE(unkeyed.ok());
  ASSERT_TRUE(keyed.ok());
  auto s_unkeyed = EntropySizeBound(*unkeyed);
  auto s_keyed = EntropySizeBound(Chase(*keyed));
  ASSERT_TRUE(s_unkeyed.ok());
  ASSERT_TRUE(s_keyed.ok());
  EXPECT_EQ(s_unkeyed->value, Rational(2));
  EXPECT_EQ(s_keyed->value, Rational(1));
}

TEST(EntropyBoundTest, LongCyclesMatchColorNumber) {
  // The cycle C_k has C = k/2 (Example 3.3 generalized); with no FDs the
  // Shannon LP meets it. 63 and 127 h-variables respectively.
  const std::pair<const char*, Rational> cases[] = {
      {"Q(A,B,C,D,E,F) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,F), W(F,A).",
       Rational(3)},
      {"Q(A,B,C,D,E,F,G) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,F), W(F,G), "
       "X(G,A).",
       Rational(7, 2)},
  };
  for (const auto& [text, expected] : cases) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    auto s = EntropySizeBound(Chase(*q));
    auto c = ColorNumberOfChase(*q);
    ASSERT_TRUE(s.ok()) << s.status() << " " << text;
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->value, expected) << text;
    EXPECT_EQ(s->value, c->value) << text;
  }
}

TEST(EntropyBoundTest, GuardOnLargeQueries) {
  // 9 distinct variables exceed the n <= 8 guard.
  auto q = ParseQuery(
      "Q(A,B,C,D,E,F,G,H,I) :- R(A,B,C), S(D,E,F), T(G,H,I).");
  ASSERT_TRUE(q.ok());
  auto s = EntropySizeBound(*q);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(EntropyBoundTest, ReportsLpShape) {
  auto q = ParseQuery("Q(X,Y) :- R(X), S(Y).");
  ASSERT_TRUE(q.ok());
  auto s = EntropySizeBound(*q);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->value, Rational(2));
  EXPECT_EQ(s->num_lp_variables, 3);   // subsets {X},{Y},{XY}
  EXPECT_GT(s->num_lp_constraints, 2);
  EXPECT_GT(s->lp_pivots, 0);
}

}  // namespace
}  // namespace cqbounds
