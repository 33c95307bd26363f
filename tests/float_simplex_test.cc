#include <gtest/gtest.h>

#include <cmath>

#include "core/color_number.h"
#include "cq/parser.h"
#include "entropy/entropy_vector.h"
#include "lp/float_simplex.h"
#include "lp/simplex.h"
#include "util/rng.h"
#include "util/subset.h"

namespace cqbounds {
namespace {

TEST(FloatSimplexTest, MatchesExactOnSimpleLp) {
  LpProblem lp(true);
  int x = lp.AddVariable();
  int y = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.SetObjectiveCoef(y, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(2)}},
                   ConstraintSense::kLessEq, Rational(4));
  lp.AddConstraint({{x, Rational(3)}, {y, Rational(1)}},
                   ConstraintSense::kLessEq, Rational(6));
  auto exact = SolveLp(lp);
  auto approx = SolveLpFloat(lp);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx->objective, exact->objective.ToDouble(), 1e-9);
}

TEST(FloatSimplexTest, DetectsInfeasibleAndUnbounded) {
  LpProblem infeasible(true);
  int x = infeasible.AddVariable();
  infeasible.AddConstraint({{x, Rational(1)}}, ConstraintSense::kLessEq,
                           Rational(1));
  infeasible.AddConstraint({{x, Rational(1)}}, ConstraintSense::kGreaterEq,
                           Rational(2));
  EXPECT_EQ(SolveLpFloat(infeasible).status().code(),
            StatusCode::kInfeasible);

  LpProblem unbounded(true);
  int y = unbounded.AddVariable();
  unbounded.SetObjectiveCoef(y, Rational(1));
  unbounded.AddConstraint({{y, Rational(-1)}}, ConstraintSense::kLessEq,
                          Rational(0));
  EXPECT_EQ(SolveLpFloat(unbounded).status().code(), StatusCode::kUnbounded);
}

class FloatVsExactTest : public ::testing::TestWithParam<int> {};

TEST_P(FloatVsExactTest, AgreeOnRandomLps) {
  Rng rng(GetParam() * 17 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBelow(4));
    const int m = 2 + static_cast<int>(rng.NextBelow(4));
    LpProblem lp(true);
    std::vector<int> xs;
    for (int j = 0; j < n; ++j) {
      int v = lp.AddVariable();
      lp.SetObjectiveCoef(v, Rational(rng.NextInRange(0, 5)));
      xs.push_back(v);
    }
    for (int i = 0; i < m; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < n; ++j) {
        terms.push_back({xs[j], Rational(rng.NextInRange(0, 4))});
      }
      lp.AddConstraint(std::move(terms), ConstraintSense::kLessEq,
                       Rational(rng.NextInRange(1, 9)));
    }
    auto exact = SolveLp(lp);
    auto approx = SolveLpFloat(lp);
    ASSERT_EQ(exact.ok(), approx.ok());
    if (exact.ok()) {
      EXPECT_NEAR(approx->objective, exact->objective.ToDouble(), 1e-6);
    } else {
      EXPECT_EQ(exact.status().code(), approx.status().code());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatVsExactTest, ::testing::Range(1, 12));

TEST(FloatSimplexTest, ColorNumberLpsAgree) {
  // Build the Prop 3.6 LP for the classics and compare solvers. The float
  // result is within epsilon but does NOT produce the exact rational --
  // that is the point of carrying exact arithmetic.
  const char* queries[] = {
      "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).",
      "Q(A,B,C,D,E) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    LpProblem lp(true);
    std::vector<int> vars;
    for (int v = 0; v < q->num_variables(); ++v) {
      vars.push_back(lp.AddVariable());
    }
    for (int v : q->HeadVarSet()) lp.SetObjectiveCoef(vars[v], Rational(1));
    for (std::size_t i = 0; i < q->atoms().size(); ++i) {
      std::vector<LpTerm> terms;
      for (int v : q->AtomVarSet(static_cast<int>(i))) {
        terms.push_back({vars[v], Rational(1)});
      }
      lp.AddConstraint(std::move(terms), ConstraintSense::kLessEq,
                       Rational(1));
    }
    auto exact = SolveLp(lp);
    auto approx = SolveLpFloat(lp);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(approx->objective, exact->objective.ToDouble(), 1e-9) << text;
  }
}

TEST(FloatSimplexTest, HomogeneousRowsFollowTheExactPivotPath) {
  // The Prop 6.9 entropy LP of the triangle, keyed (h(XYZ) = h(XY)) and
  // unkeyed: elemental Shannon rows are homogeneous `>= 0` rows, which both
  // solvers negate into slack-basis `<= 0` rows. With the same tableau and
  // Bland's rule the float solver must take exactly the exact solver's path.
  for (bool keyed : {false, true}) {
    const int n = 3;
    const SubsetMask full = FullSet(n);
    LpProblem lp(true);
    std::vector<int> h(static_cast<std::size_t>(full) + 1, -1);
    for (SubsetMask s = 1; s <= full; ++s) h[s] = lp.AddVariable();
    lp.SetObjectiveCoef(h[full], Rational(1));
    for (SubsetMask atom : {0b011u, 0b101u, 0b110u}) {
      lp.AddConstraint({{h[atom], Rational(1)}}, ConstraintSense::kLessEq,
                       Rational(1));
    }
    if (keyed) {
      lp.AddConstraint({{h[full], Rational(1)}, {h[0b011], Rational(-1)}},
                       ConstraintSense::kEqual, Rational(0));
    }
    for (const ElementalInequality& ineq : ElementalShannonInequalities(n)) {
      std::vector<LpTerm> terms;
      for (SubsetMask s : ineq.plus) terms.push_back({h[s], Rational(1)});
      for (SubsetMask s : ineq.minus) terms.push_back({h[s], Rational(-1)});
      lp.AddConstraint(std::move(terms), ConstraintSense::kGreaterEq,
                       Rational(0));
    }
    auto exact = SolveLp(lp);
    auto approx = SolveLpFloat(lp);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(approx.ok()) << approx.status();
    EXPECT_EQ(exact->objective, keyed ? Rational(1) : Rational(3, 2));
    EXPECT_NEAR(approx->objective, exact->objective.ToDouble(), 1e-9);
    EXPECT_EQ(approx->pivots, exact->pivots) << "keyed=" << keyed;
    for (std::size_t v = 0; v < exact->values.size(); ++v) {
      EXPECT_NEAR(approx->values[v], exact->values[v].ToDouble(), 1e-9);
    }
  }
}

}  // namespace
}  // namespace cqbounds
