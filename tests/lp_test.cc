#include <gtest/gtest.h>

#include "lp/float_simplex.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

TEST(SimplexTest, SimpleMaximization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  optimum at (8/5, 6/5).
  LpProblem lp(true);
  int x = lp.AddVariable("x");
  int y = lp.AddVariable("y");
  lp.SetObjectiveCoef(x, Rational(1));
  lp.SetObjectiveCoef(y, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(2)}},
                   ConstraintSense::kLessEq, Rational(4));
  lp.AddConstraint({{x, Rational(3)}, {y, Rational(1)}},
                   ConstraintSense::kLessEq, Rational(6));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(14, 5));
  EXPECT_EQ(result->values[x], Rational(8, 5));
  EXPECT_EQ(result->values[y], Rational(6, 5));
}

TEST(SimplexTest, Minimization) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1  ->  optimum (4, 0), value 8.
  LpProblem lp(false);
  int x = lp.AddVariable();
  int y = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(2));
  lp.SetObjectiveCoef(y, Rational(3));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(1)}},
                   ConstraintSense::kGreaterEq, Rational(4));
  lp.AddConstraint({{x, Rational(1)}}, ConstraintSense::kGreaterEq,
                   Rational(1));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(8));
}

TEST(SimplexTest, EqualityConstraints) {
  // max x s.t. x + y == 3, x - y == 1  ->  x = 2, y = 1.
  LpProblem lp(true);
  int x = lp.AddVariable();
  int y = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(1)}},
                   ConstraintSense::kEqual, Rational(3));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(-1)}},
                   ConstraintSense::kEqual, Rational(1));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values[x], Rational(2));
  EXPECT_EQ(result->values[y], Rational(1));
}

TEST(SimplexTest, InfeasibleDetected) {
  LpProblem lp(true);
  int x = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(1)}}, ConstraintSense::kLessEq, Rational(1));
  lp.AddConstraint({{x, Rational(1)}}, ConstraintSense::kGreaterEq,
                   Rational(2));
  auto result = SolveLp(lp);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LpProblem lp(true);
  int x = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(-1)}}, ConstraintSense::kLessEq, Rational(0));
  auto result = SolveLp(lp);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnbounded);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x >= 2 written as -x <= -2.
  LpProblem lp(false);
  int x = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(-1)}}, ConstraintSense::kLessEq,
                   Rational(-2));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(2));
}

TEST(SimplexTest, DegenerateDoesNotCycle) {
  // Classic Beale cycling example (cycles under naive most-negative rule;
  // Bland's rule must terminate).
  LpProblem lp(true);
  int x1 = lp.AddVariable();
  int x2 = lp.AddVariable();
  int x3 = lp.AddVariable();
  int x4 = lp.AddVariable();
  lp.SetObjectiveCoef(x1, Rational(3, 4));
  lp.SetObjectiveCoef(x2, Rational(-150));
  lp.SetObjectiveCoef(x3, Rational(1, 50));
  lp.SetObjectiveCoef(x4, Rational(-6));
  lp.AddConstraint({{x1, Rational(1, 4)},
                    {x2, Rational(-60)},
                    {x3, Rational(-1, 25)},
                    {x4, Rational(9)}},
                   ConstraintSense::kLessEq, Rational(0));
  lp.AddConstraint({{x1, Rational(1, 2)},
                    {x2, Rational(-90)},
                    {x3, Rational(-1, 50)},
                    {x4, Rational(3)}},
                   ConstraintSense::kLessEq, Rational(0));
  lp.AddConstraint({{x3, Rational(1)}}, ConstraintSense::kLessEq, Rational(1));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(1, 20));
}

TEST(SimplexTest, DuplicateTermsAreSummed) {
  // x + x <= 4 should behave as 2x <= 4.
  LpProblem lp(true);
  int x = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {x, Rational(1)}},
                   ConstraintSense::kLessEq, Rational(4));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, Rational(2));
}

TEST(SimplexTest, RedundantEqualityRows) {
  // x + y == 2 stated twice: phase 1 must drive (or neutralize) the second
  // artificial without declaring infeasibility.
  LpProblem lp(true);
  int x = lp.AddVariable();
  int y = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(1)}},
                   ConstraintSense::kEqual, Rational(2));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(1)}},
                   ConstraintSense::kEqual, Rational(2));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(2));
}

// Weak-duality / strong-duality property check on random LPs:
// max c^T x, Ax <= b, x >= 0  vs  min b^T y, A^T y >= c, y >= 0.
class SimplexDualityTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDualityTest, StrongDualityOnRandomLps) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextBelow(4));
  const int m = 2 + static_cast<int>(rng.NextBelow(4));
  std::vector<std::vector<Rational>> a(m, std::vector<Rational>(n));
  std::vector<Rational> b(m), c(n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      a[i][j] = Rational(rng.NextInRange(0, 5));
    }
    b[i] = Rational(rng.NextInRange(1, 10));
  }
  for (int j = 0; j < n; ++j) c[j] = Rational(rng.NextInRange(0, 5));

  LpProblem primal(true);
  std::vector<int> xs;
  for (int j = 0; j < n; ++j) {
    int v = primal.AddVariable();
    primal.SetObjectiveCoef(v, c[j]);
    xs.push_back(v);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < n; ++j) terms.push_back({xs[j], a[i][j]});
    primal.AddConstraint(std::move(terms), ConstraintSense::kLessEq, b[i]);
  }
  auto primal_result = SolveLp(primal);

  LpProblem dual(false);
  std::vector<int> ys;
  for (int i = 0; i < m; ++i) {
    int v = dual.AddVariable();
    dual.SetObjectiveCoef(v, b[i]);
    ys.push_back(v);
  }
  for (int j = 0; j < n; ++j) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < m; ++i) terms.push_back({ys[i], a[i][j]});
    dual.AddConstraint(std::move(terms), ConstraintSense::kGreaterEq, c[j]);
  }
  auto dual_result = SolveLp(dual);

  if (primal_result.ok() && dual_result.ok()) {
    EXPECT_EQ(primal_result->objective, dual_result->objective);
    // Primal feasibility of the returned point.
    for (int i = 0; i < m; ++i) {
      Rational lhs(0);
      for (int j = 0; j < n; ++j) lhs += a[i][j] * primal_result->values[j];
      EXPECT_LE(lhs, b[i]);
    }
  } else {
    // Primal unbounded <=> dual infeasible (b >= 0 makes primal feasible).
    EXPECT_EQ(primal_result.status().code(), StatusCode::kUnbounded);
    EXPECT_EQ(dual_result.status().code(), StatusCode::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SimplexDualityTest,
                         ::testing::Range(1, 40));

// Random LPs mixing every row shape the solver normalizes differently:
// `<=` rows (slack basis), homogeneous `>= 0` rows (negated into `<= 0`, no
// artificial), `== 0` rows and `>=` rows with positive rhs (both phase 1).
// Each result is checked three ways: the returned point satisfies every
// constraint exactly, the optimum agrees with the float solver, and the
// explicit dual (y >= 0 on <=, y <= 0 on >=, free on ==) attains the same
// value -- or is infeasible when the primal is unbounded.
LpProblem RandomMixedLp(Rng& rng) {
  LpProblem lp(true);
  const int n = 2 + static_cast<int>(rng.NextBelow(4));
  const int m = 2 + static_cast<int>(rng.NextBelow(5));
  for (int j = 0; j < n; ++j) {
    lp.SetObjectiveCoef(lp.AddVariable(), Rational(rng.NextInRange(-2, 5)));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, Rational(rng.NextInRange(-3, 4))});
    }
    switch (rng.NextBelow(4)) {
      case 0:
        lp.AddConstraint(std::move(terms), ConstraintSense::kLessEq,
                         Rational(rng.NextInRange(0, 9)));
        break;
      case 1:
        lp.AddConstraint(std::move(terms), ConstraintSense::kGreaterEq,
                         Rational(0));
        break;
      case 2:
        lp.AddConstraint(std::move(terms), ConstraintSense::kEqual,
                         Rational(0));
        break;
      default:
        lp.AddConstraint(std::move(terms), ConstraintSense::kGreaterEq,
                         Rational(rng.NextInRange(1, 5)));
        break;
    }
  }
  // Usually cap the feasible region so most draws have an optimum.
  if (rng.NextBool(3, 4)) {
    std::vector<LpTerm> box;
    for (int j = 0; j < n; ++j) box.push_back({j, Rational(1)});
    lp.AddConstraint(std::move(box), ConstraintSense::kLessEq,
                     Rational(rng.NextInRange(1, 12)));
  }
  return lp;
}

// min b.y  s.t.  A^T y >= c, with y_i = +u_i (<=), -u_i (>=), p_i - q_i (==)
// over non-negative u, p, q.
LpProblem DualOf(const LpProblem& primal) {
  LpProblem dual(false);
  std::vector<std::vector<LpTerm>> columns(primal.num_variables());
  for (const LpConstraint& row : primal.constraints()) {
    std::vector<int> signs;
    if (row.sense == ConstraintSense::kLessEq) signs = {1};
    if (row.sense == ConstraintSense::kGreaterEq) signs = {-1};
    if (row.sense == ConstraintSense::kEqual) signs = {1, -1};
    for (int sign : signs) {
      const int y = dual.AddVariable();
      dual.SetObjectiveCoef(y, Rational(sign) * row.rhs);
      for (const LpTerm& t : row.terms) {
        columns[t.var].push_back({y, Rational(sign) * t.coef});
      }
    }
  }
  for (int j = 0; j < primal.num_variables(); ++j) {
    dual.AddConstraint(columns[j], ConstraintSense::kGreaterEq,
                       primal.objective()[j]);
  }
  return dual;
}

void ExpectSatisfiesExactly(const LpProblem& problem,
                            const std::vector<Rational>& x) {
  for (const Rational& v : x) EXPECT_GE(v, Rational(0));
  for (const LpConstraint& row : problem.constraints()) {
    Rational lhs(0);
    for (const LpTerm& t : row.terms) lhs += t.coef * x[t.var];
    switch (row.sense) {
      case ConstraintSense::kLessEq:
        EXPECT_LE(lhs, row.rhs);
        break;
      case ConstraintSense::kGreaterEq:
        EXPECT_GE(lhs, row.rhs);
        break;
      case ConstraintSense::kEqual:
        EXPECT_EQ(lhs, row.rhs);
        break;
    }
  }
}

class MixedRowLpTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedRowLpTest, FeasibleFloatConsistentAndDual) {
  Rng rng(GetParam() * 7919 + 3);
  int optimal = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const LpProblem primal = RandomMixedLp(rng);
    auto exact = SolveLp(primal);
    auto approx = SolveLpFloat(primal);
    ASSERT_EQ(exact.ok(), approx.ok()) << "trial " << trial;
    if (!exact.ok()) {
      EXPECT_EQ(exact.status().code(), approx.status().code());
      if (exact.status().code() == StatusCode::kUnbounded) {
        EXPECT_EQ(SolveLp(DualOf(primal)).status().code(),
                  StatusCode::kInfeasible);
      }
      continue;
    }
    ++optimal;
    ExpectSatisfiesExactly(primal, exact->values);
    Rational z(0);
    for (int j = 0; j < primal.num_variables(); ++j) {
      z += primal.objective()[j] * exact->values[j];
    }
    EXPECT_EQ(exact->objective, z);
    EXPECT_NEAR(approx->objective, exact->objective.ToDouble(), 1e-6);
    auto dual = SolveLp(DualOf(primal));
    ASSERT_TRUE(dual.ok()) << dual.status();
    EXPECT_EQ(dual->objective, exact->objective) << "trial " << trial;
  }
  EXPECT_GT(optimal, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedRowLpTest, ::testing::Range(1, 9));

TEST(SimplexTest, HomogeneousRowsNeedNoPhaseOne) {
  // max x + y s.t. x - y >= 0, x <= 3, y <= 2: every row starts with a
  // slack basis, so only the two phase-2 pivots run.
  LpProblem lp(true);
  int x = lp.AddVariable();
  int y = lp.AddVariable();
  lp.SetObjectiveCoef(x, Rational(1));
  lp.SetObjectiveCoef(y, Rational(1));
  lp.AddConstraint({{x, Rational(1)}, {y, Rational(-1)}},
                   ConstraintSense::kGreaterEq, Rational(0));
  lp.AddConstraint({{x, Rational(1)}}, ConstraintSense::kLessEq, Rational(3));
  lp.AddConstraint({{y, Rational(1)}}, ConstraintSense::kLessEq, Rational(2));
  auto result = SolveLp(lp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->objective, Rational(5));
  EXPECT_EQ(result->pivots, 2);
}

}  // namespace
}  // namespace cqbounds
