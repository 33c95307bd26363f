#include <gtest/gtest.h>

#include "core/join_plan.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/generator.h"

namespace cqbounds {
namespace {

TEST(JoinPlanTest, BuildsConnectedOrderAndProjections) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 4u);
  // Every atom appears exactly once.
  std::set<int> atoms;
  for (const JoinPlanStep& s : plan->steps) atoms.insert(s.atom_index);
  EXPECT_EQ(atoms.size(), 4u);
  // The final step keeps at least the head variables.
  std::set<int> final_kept(plan->steps.back().keep_vars.begin(),
                           plan->steps.back().keep_vars.end());
  for (int v : q->HeadVarSet()) EXPECT_TRUE(final_kept.count(v));
  // C = 2 for the chain projected to endpoints, so cost exponent is 3.
  EXPECT_EQ(plan->cost_exponent, Rational(3));
  EXPECT_FALSE(plan->guaranteed);  // projection query (head != var(Q))
}

TEST(JoinPlanTest, GuaranteedFlagForJoinQueries) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->guaranteed);
  EXPECT_EQ(plan->cost_exponent, Rational(5, 2));  // C + 1 = 3/2 + 1
}

TEST(JoinPlanTest, ExecuteMatchesEvaluator) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
      "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).",
      "Q(X) :- R(X,X).",
      "Q(A,B) :- R(A), S(B).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    RandomDatabaseOptions opts;
    opts.seed = 5;
    opts.tuples_per_relation = 30;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    auto plan = BuildJoinProjectPlan(*q);
    ASSERT_TRUE(plan.ok());
    auto via_plan = ExecuteJoinSteps(*q, plan->steps, db, nullptr);
    auto reference = EvaluateQuery(*q, db, PlanKind::kNaive);
    ASSERT_TRUE(via_plan.ok()) << via_plan.status() << " " << text;
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(via_plan->size(), reference->size()) << text;
    for (const Tuple& t : reference->tuples()) {
      EXPECT_TRUE(via_plan->Contains(t));
    }
  }
}

TEST(JoinPlanTest, GreedyOrderAvoidsCartesianWhenConnected) {
  // R(A,B), T(C,D), S(B,C): naive order joins R then T (cartesian); the
  // greedy order pulls S second.
  auto q = ParseQuery("Q(A,D) :- R(A,B), T(C,D), S(B,C).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  // After the first atom (R, index 0), the next must share a variable:
  // atom S (index 2), not T (index 1).
  EXPECT_EQ(plan->steps[0].atom_index, 0);
  EXPECT_EQ(plan->steps[1].atom_index, 2);
  EXPECT_EQ(plan->steps[2].atom_index, 1);

  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  for (int i = 0; i < 20; ++i) {
    r->Insert({i, i});
    s->Insert({i, i});
    t->Insert({i, i});
  }
  EvalStats plan_stats, naive_stats;
  auto via_plan = ExecuteJoinSteps(*q, plan->steps, db, &plan_stats);
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, &naive_stats);
  ASSERT_TRUE(via_plan.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(via_plan->size(), naive->size());
  // Naive order hits the 400-binding cartesian product; greedy stays at 20.
  EXPECT_EQ(naive_stats.max_intermediate, 400u);
  EXPECT_LE(plan_stats.max_intermediate, 20u);
}

TEST(JoinPlanTest, RejectsCorruptPlans) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddRelation("R", 2)->Insert({1, 2});
  db.AddRelation("S", 2)->Insert({2, 3});
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());

  JoinPlan missing_step = *plan;
  missing_step.steps.pop_back();
  EXPECT_FALSE(ExecuteJoinSteps(*q, missing_step.steps, db, nullptr).ok());

  JoinPlan drops_head = *plan;
  drops_head.steps.back().keep_vars.clear();
  EXPECT_FALSE(ExecuteJoinSteps(*q, drops_head.steps, db, nullptr).ok());

  JoinPlan bad_index = *plan;
  bad_index.steps[0].atom_index = 99;
  EXPECT_FALSE(ExecuteJoinSteps(*q, bad_index.steps, db, nullptr).ok());
}

TEST(JoinPlanTest, RejectsPlansThatRepeatOrReorderAtomsUnsoundly) {
  // A plan joining one atom twice (and the other never) used to run and
  // return R's two rows; the answer is R intersect S, one row.
  auto q = ParseQuery("Q(X,Y) :- R(X,Y), S(X,Y).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 2});
  r->Insert({3, 4});
  db.AddRelation("S", 2)->Insert({1, 2});
  JoinPlan repeated;
  repeated.steps = {{0, {0, 1}}, {0, {0, 1}}};
  EvalStats stats;
  stats.output_size = 99;
  auto bad = ExecuteJoinSteps(*q, repeated.steps, db, &stats);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.output_size, 0u);

  JoinPlan covering;
  covering.steps = {{1, {0, 1}}, {0, {0, 1}}};
  auto good = ExecuteJoinSteps(*q, covering.steps, db, nullptr);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->size(), 1u);
  EXPECT_TRUE(good->Contains({1, 2}));

  // Dropping a variable a later atom still joins on would bind it afresh
  // and lose the join: rejected before any data is read.
  auto chain = ParseQuery("Q(X) :- R(X,Y), S(Y,X).");
  ASSERT_TRUE(chain.ok());
  JoinPlan drops_join_var;
  drops_join_var.steps = {{0, {0}}, {1, {0}}};
  auto lost = ExecuteJoinSteps(*chain, drops_join_var.steps, db, nullptr);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kInvalidArgument);

  // Keeping a variable no prefix atom binds is rejected too.
  JoinPlan unbound_keep;
  unbound_keep.steps = {{0, {0, 1}}, {1, {0, 1, 7}}};
  EXPECT_EQ(
      ExecuteJoinSteps(*q, unbound_keep.steps, db, nullptr).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(JoinPlanTest, ToStringMentionsEveryStep) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto plan = BuildJoinProjectPlan(*q);
  ASSERT_TRUE(plan.ok());
  std::string rendered = plan->ToString(*q);
  EXPECT_NE(rendered.find("join R"), std::string::npos);
  EXPECT_NE(rendered.find("join S"), std::string::npos);
  EXPECT_NE(rendered.find("rmax^3"), std::string::npos);
}

class JoinPlanRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinPlanRandomTest, PlanEqualsEvaluatorOnRandomQueries) {
  Rng rng(GetParam() * 71 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 3 + static_cast<int>(rng.NextBelow(3));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions db_opts;
    db_opts.seed = rng.Next();
    db_opts.tuples_per_relation = 25;
    db_opts.domain_size = 4;
    Database db = RandomDatabase(q, db_opts);
    auto plan = BuildJoinProjectPlan(q);
    ASSERT_TRUE(plan.ok());
    auto via_plan = ExecuteJoinSteps(q, plan->steps, db, nullptr);
    auto reference = EvaluateQuery(q, db, PlanKind::kNaive);
    ASSERT_TRUE(via_plan.ok()) << q.ToString();
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(via_plan->size(), reference->size()) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPlanRandomTest, ::testing::Range(1, 10));

}  // namespace
}  // namespace cqbounds
