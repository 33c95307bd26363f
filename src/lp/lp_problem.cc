#include "lp/lp_problem.h"

#include <utility>

#include "util/status.h"

namespace cqbounds {

int LpProblem::AddVariable(std::string name) {
  int index = static_cast<int>(names_.size());
  if (name.empty()) name = "x" + std::to_string(index);
  names_.push_back(std::move(name));
  objective_.emplace_back(0);
  return index;
}

void LpProblem::SetObjectiveCoef(int var, Rational coef) {
  CQB_CHECK(var >= 0 && var < num_variables());
  objective_[var] = std::move(coef);
}

void LpProblem::AddConstraint(std::vector<LpTerm> terms, ConstraintSense sense,
                              Rational rhs) {
  for (const LpTerm& t : terms) {
    CQB_CHECK(t.var >= 0 && t.var < num_variables());
  }
  constraints_.push_back(LpConstraint{std::move(terms), sense, std::move(rhs)});
}

TableauRow NormalizeForTableau(const LpConstraint& constraint) {
  TableauRow row{1, constraint.sense};
  const int rhs_sign = constraint.rhs.Sign();
  if (rhs_sign < 0 ||
      (rhs_sign == 0 && constraint.sense == ConstraintSense::kGreaterEq)) {
    row.sign = -1;
    if (row.sense == ConstraintSense::kLessEq) {
      row.sense = ConstraintSense::kGreaterEq;
    } else if (row.sense == ConstraintSense::kGreaterEq) {
      row.sense = ConstraintSense::kLessEq;
    }
  }
  return row;
}

}  // namespace cqbounds
