#include "lp/simplex.h"

#include <vector>

namespace cqbounds {

namespace {

/// Dense tableau with an explicit basis. Layout:
///   columns [0, total_cols)   : structural, slack/surplus, artificial vars
///   column  total_cols        : right-hand side
///   row     num_rows          : objective row (reduced costs; we maximize -z)
class Tableau {
 public:
  Tableau(int num_rows, int total_cols)
      : num_rows_(num_rows),
        total_cols_(total_cols),
        cells_(static_cast<std::size_t>(num_rows + 1) * (total_cols + 1)),
        basis_(num_rows, -1) {}

  Rational& At(int row, int col) {
    return cells_[static_cast<std::size_t>(row) * (total_cols_ + 1) + col];
  }
  const Rational& At(int row, int col) const {
    return cells_[static_cast<std::size_t>(row) * (total_cols_ + 1) + col];
  }
  Rational& Rhs(int row) { return At(row, total_cols_); }
  Rational& Obj(int col) { return At(num_rows_, col); }

  int num_rows() const { return num_rows_; }
  int total_cols() const { return total_cols_; }
  int basis(int row) const { return basis_[row]; }
  void set_basis(int row, int col) { basis_[row] = col; }

  /// Gauss-Jordan pivot on (pivot_row, pivot_col). Only the pivot row's
  /// non-zero columns can change the other rows, so they are gathered once.
  void Pivot(int pivot_row, int pivot_col) {
    Rational inv = Rational(1) / At(pivot_row, pivot_col);
    pivot_nonzeros_.clear();
    for (int c = 0; c <= total_cols_; ++c) {
      if (At(pivot_row, c).IsZero()) continue;
      At(pivot_row, c) *= inv;
      pivot_nonzeros_.push_back(c);
    }
    for (int r = 0; r <= num_rows_; ++r) {
      if (r == pivot_row) continue;
      Rational factor = At(r, pivot_col);
      if (factor.IsZero()) continue;
      for (int c : pivot_nonzeros_) At(r, c) -= factor * At(pivot_row, c);
    }
    basis_[pivot_row] = pivot_col;
  }

  /// Runs primal simplex iterations (Bland's rule) until optimal or
  /// unbounded. Columns >= `col_limit` are ignored as entering candidates
  /// (used to freeze artificial columns in phase 2). Returns false if the
  /// LP is unbounded. Increments *pivots per pivot.
  bool Optimize(int col_limit, int* pivots) {
    while (true) {
      // Bland: smallest-index column with positive reduced cost
      // (objective row stores coefficients of the maximization form; we seek
      // columns that increase the objective, i.e. Obj(col) > 0).
      int entering = -1;
      for (int c = 0; c < col_limit; ++c) {
        if (Obj(c).Sign() > 0) {
          entering = c;
          break;
        }
      }
      if (entering < 0) return true;  // optimal
      // Ratio test; Bland tie-break on smallest basis variable index.
      int leaving = -1;
      Rational best_ratio(0);
      for (int r = 0; r < num_rows_; ++r) {
        if (At(r, entering).Sign() <= 0) continue;
        Rational ratio = Rhs(r) / At(r, entering);
        if (leaving < 0 || ratio < best_ratio ||
            (ratio == best_ratio && basis_[r] < basis_[leaving])) {
          leaving = r;
          best_ratio = ratio;
        }
      }
      if (leaving < 0) return false;  // unbounded
      Pivot(leaving, entering);
      ++*pivots;
    }
  }

 private:
  int num_rows_;
  int total_cols_;
  std::vector<Rational> cells_;
  std::vector<int> basis_;
  std::vector<int> pivot_nonzeros_;  // scratch for Pivot
};

}  // namespace

Result<LpSolution> SolveLp(const LpProblem& problem) {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();

  // Count auxiliary columns. Rows are normalized first (NormalizeForTableau);
  // then <= rows get a slack (which can serve as the initial basis), >= rows
  // get a surplus plus an artificial, == rows get an artificial.
  int num_slack = 0;
  int num_artificial = 0;
  std::vector<TableauRow> rows(m);
  for (int i = 0; i < m; ++i) {
    rows[i] = NormalizeForTableau(problem.constraints()[i]);
    switch (rows[i].sense) {
      case ConstraintSense::kLessEq:
        ++num_slack;
        break;
      case ConstraintSense::kGreaterEq:
        ++num_slack;
        ++num_artificial;
        break;
      case ConstraintSense::kEqual:
        ++num_artificial;
        break;
    }
  }

  const int total_cols = n + num_slack + num_artificial;
  Tableau tab(m, total_cols);

  int next_slack = n;
  int next_artificial = n + num_slack;
  std::vector<int> artificial_cols;
  artificial_cols.reserve(num_artificial);

  for (int i = 0; i < m; ++i) {
    const LpConstraint& c = problem.constraints()[i];
    const bool flip = rows[i].sign < 0;
    for (const LpTerm& t : c.terms) {
      tab.At(i, t.var) += flip ? -t.coef : t.coef;
    }
    tab.Rhs(i) = flip ? -c.rhs : c.rhs;
    switch (rows[i].sense) {
      case ConstraintSense::kLessEq: {
        int s = next_slack++;
        tab.At(i, s) = Rational(1);
        tab.set_basis(i, s);
        break;
      }
      case ConstraintSense::kGreaterEq: {
        int s = next_slack++;
        tab.At(i, s) = Rational(-1);
        int a = next_artificial++;
        tab.At(i, a) = Rational(1);
        tab.set_basis(i, a);
        artificial_cols.push_back(a);
        break;
      }
      case ConstraintSense::kEqual: {
        int a = next_artificial++;
        tab.At(i, a) = Rational(1);
        tab.set_basis(i, a);
        artificial_cols.push_back(a);
        break;
      }
    }
  }

  int pivots = 0;

  // Phase 1: maximize -(sum of artificials). Price out the artificial basis.
  if (num_artificial > 0) {
    for (int a : artificial_cols) tab.Obj(a) = Rational(-1);
    for (int r = 0; r < m; ++r) {
      int b = tab.basis(r);
      if (b >= n + num_slack) {
        // Add row r to the objective row to zero the basic artificial's
        // reduced cost.
        for (int c = 0; c <= total_cols; ++c) {
          const Rational& v = tab.At(r, c);
          if (!v.IsZero()) tab.Obj(c) += v;
        }
      }
    }
    bool bounded = tab.Optimize(total_cols, &pivots);
    CQB_CHECK(bounded);  // phase-1 objective is bounded above by 0
    if (tab.Obj(total_cols).Sign() != 0) {
      return Status::Infeasible("LP has no feasible point");
    }
    // Drive any artificial variables still in the basis out (degenerate
    // feasible point). If a row has no eligible pivot column it is redundant
    // and the artificial stays at value zero, which is harmless as long as it
    // never re-enters (phase 2 freezes artificial columns).
    for (int r = 0; r < m; ++r) {
      if (tab.basis(r) < n + num_slack) continue;
      for (int c = 0; c < n + num_slack; ++c) {
        if (!tab.At(r, c).IsZero()) {
          tab.Pivot(r, c);
          ++pivots;
          break;
        }
      }
    }
    // Reset the objective row for phase 2.
    for (int c = 0; c <= total_cols; ++c) tab.Obj(c) = Rational(0);
  }

  // Phase 2 objective: maximize c^T x (negate if the problem minimizes).
  for (int v = 0; v < n; ++v) {
    const Rational& coef = problem.objective()[v];
    tab.Obj(v) = problem.maximize() ? coef : -coef;
  }
  // Price out the current basis.
  for (int r = 0; r < m; ++r) {
    int b = tab.basis(r);
    Rational cost = tab.Obj(b);
    if (cost.IsZero()) continue;
    for (int c = 0; c <= total_cols; ++c) {
      const Rational& v = tab.At(r, c);
      if (!v.IsZero()) tab.Obj(c) -= cost * v;
    }
  }

  if (!tab.Optimize(n + num_slack, &pivots)) {
    return Status::Unbounded("LP objective is unbounded");
  }

  LpSolution solution;
  solution.values.assign(n, Rational(0));
  for (int r = 0; r < m; ++r) {
    int b = tab.basis(r);
    if (b < n) solution.values[b] = tab.Rhs(r);
  }
  // Objective row holds -z in the RHS cell after pricing; recompute directly
  // from the structural values for clarity.
  Rational z(0);
  for (int v = 0; v < n; ++v) {
    if (!problem.objective()[v].IsZero()) {
      z += problem.objective()[v] * solution.values[v];
    }
  }
  solution.objective = z;
  solution.pivots = pivots;
  return solution;
}

}  // namespace cqbounds
