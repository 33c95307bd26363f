#include "lp/float_simplex.h"

#include <cmath>
#include <vector>

namespace cqbounds {

namespace {

class FloatTableau {
 public:
  FloatTableau(int num_rows, int total_cols, double eps)
      : num_rows_(num_rows),
        total_cols_(total_cols),
        eps_(eps),
        cells_(static_cast<std::size_t>(num_rows + 1) * (total_cols + 1),
               0.0),
        basis_(num_rows, -1) {}

  double& At(int row, int col) {
    return cells_[static_cast<std::size_t>(row) * (total_cols_ + 1) + col];
  }
  double& Rhs(int row) { return At(row, total_cols_); }
  double& Obj(int col) { return At(num_rows_, col); }
  int basis(int row) const { return basis_[row]; }
  void set_basis(int row, int col) { basis_[row] = col; }

  void Pivot(int pivot_row, int pivot_col) {
    double inv = 1.0 / At(pivot_row, pivot_col);
    for (int c = 0; c <= total_cols_; ++c) At(pivot_row, c) *= inv;
    for (int r = 0; r <= num_rows_; ++r) {
      if (r == pivot_row) continue;
      double factor = At(r, pivot_col);
      if (std::abs(factor) < eps_) continue;
      for (int c = 0; c <= total_cols_; ++c) {
        At(r, c) -= factor * At(pivot_row, c);
      }
    }
    basis_[pivot_row] = pivot_col;
  }

  bool Optimize(int col_limit, int* pivots) {
    while (true) {
      int entering = -1;
      for (int c = 0; c < col_limit; ++c) {
        if (Obj(c) > eps_) {
          entering = c;
          break;
        }
      }
      if (entering < 0) return true;
      int leaving = -1;
      double best_ratio = 0.0;
      for (int r = 0; r < num_rows_; ++r) {
        if (At(r, entering) <= eps_) continue;
        double ratio = Rhs(r) / At(r, entering);
        if (leaving < 0 || ratio < best_ratio - eps_ ||
            (std::abs(ratio - best_ratio) <= eps_ &&
             basis_[r] < basis_[leaving])) {
          leaving = r;
          best_ratio = ratio;
        }
      }
      if (leaving < 0) return false;
      Pivot(leaving, entering);
      ++*pivots;
    }
  }

 private:
  int num_rows_;
  int total_cols_;
  double eps_;
  std::vector<double> cells_;
  std::vector<int> basis_;
};

}  // namespace

Result<FloatLpSolution> SolveLpFloat(const LpProblem& problem, double eps) {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();

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
  FloatTableau tab(m, total_cols, eps);
  int next_slack = n;
  int next_artificial = n + num_slack;
  std::vector<int> artificial_cols;

  for (int i = 0; i < m; ++i) {
    const LpConstraint& c = problem.constraints()[i];
    for (const LpTerm& t : c.terms) {
      tab.At(i, t.var) += rows[i].sign * t.coef.ToDouble();
    }
    tab.Rhs(i) = rows[i].sign * c.rhs.ToDouble();
    switch (rows[i].sense) {
      case ConstraintSense::kLessEq: {
        int s = next_slack++;
        tab.At(i, s) = 1.0;
        tab.set_basis(i, s);
        break;
      }
      case ConstraintSense::kGreaterEq: {
        tab.At(i, next_slack++) = -1.0;
        int a = next_artificial++;
        tab.At(i, a) = 1.0;
        tab.set_basis(i, a);
        artificial_cols.push_back(a);
        break;
      }
      case ConstraintSense::kEqual: {
        int a = next_artificial++;
        tab.At(i, a) = 1.0;
        tab.set_basis(i, a);
        artificial_cols.push_back(a);
        break;
      }
    }
  }

  int pivots = 0;
  if (num_artificial > 0) {
    for (int a : artificial_cols) tab.Obj(a) = -1.0;
    for (int r = 0; r < m; ++r) {
      if (tab.basis(r) >= n + num_slack) {
        for (int c = 0; c <= total_cols; ++c) tab.Obj(c) += tab.At(r, c);
      }
    }
    if (!tab.Optimize(total_cols, &pivots)) {
      return Status::Internal("phase-1 unbounded (numerical trouble)");
    }
    if (std::abs(tab.Obj(total_cols)) > 1e-6) {
      return Status::Infeasible("LP has no feasible point (float)");
    }
    for (int r = 0; r < m; ++r) {
      if (tab.basis(r) < n + num_slack) continue;
      for (int c = 0; c < n + num_slack; ++c) {
        if (std::abs(tab.At(r, c)) > eps) {
          tab.Pivot(r, c);
          ++pivots;
          break;
        }
      }
    }
    for (int c = 0; c <= total_cols; ++c) tab.Obj(c) = 0.0;
  }

  for (int v = 0; v < n; ++v) {
    double coef = problem.objective()[v].ToDouble();
    tab.Obj(v) = problem.maximize() ? coef : -coef;
  }
  for (int r = 0; r < m; ++r) {
    double cost = tab.Obj(tab.basis(r));
    if (std::abs(cost) < eps) continue;
    for (int c = 0; c <= total_cols; ++c) {
      tab.Obj(c) -= cost * tab.At(r, c);
    }
  }
  if (!tab.Optimize(n + num_slack, &pivots)) {
    return Status::Unbounded("LP objective is unbounded (float)");
  }

  FloatLpSolution out;
  out.values.assign(n, 0.0);
  for (int r = 0; r < m; ++r) {
    if (tab.basis(r) < n) out.values[tab.basis(r)] = tab.Rhs(r);
  }
  double z = 0.0;
  for (int v = 0; v < n; ++v) {
    z += problem.objective()[v].ToDouble() * out.values[v];
  }
  out.objective = z;
  out.pivots = pivots;
  return out;
}

}  // namespace cqbounds
