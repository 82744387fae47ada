// Dense reference LP solver for differential tests of SimplexSolver.
//
// A textbook bounded-variable simplex that shares no code with
// src/solver/simplex.cc: the constraint matrix is dense, the basis inverse is
// recomputed from scratch by Gauss-Jordan every iteration, basic values are
// recomputed from the nonbasic ones every iteration, phase 1 minimizes a sum
// of explicit artificial variables, and Bland's rule (lowest eligible index
// entering, lowest index among tied leaving candidates) rules out cycling.
// It is slow on purpose and meant for models with at most a few dozen rows.

#ifndef RAS_TESTS_SOLVER_DENSE_LP_ORACLE_H_
#define RAS_TESTS_SOLVER_DENSE_LP_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace ras {

struct DenseLpResult {
  LpStatus status = LpStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> x;  // Structural values when optimal.
};

namespace dense_lp_oracle_internal {

constexpr double kTol = 1e-9;

// The system [A  -I  D]·z = 0 over structurals, row slacks and artificials.
struct DenseLp {
  int m = 0;
  int total = 0;
  std::vector<std::vector<double>> col;  // col[j][i]
  std::vector<double> lb, ub, value;
  std::vector<int> basis;                // Row position -> column.
  std::vector<bool> is_basic;
};

// Gauss-Jordan inverse of the basis matrix; false when singular.
inline bool InvertBasis(const DenseLp& lp, std::vector<std::vector<double>>* inv) {
  const int m = lp.m;
  std::vector<std::vector<double>> a(m, std::vector<double>(2 * m, 0.0));
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      a[i][k] = lp.col[lp.basis[k]][i];
    }
    a[i][m + i] = 1.0;
  }
  for (int c = 0; c < m; ++c) {
    int piv = c;
    for (int r = c + 1; r < m; ++r) {
      if (std::fabs(a[r][c]) > std::fabs(a[piv][c])) {
        piv = r;
      }
    }
    if (std::fabs(a[piv][c]) < 1e-12) {
      return false;
    }
    std::swap(a[piv], a[c]);
    double p = a[c][c];
    for (double& v : a[c]) {
      v /= p;
    }
    for (int r = 0; r < m; ++r) {
      if (r == c || a[r][c] == 0.0) {
        continue;
      }
      double f = a[r][c];
      for (int k = 0; k < 2 * m; ++k) {
        a[r][k] -= f * a[c][k];
      }
    }
  }
  inv->assign(m, std::vector<double>(m, 0.0));
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      (*inv)[i][k] = a[i][m + k];
    }
  }
  return true;
}

// Minimizes cost·z from the current basis, which must be primal feasible.
inline LpStatus RunBland(DenseLp& lp, const std::vector<double>& cost) {
  const int m = lp.m;
  std::vector<std::vector<double>> inv;
  for (int iter = 0; iter < 100000; ++iter) {
    if (!InvertBasis(lp, &inv)) {
      return LpStatus::kNumericalFailure;
    }
    // x_B = B^-1·(-N·x_N).
    std::vector<double> rhs(m, 0.0);
    for (int j = 0; j < lp.total; ++j) {
      if (!lp.is_basic[j] && lp.value[j] != 0.0) {
        for (int i = 0; i < m; ++i) {
          rhs[i] -= lp.col[j][i] * lp.value[j];
        }
      }
    }
    for (int k = 0; k < m; ++k) {
      double v = 0.0;
      for (int i = 0; i < m; ++i) {
        v += inv[k][i] * rhs[i];
      }
      lp.value[lp.basis[k]] = v;
    }
    // y = c_B^T·B^-1.
    std::vector<double> y(m, 0.0);
    for (int k = 0; k < m; ++k) {
      for (int i = 0; i < m; ++i) {
        y[i] += cost[lp.basis[k]] * inv[k][i];
      }
    }
    // Bland entering: the lowest-index nonbasic column that improves.
    int entering = -1;
    int dir = 0;
    for (int j = 0; j < lp.total && entering < 0; ++j) {
      if (lp.is_basic[j] || lp.lb[j] == lp.ub[j]) {
        continue;
      }
      double d = cost[j];
      for (int i = 0; i < m; ++i) {
        d -= y[i] * lp.col[j][i];
      }
      bool can_rise = lp.value[j] < lp.ub[j];
      bool can_fall = lp.value[j] > lp.lb[j];
      if (d < -kTol && can_rise) {
        entering = j;
        dir = +1;
      } else if (d > kTol && can_fall) {
        entering = j;
        dir = -1;
      }
    }
    if (entering < 0) {
      return LpStatus::kOptimal;
    }
    // alpha = B^-1·a_entering; basic k moves at rate -dir·alpha_k.
    std::vector<double> alpha(m, 0.0);
    for (int k = 0; k < m; ++k) {
      for (int i = 0; i < m; ++i) {
        alpha[k] += inv[k][i] * lp.col[entering][i];
      }
    }
    double step = lp.ub[entering] - lp.lb[entering];  // Own range: a bound flip.
    int leaving = -1;
    double leaving_bound = 0.0;
    for (int k = 0; k < m; ++k) {
      if (std::fabs(alpha[k]) < 1e-11) {
        continue;
      }
      int col = lp.basis[k];
      double rate = -dir * alpha[k];
      double bound = rate > 0 ? lp.ub[col] : lp.lb[col];
      if (!std::isfinite(bound)) {
        continue;
      }
      double limit = std::max(0.0, (bound - lp.value[col]) / rate);
      if (limit < step - kTol ||
          (limit <= step + kTol && leaving >= 0 && col < lp.basis[leaving])) {
        step = limit;
        leaving = k;
        leaving_bound = bound;
      }
    }
    if (!std::isfinite(step)) {
      return LpStatus::kUnbounded;
    }
    if (leaving < 0) {
      lp.value[entering] = dir > 0 ? lp.ub[entering] : lp.lb[entering];
      continue;
    }
    int out = lp.basis[leaving];
    lp.value[out] = leaving_bound;
    lp.is_basic[out] = false;
    lp.basis[leaving] = entering;
    lp.is_basic[entering] = true;
  }
  return LpStatus::kIterationLimit;
}

}  // namespace dense_lp_oracle_internal

// Solves `model` (minimize) with the dense reference simplex.
inline DenseLpResult SolveDenseLp(const Model& model) {
  using namespace dense_lp_oracle_internal;
  DenseLpResult result;
  const int n = static_cast<int>(model.num_variables());
  const int m = static_cast<int>(model.num_rows());
  DenseLp lp;
  lp.m = m;
  lp.total = n + 2 * m;
  lp.col.assign(lp.total, std::vector<double>(m, 0.0));
  lp.lb.assign(lp.total, 0.0);
  lp.ub.assign(lp.total, kInf);
  lp.value.assign(lp.total, 0.0);
  lp.is_basic.assign(lp.total, false);
  std::vector<double> true_cost(lp.total, 0.0);
  for (int j = 0; j < n; ++j) {
    lp.lb[j] = model.variable(j).lb;
    lp.ub[j] = model.variable(j).ub;
    true_cost[j] = model.variable(j).cost;
  }
  for (int i = 0; i < m; ++i) {
    for (const RowEntry& e : model.row_entries(i)) {
      lp.col[e.var][i] += e.coeff;
    }
    lp.col[n + i][i] = -1.0;
    lp.lb[n + i] = model.row(i).lb;
    lp.ub[n + i] = model.row(i).ub;
  }
  for (int j = 0; j < n + m; ++j) {
    if (lp.lb[j] > lp.ub[j]) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
    lp.value[j] = std::isfinite(lp.lb[j]) ? lp.lb[j] : (std::isfinite(lp.ub[j]) ? lp.ub[j] : 0.0);
  }
  // One artificial per row absorbs the residual of the starting point, signed
  // so it starts nonnegative; phase 1 drives their sum to zero.
  std::vector<double> phase1_cost(lp.total, 0.0);
  for (int i = 0; i < m; ++i) {
    double residual = 0.0;
    for (int j = 0; j < n + m; ++j) {
      residual -= lp.col[j][i] * lp.value[j];
    }
    int a = n + m + i;
    lp.col[a][i] = residual >= 0.0 ? 1.0 : -1.0;
    phase1_cost[a] = 1.0;
    lp.basis.push_back(a);
    lp.is_basic[a] = true;
  }
  LpStatus status = RunBland(lp, phase1_cost);
  if (status != LpStatus::kOptimal) {
    result.status = status;
    return result;
  }
  double infeasibility = 0.0;
  for (int i = 0; i < m; ++i) {
    infeasibility += lp.value[n + m + i];
  }
  if (infeasibility > 1e-7) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  // Artificials are pinned at zero for phase 2 (a basic one stays basic at 0).
  for (int i = 0; i < m; ++i) {
    lp.ub[n + m + i] = 0.0;
    if (!lp.is_basic[n + m + i]) {
      lp.value[n + m + i] = 0.0;
    }
  }
  status = RunBland(lp, true_cost);
  result.status = status;
  if (status == LpStatus::kOptimal) {
    result.x.assign(lp.value.begin(), lp.value.begin() + n);
    for (int j = 0; j < n; ++j) {
      result.objective += true_cost[j] * result.x[j];
    }
  }
  return result;
}

}  // namespace ras

#endif  // RAS_TESTS_SOLVER_DENSE_LP_ORACLE_H_
