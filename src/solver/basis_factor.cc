#include "src/solver/basis_factor.h"

#include <algorithm>
#include <cmath>

namespace ras {
namespace {

// A column with no remaining entry above this magnitude is dependent on the
// columns already eliminated: the basis is singular.
constexpr double kSingularTol = 1e-11;
// Threshold partial pivoting: any candidate within this factor of the
// column's largest remaining entry is numerically acceptable, and the
// sparsest row among them wins.
constexpr double kPivotThreshold = 0.1;

}  // namespace

bool BasisFactor::Factorize(int32_t m, const std::vector<int32_t>& col_starts,
                            const std::vector<int32_t>& rows, const std::vector<double>& values) {
  m_ = m;
  pivot_pos_.clear();
  pivot_row_.clear();
  pivot_value_.clear();
  row_step_.assign(m, -1);
  l_starts_.assign(1, 0);
  l_rows_.clear();
  l_values_.clear();
  u_starts_.assign(1, 0);
  u_rows_.clear();
  u_values_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_starts_.assign(1, 0);
  eta_index_.clear();
  eta_values_.clear();
  work_.assign(m, 0.0);
  mark_.assign(m, -1);

  // Column order: ascending nonzero count, ties by position (a counting
  // sort, so deterministic and O(m + nnz)). Singletons — every slack — go
  // first and pivot without fill.
  row_count_.assign(m, 0);
  int32_t max_count = 0;
  for (int32_t pos = 0; pos < m; ++pos) {
    max_count = std::max(max_count, col_starts[pos + 1] - col_starts[pos]);
    for (int32_t p = col_starts[pos]; p < col_starts[pos + 1]; ++p) {
      ++row_count_[rows[p]];
    }
  }
  std::vector<int32_t> bucket(static_cast<size_t>(max_count) + 2, 0);
  for (int32_t pos = 0; pos < m; ++pos) {
    ++bucket[col_starts[pos + 1] - col_starts[pos] + 1];
  }
  for (size_t c = 1; c < bucket.size(); ++c) {
    bucket[c] += bucket[c - 1];
  }
  order_.assign(m, 0);
  for (int32_t pos = 0; pos < m; ++pos) {
    order_[bucket[col_starts[pos + 1] - col_starts[pos]]++] = pos;
  }

  for (int32_t k = 0; k < m; ++k) {
    const int32_t pos = order_[k];
    // Symbolic reach (Gilbert–Peierls): every row the solve L·w = b can make
    // nonzero, found by DFS from b's rows through the L columns of already
    // pivoted rows. reach_ is in DFS postorder, so reversed it is a
    // topological order. The mark also de-duplicates: a row is visited once
    // even when its value cancels to exactly zero along the way.
    reach_.clear();
    for (int32_t p = col_starts[pos]; p < col_starts[pos + 1]; ++p) {
      int32_t start = rows[p];
      if (mark_[start] == k) {
        continue;
      }
      mark_[start] = k;
      stack_.assign(1, start);
      stack_edge_.assign(1, row_step_[start] >= 0 ? l_starts_[row_step_[start]] : 0);
      while (!stack_.empty()) {
        int32_t node = stack_.back();
        int32_t step = row_step_[node];
        int32_t edge = stack_edge_.back();
        if (step >= 0 && edge < l_starts_[step + 1]) {
          stack_edge_.back() = edge + 1;
          int32_t child = l_rows_[edge];
          if (mark_[child] != k) {
            mark_[child] = k;
            stack_.push_back(child);
            stack_edge_.push_back(row_step_[child] >= 0 ? l_starts_[row_step_[child]] : 0);
          }
        } else {
          reach_.push_back(node);
          stack_.pop_back();
          stack_edge_.pop_back();
        }
      }
    }

    // Numeric solve over the reach in topological order.
    for (int32_t p = col_starts[pos]; p < col_starts[pos + 1]; ++p) {
      work_[rows[p]] += values[p];
    }
    for (auto it = reach_.rbegin(); it != reach_.rend(); ++it) {
      int32_t step = row_step_[*it];
      double v = work_[*it];
      if (step < 0 || v == 0.0) {
        continue;
      }
      for (int32_t e = l_starts_[step]; e < l_starts_[step + 1]; ++e) {
        work_[l_rows_[e]] -= l_values_[e] * v;
      }
    }

    // Threshold pivot among the rows not yet pivoted.
    double max_abs = 0.0;
    for (int32_t r : reach_) {
      if (row_step_[r] < 0) {
        max_abs = std::max(max_abs, std::fabs(work_[r]));
      }
    }
    if (max_abs <= kSingularTol) {
      for (int32_t r : reach_) {
        work_[r] = 0.0;
      }
      m_ = 0;
      return false;
    }
    int32_t pivot_row = -1;
    double pivot_abs = 0.0;
    for (int32_t r : reach_) {
      double a = std::fabs(work_[r]);
      if (row_step_[r] >= 0 || a < kPivotThreshold * max_abs) {
        continue;
      }
      if (pivot_row < 0 || row_count_[r] < row_count_[pivot_row] ||
          (row_count_[r] == row_count_[pivot_row] &&
           (a > pivot_abs || (a == pivot_abs && r < pivot_row)))) {
        pivot_row = r;
        pivot_abs = a;
      }
    }
    const double pivot = work_[pivot_row];

    for (int32_t r : reach_) {
      double v = work_[r];
      work_[r] = 0.0;
      if (v == 0.0 || r == pivot_row) {
        continue;
      }
      if (row_step_[r] >= 0) {
        u_rows_.push_back(r);
        u_values_.push_back(v);
      } else {
        l_rows_.push_back(r);
        l_values_.push_back(v / pivot);
      }
    }
    l_starts_.push_back(static_cast<int32_t>(l_rows_.size()));
    u_starts_.push_back(static_cast<int32_t>(u_rows_.size()));
    row_step_[pivot_row] = k;
    pivot_pos_.push_back(pos);
    pivot_row_.push_back(pivot_row);
    pivot_value_.push_back(pivot);
  }
  return true;
}

void BasisFactor::Ftran(std::vector<double>& x) const {
  // L·w = x, column by column in pivot order (zero entries skip their column).
  for (int32_t k = 0; k < m_; ++k) {
    double v = x[pivot_row_[k]];
    if (v == 0.0) {
      continue;
    }
    for (int32_t e = l_starts_[k]; e < l_starts_[k + 1]; ++e) {
      x[l_rows_[e]] -= l_values_[e] * v;
    }
  }
  // U·z = w backwards; z lands at the basis position of each step.
  solve_work_.assign(m_, 0.0);
  for (int32_t k = m_ - 1; k >= 0; --k) {
    double v = x[pivot_row_[k]];
    if (v == 0.0) {
      continue;
    }
    v /= pivot_value_[k];
    solve_work_[pivot_pos_[k]] = v;
    for (int32_t e = u_starts_[k]; e < u_starts_[k + 1]; ++e) {
      x[u_rows_[e]] -= u_values_[e] * v;
    }
  }
  x.swap(solve_work_);
  // Eta file, oldest first: x := E^-1·x.
  for (size_t e = 0; e < eta_pos_.size(); ++e) {
    double v = x[eta_pos_[e]];
    if (v == 0.0) {
      continue;
    }
    v /= eta_pivot_[e];
    x[eta_pos_[e]] = v;
    for (int32_t i = eta_starts_[e]; i < eta_starts_[e + 1]; ++i) {
      x[eta_index_[i]] -= eta_values_[i] * v;
    }
  }
}

void BasisFactor::Btran(std::vector<double>& x) const {
  // Eta file, newest first: x := E^-T·x touches only the eta's own position.
  for (size_t e = eta_pos_.size(); e-- > 0;) {
    double s = x[eta_pos_[e]];
    for (int32_t i = eta_starts_[e]; i < eta_starts_[e + 1]; ++i) {
      s -= eta_values_[i] * x[eta_index_[i]];
    }
    x[eta_pos_[e]] = s / eta_pivot_[e];
  }
  // U^T·v = x forwards; v is indexed by pivot row.
  solve_work_.assign(m_, 0.0);
  for (int32_t k = 0; k < m_; ++k) {
    double s = x[pivot_pos_[k]];
    for (int32_t e = u_starts_[k]; e < u_starts_[k + 1]; ++e) {
      s -= u_values_[e] * solve_work_[u_rows_[e]];
    }
    solve_work_[pivot_row_[k]] = s / pivot_value_[k];
  }
  // L^T·y = v backwards.
  for (int32_t k = m_ - 1; k >= 0; --k) {
    double s = solve_work_[pivot_row_[k]];
    for (int32_t e = l_starts_[k]; e < l_starts_[k + 1]; ++e) {
      s -= l_values_[e] * solve_work_[l_rows_[e]];
    }
    solve_work_[pivot_row_[k]] = s;
  }
  x.swap(solve_work_);
}

void BasisFactor::Update(int32_t pos, const std::vector<double>& alpha,
                         const std::vector<int32_t>& alpha_nz) {
  eta_pos_.push_back(pos);
  eta_pivot_.push_back(alpha[pos]);
  for (int32_t i : alpha_nz) {
    if (i != pos && alpha[i] != 0.0) {
      eta_index_.push_back(i);
      eta_values_.push_back(alpha[i]);
    }
  }
  eta_starts_.push_back(static_cast<int32_t>(eta_index_.size()));
}

}  // namespace ras
