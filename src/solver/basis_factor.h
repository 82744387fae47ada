// Sparse LU factorization of a simplex basis with a product-form eta file.
//
// The basis B is m x m; column `pos` is the constraint column of the variable
// basic in row position `pos`. Factorize computes P·B·Q = L·U by left-looking
// (Gilbert–Peierls) elimination: columns are taken in ascending nonzero count
// (so slack columns, the singletons, pivot first and produce no fill), each
// column is solved against the L built so far over its symbolic reach, and the
// pivot row is chosen by threshold partial pivoting (|v| >= 0.1·max) with the
// fewest-nonzeros row winning ties. A factorization costs O(flops), not O(m^2).
//
// Each simplex pivot appends one eta column (product form, PFI): replacing
// column `pos` by a column a with alpha = B^-1·a gives B'^-1 = E^-1·B^-1.
// Ftran and Btran apply the LU, then the etas, in the right order. The
// simplex refactorizes once the eta file grows (refactor interval, eta fill
// and drift triggers in LpOptions).

#ifndef RAS_SRC_SOLVER_BASIS_FACTOR_H_
#define RAS_SRC_SOLVER_BASIS_FACTOR_H_

#include <cstdint>
#include <vector>

namespace ras {

class BasisFactor {
 public:
  // Factorizes the m x m basis given in CSC form: column `pos` holds
  // rows/values[col_starts[pos] .. col_starts[pos + 1]). Duplicate rows within
  // a column must already be merged. Returns false — leaving the factor
  // unusable until the next successful Factorize — when the basis is
  // numerically singular (no pivot above 1e-11 remains for some column).
  bool Factorize(int32_t m, const std::vector<int32_t>& col_starts,
                 const std::vector<int32_t>& rows, const std::vector<double>& values);

  // x := B^-1 x. In: right-hand side indexed by row. Out: solution indexed
  // by basis position. `x` must have size m.
  void Ftran(std::vector<double>& x) const;

  // x := B^-T x. In: indexed by basis position (e.g. basic costs). Out:
  // indexed by row (e.g. simplex duals). `x` must have size m.
  void Btran(std::vector<double>& x) const;

  // Replaces basis column `pos` by the column whose FTRAN is `alpha`
  // (alpha = B^-1·a, dense by position; `alpha_nz` lists its nonzero
  // positions). alpha[pos] is the pivot and must be nonzero.
  void Update(int32_t pos, const std::vector<double>& alpha, const std::vector<int32_t>& alpha_nz);

 private:
  int32_t m_ = 0;

  // Elimination step k pivots basis position pivot_pos_[k] on row
  // pivot_row_[k] with U diagonal pivot_value_[k].
  std::vector<int32_t> pivot_pos_;
  std::vector<int32_t> pivot_row_;
  std::vector<double> pivot_value_;
  std::vector<int32_t> row_step_;  // Row -> step that pivoted it (-1 before).

  // L column of step k (unit diagonal implicit) over rows pivoted after k:
  // l_rows_/l_values_[l_starts_[k] .. l_starts_[k + 1]).
  std::vector<int32_t> l_starts_;
  std::vector<int32_t> l_rows_;
  std::vector<double> l_values_;
  // U column of step k above the diagonal, keyed by the rows of earlier steps.
  std::vector<int32_t> u_starts_;
  std::vector<int32_t> u_rows_;
  std::vector<double> u_values_;

  // Eta file: eta e replaced position eta_pos_[e] with pivot eta_pivot_[e];
  // its other alpha entries are eta_index_/eta_values_[eta_starts_[e] .. +1).
  std::vector<int32_t> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int32_t> eta_starts_;
  std::vector<int32_t> eta_index_;
  std::vector<double> eta_values_;

  // Factorization scratch, kept to reuse capacity across refactorizations.
  std::vector<double> work_;
  std::vector<int32_t> mark_;
  std::vector<int32_t> reach_;
  std::vector<int32_t> stack_;
  std::vector<int32_t> stack_edge_;
  std::vector<int32_t> row_count_;
  std::vector<int32_t> order_;
  // Solve scratch (Ftran/Btran are logically const).
  mutable std::vector<double> solve_work_;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_BASIS_FACTOR_H_
