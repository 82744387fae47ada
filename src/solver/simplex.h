// Bounded-variable primal simplex.
//
// Solves  min c.x  s.t.  row_lb <= Ax <= row_ub,  lb <= x <= ub
// by introducing one slack per row (Ax - s = 0, s in [row_lb, row_ub]) so the
// right-hand side is identically zero and the all-slack basis is trivially
// invertible. Infeasibility is driven out with a composite phase-1 objective
// (unit cost per violated basic bound), then phase 2 minimizes the true
// objective. The basis is held as a sparse LU factorization with a
// product-form eta file (src/solver/basis_factor.h), refactorized on a pivot
// cadence and early on eta fill-in or pivot drift. Partial pricing over a
// candidate list, with a Bland fallback against cycling, picks the entering
// column; a bound-only warm re-solve can run the dual simplex first.
//
// This is the LP engine underneath the branch-and-bound MIP solver
// (src/solver/mip.h), which together substitute for the commercial MIP
// solver used by the paper (Section 3.5).

#ifndef RAS_SRC_SOLVER_SIMPLEX_H_
#define RAS_SRC_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "src/solver/basis_factor.h"
#include "src/solver/model.h"

namespace ras {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

const char* LpStatusName(LpStatus status);

struct LpOptions {
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-9;
  // 0 means "choose automatically from the problem size".
  int64_t max_iterations = 0;
  int refactor_interval = 256;
  // Consecutive degenerate pivots before switching to Bland's rule.
  int bland_trigger = 60;

  // Partial pricing: size of the candidate list kept from each full scan.
  int pricing_candidates = 64;
  // Periodic full Dantzig scan cadence (iterations); keeps the candidate list
  // from going stale. Optimality is only ever declared after a full scan, so
  // this is a quality knob, not a correctness one. <= 0 disables the refresh.
  int pricing_refresh_interval = 100;
  // Adaptive refactorization: rebuild the LU early when the accumulated eta
  // file nonzeros exceed eta_growth_limit * m — every FTRAN/BTRAN pays for
  // the whole eta file — or when a pivot magnitude falls below
  // drift_refactor_tol relative to its column, a numerical-drift red flag.
  double eta_growth_limit = 8.0;
  double drift_refactor_tol = 1e-8;
  // The optimality clean pass rebuilds the factorization to wash out eta drift
  // before declaring the optimum. A warm re-solve that took at most this many
  // pivots since the last rebuild skips the refactorization — the same
  // drift budget the in-loop adaptive cadence prices dozens of pivots through
  // — provided the feasibility check passes on the current factor (when it
  // does not, the full clean pass runs after all). 0 restores the
  // unconditional rebuild.
  int clean_pass_eta_limit = 8;
};

struct LpResult {
  LpStatus status = LpStatus::kNumericalFailure;
  // Structural variable values (size = model.num_variables()).
  std::vector<double> x;
  double objective = 0.0;
  int64_t iterations = 0;
  // Duals (one per row) from the final pricing pass; valid when optimal.
  std::vector<double> duals;

  // --- Kernel instrumentation (reset every solve) ---
  // Basis LU rebuilds, total and the subset forced by numerical drift or eta
  // fill-in rather than the fixed pivot cadence.
  int refactorizations = 0;
  int adaptive_refactorizations = 0;
  // Accumulated nonzeros pushed through product-form eta updates.
  int64_t eta_nonzeros = 0;
  // Full pricing scans: candidate-list refreshes, Bland iterations, and the
  // scan that certifies optimality.
  int64_t full_pricing_scans = 0;
  // Dual simplex warm re-solve (ResolveWithBasis): pivots taken by the dual
  // kernel before the primal verifier ran, and whether it ran at all.
  int64_t dual_iterations = 0;
  bool used_dual_simplex = false;
};

// Overrides for variable bounds, used by branch-and-bound to tighten integer
// variables without copying the whole model. Entries replace the model's
// bounds for that variable.
struct BoundOverride {
  VarId var;
  double lb;
  double ub;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(const LpOptions& options = LpOptions()) : options_(options) {}

  LpResult Solve(const Model& model) { return Solve(model, {}); }
  LpResult Solve(const Model& model, const std::vector<BoundOverride>& overrides);

  // Re-solves the SAME model with different bound overrides, starting from
  // the final basis of the previous call. Bound changes leave the basis
  // matrix (and its factorization) valid; only primal values shift. While
  // that basis is still dual-feasible under the current costs (a bound/RHS
  // change moves no dual), the dual simplex re-optimizes it in a few pivots;
  // the primal loop then runs as the optimality verifier, and is the whole
  // re-solve when the basis is not dual-feasible. This is what makes
  // branch-and-bound nodes cheap: each child differs from its parent by one
  // integer bound. Falls back to a cold solve when no compatible basis is
  // available.
  LpResult ResolveWithBasis(const Model& model, const std::vector<BoundOverride>& overrides);

  // The retained warm-start basis: the column basic in each row position
  // (structurals 0..n-1, then row slacks n..n+m-1). Empty when no valid basis
  // is held (no solve yet, or the last solve did not end optimal).
  std::vector<int32_t> ExportBasis() const;

 private:
  enum class ColStatus : uint8_t { kBasic, kAtLower, kAtUpper, kFree };

  // --- One solve's working state ---
  void BuildColumns(const Model& model, const std::vector<BoundOverride>& overrides);
  // Refreshes lb_/ub_/cost_ from the model + overrides without rebuilding
  // the column structure (warm path).
  void RefreshBounds(const Model& model, const std::vector<BoundOverride>& overrides);
  void InitializeBasis();
  bool Refactorize();  // Rebuilds factor_ from basis_; false if singular.
  void ComputeBasicValues();
  // alpha = B^-1 A_col; `nz` receives the positions of the nonzero entries
  // (the ratio test and eta update iterate this list instead of all m rows).
  void Ftran(int32_t col, std::vector<double>& alpha, std::vector<int32_t>& nz) const;
  double TotalInfeasibility() const;

  LpResult RunSimplex(const Model& model);

  // Prices every column with the true objective from scratch: y_ = B^-T c_B
  // and d_j = c_j - y_·a_j (0 for basic and fixed columns).
  void PriceTrueCosts();
  // True when every nonbasic column's reduced cost, priced with the true
  // objective, has the sign its status requires (within tol): the retained
  // basis can be re-optimized with dual pivots. Leaves the prices in d_ for
  // RunDualSimplex.
  bool DualFeasibleBasis(double tol);
  // Bounded-variable dual simplex from the current (dual-feasible) basis,
  // starting from the reduced costs DualFeasibleBasis left in d_. Each pivot
  // picks the most-violated basic variable, runs one BTRAN for its row rho of
  // B^-1, forms the pivot row alpha_r = rho·[A -I] row-wise from the CSR copy
  // over rho's nonzero rows only, runs the dual ratio test over the columns
  // that row touches, and updates d in place (d_j -= theta_d·alpha_rj). Prices
  // are recomputed from scratch after every in-loop refactorization, and the
  // primal verifier that runs afterwards re-prices fresh and certifies
  // optimality with a full scan. Pivots until primal feasibility or a
  // conservative iteration budget; counters accumulate into `accum`. Returns
  // false only when the basis factorization broke down mid-flight (the caller
  // must fall back to a cold solve); early exits for budget/stall reasons
  // return true and leave a valid basis for the primal verifier to finish
  // from.
  bool RunDualSimplex(LpResult* accum);

  LpOptions options_;

  // Problem dimensions: m_ rows, n_ structural columns, total_ = n_ + m_.
  int32_t m_ = 0;
  int32_t n_ = 0;
  int32_t total_ = 0;

  // Structural columns in CSC form (slacks implicit): column j's nonzeros
  // live in csc_rows_/csc_values_[csc_starts_[j] .. csc_starts_[j+1]).
  std::vector<int32_t> csc_starts_;
  std::vector<int32_t> csc_rows_;
  std::vector<double> csc_values_;
  // The same matrix row-major (CSR), columns ascending within each row: row
  // i's nonzeros live in csr_cols_/csr_values_[csr_starts_[i] .. +1).
  std::vector<int32_t> csr_starts_;
  std::vector<int32_t> csr_cols_;
  std::vector<double> csr_values_;

  std::vector<double> lb_;             // Per column (structural + slack).
  std::vector<double> ub_;
  std::vector<double> cost_;  // True objective costs (slacks: 0).

  std::vector<int32_t> basis_;      // Column basic in each row position.
  std::vector<ColStatus> status_;   // Per column.
  std::vector<int32_t> basis_pos_;  // Column -> row position (or -1).
  std::vector<double> value_;       // Current value per column.
  // Reduced costs under the true objective, maintained by the dual kernel.
  std::vector<double> d_;
  BasisFactor factor_;              // LU of the basis matrix plus eta file.
  // Basis matrix scratch in CSC form, rebuilt by every Refactorize().
  std::vector<int32_t> basis_starts_;
  std::vector<int32_t> basis_rows_;
  std::vector<double> basis_values_;
  // Product-form eta updates applied to factor_ since its last full rebuild
  // (across calls — a warm resolve inherits the previous solve's drift).
  // Drives the clean-pass skip (LpOptions::clean_pass_eta_limit).
  int64_t etas_since_refactor_ = 0;

  // Per-solve scratch, kept to reuse capacity across the many node re-solves
  // of one branch-and-bound search.
  std::vector<double> y_;            // Pricing duals.
  std::vector<double> rhs_;          // ComputeBasicValues right-hand side.
  std::vector<double> alpha_;        // FTRAN result.
  std::vector<int32_t> alpha_nz_;    // Its nonzero positions.
  std::vector<double> rho_;          // Dual kernel: row of B^-1 (BTRAN of e_r).
  std::vector<double> row_alpha_;    // Dual kernel: pivot row, per column.
  std::vector<uint8_t> row_mark_;    // Columns present in row_nz_.
  std::vector<int32_t> row_nz_;      // Columns the pivot row touches.

  // Warm-start validity: set after a successful solve; identifies the model
  // shape the retained basis belongs to.
  bool basis_valid_ = false;
  size_t prepared_rows_ = 0;
  size_t prepared_vars_ = 0;
  size_t prepared_nonzeros_ = 0;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_SIMPLEX_H_
