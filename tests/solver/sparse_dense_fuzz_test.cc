// Randomized differential test: SimplexSolver (sparse LU with eta updates,
// partial pricing, adaptive refactorization) against the dense reference
// simplex in dense_lp_oracle.h, which shares no code with it. Both are exact
// algorithms over the same model, so on every instance they must agree on
// status, and on optimal instances on the objective to within numerical
// tolerance (the optimal vertex itself may differ under degeneracy). The
// instances include degenerate shapes (fixed columns, empty and singleton
// rows, crossed bound overrides): no reduction pass runs before the simplex,
// so it must solve them as they are.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"
#include "src/util/rng.h"
#include "tests/solver/dense_lp_oracle.h"

namespace ras {
namespace {

Model RandomLp(Rng& rng) {
  Model m;
  const int num_vars = 4 + static_cast<int>(rng.UniformInt(0, 12));
  const int num_rows = 3 + static_cast<int>(rng.UniformInt(0, 9));
  for (int j = 0; j < num_vars; ++j) {
    double ub = rng.Uniform(0.5, 10.0);
    double cost = rng.Uniform(-5.0, 5.0);
    m.AddContinuous(0.0, ub, cost);
  }
  for (int r = 0; r < num_rows; ++r) {
    // Row types: <= ub, >= lb, two-sided range, equality.
    double a = rng.Uniform(-8.0, 8.0);
    double b = rng.Uniform(-8.0, 12.0);
    RowId row;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        row = m.AddRow(-kInf, std::max(a, b));
        break;
      case 1:
        row = m.AddRow(std::min(a, b), kInf);
        break;
      case 2:
        row = m.AddRow(std::min(a, b), std::max(a, b));
        break;
      default:
        row = m.AddRow(a, a);
        break;
    }
    int entries = 0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.4) {
        m.AddCoefficient(row, j, rng.Uniform(-3.0, 3.0));
        ++entries;
      }
    }
    if (entries == 0) {
      // An empty row with lb > 0 would be trivially infeasible noise; give
      // every row at least one entry so infeasibility, when it happens, comes
      // from real constraint interaction.
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.Uniform(0.5, 2.0));
    }
  }
  // Occasional duplicate (row, var) pairs: both paths must merge identically.
  if (m.num_rows() > 0 && rng.NextDouble() < 0.5) {
    m.AddCoefficient(0, 0, rng.Uniform(-1.0, 1.0));
    m.AddCoefficient(0, 0, rng.Uniform(-1.0, 1.0));
  }
  return m;
}

// Degenerate shapes mixed into ordinary rows: fixed columns (lb == ub),
// empty rows whose range does or does not cover 0, and singleton rows (a
// bound in disguise). The simplex sees each of them unreduced.
struct ShapeCounts {
  int fixed_columns = 0;
  int empty_rows_covering_zero = 0;
  int empty_rows_excluding_zero = 0;
  int singleton_rows = 0;
};

Model RandomReducibleLp(Rng& rng, ShapeCounts* shapes) {
  Model m;
  const int num_vars = 4 + static_cast<int>(rng.UniformInt(0, 10));
  for (int j = 0; j < num_vars; ++j) {
    double lb = rng.Uniform(-4.0, 0.0);
    if (rng.NextDouble() < 0.2) {
      double v = rng.Uniform(lb, lb + 3.0);
      m.AddContinuous(v, v, rng.Uniform(-5.0, 5.0));
      ++shapes->fixed_columns;
    } else {
      m.AddContinuous(lb, lb + rng.Uniform(1.0, 9.0), rng.Uniform(-5.0, 5.0));
    }
  }
  const int num_rows = 3 + static_cast<int>(rng.UniformInt(0, 8));
  for (int r = 0; r < num_rows; ++r) {
    double roll = rng.NextDouble();
    if (roll < 0.1) {
      m.AddRow(-rng.Uniform(0.0, 2.0), rng.Uniform(0.0, 2.0));
      ++shapes->empty_rows_covering_zero;
      continue;
    }
    if (roll < 0.15) {
      // An empty row whose range excludes 0 makes the whole LP infeasible.
      double lo = rng.Uniform(0.1, 2.0);
      if (rng.NextDouble() < 0.5) {
        m.AddRow(lo, lo + rng.Uniform(0.0, 2.0));
      } else {
        m.AddRow(-lo - rng.Uniform(0.0, 2.0), -lo);
      }
      ++shapes->empty_rows_excluding_zero;
      continue;
    }
    double a = rng.Uniform(-8.0, 8.0);
    double b = rng.Uniform(-8.0, 12.0);
    RowId row = m.AddRow(std::min(a, b), std::max(a, b) + 4.0);
    if (roll < 0.4) {
      // Singleton row (possibly negative coefficient): a bound in disguise.
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.NextDouble() < 0.5 ? rng.Uniform(0.5, 3.0)
                                              : rng.Uniform(-3.0, -0.5));
      ++shapes->singleton_rows;
      continue;
    }
    int entries = 0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.4) {
        m.AddCoefficient(row, j, rng.Uniform(-3.0, 3.0));
        ++entries;
      }
    }
    if (entries == 0) {
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.Uniform(0.5, 2.0));
    }
  }
  return m;
}

TEST(SparseDenseFuzzTest, SparseKernelsMatchDenseReference) {
  Rng rng(20260806);
  int optimal = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Model m = RandomLp(rng);

    DenseLpResult dense = SolveDenseLp(m);

    LpOptions sparse_options;
    // Tiny candidate list and frequent refresh: maximize partial-pricing
    // churn (stale candidates, forced full-scan fallbacks).
    sparse_options.pricing_candidates = 4;
    sparse_options.pricing_refresh_interval = 7;
    LpResult sparse = SimplexSolver(sparse_options).Solve(m);

    ASSERT_EQ(dense.status, sparse.status)
        << "trial " << trial << ": dense=" << LpStatusName(dense.status)
        << " sparse=" << LpStatusName(sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
      // The sparse solution must satisfy the model exactly like the dense one.
      EXPECT_TRUE(m.IsFeasible(sparse.x, 1e-6)) << "trial " << trial;
      // Optimality is only ever declared after a full pricing scan.
      EXPECT_GE(sparse.full_pricing_scans, 1) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  // The generator should produce a healthy mix; if not, the test is vacuous.
  EXPECT_GE(optimal, 30);
  EXPECT_GE(infeasible, 5);
}

TEST(SparseDenseFuzzTest, ReducibleShapesMatchDenseReference) {
  // Fixed columns, empty and singleton rows, plus branching-style bound
  // overrides on one variable, some of them crossed (lb > ub). The solver
  // must agree with the dense reference on a copy of the model with the
  // overrides applied, and report a crossed range as infeasible.
  Rng rng(20260807);
  ShapeCounts shapes;
  int optimal = 0;
  int infeasible = 0;
  int crossed = 0;
  for (int trial = 0; trial < 160; ++trial) {
    Model m = RandomReducibleLp(rng, &shapes);
    std::vector<BoundOverride> overrides;
    Model bounded = m;
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      VarId var = static_cast<VarId>(rng.UniformInt(0, static_cast<int64_t>(m.num_variables()) - 1));
      double lb = m.variable(var).lb;
      double ub = m.variable(var).ub;
      double cut = rng.Uniform(lb, ub);
      if (roll < 0.1) {
        overrides.push_back(BoundOverride{var, cut + rng.Uniform(0.1, 1.0), cut});
      } else if (roll < 0.3) {
        overrides.push_back(BoundOverride{var, lb, cut});
      } else {
        overrides.push_back(BoundOverride{var, cut, ub});
      }
    }
    bool crossed_range = false;
    for (const BoundOverride& o : overrides) {
      if (o.lb > o.ub) {
        crossed_range = true;
      } else {
        bounded.SetVariableBounds(o.var, o.lb, o.ub);
      }
    }

    LpResult sparse = SimplexSolver().Solve(m, overrides);
    if (crossed_range) {
      ++crossed;
      ASSERT_EQ(sparse.status, LpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    DenseLpResult dense = SolveDenseLp(bounded);
    ASSERT_EQ(dense.status, sparse.status)
        << "trial " << trial << ": dense=" << LpStatusName(dense.status)
        << " sparse=" << LpStatusName(sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
      ASSERT_EQ(sparse.x.size(), m.num_variables()) << "trial " << trial;
      EXPECT_TRUE(bounded.IsFeasible(sparse.x, 1e-6)) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  // Every shape and both outcomes must actually occur, or the test is vacuous.
  EXPECT_GE(optimal, 40);
  EXPECT_GE(infeasible, 10);
  EXPECT_GE(crossed, 5);
  EXPECT_GE(shapes.fixed_columns, 100);
  EXPECT_GE(shapes.empty_rows_covering_zero, 50);
  EXPECT_GE(shapes.empty_rows_excluding_zero, 30);
  EXPECT_GE(shapes.singleton_rows, 150);
}

TEST(SparseDenseFuzzTest, AdaptiveRefactorizationTriggersAndStaysCorrect) {
  // Force eta-fill refactorizations with a near-zero growth limit: every
  // pivot's eta exceeds the budget, so each iteration refactorizes. The
  // result must still match the dense reference, and the adaptive counter
  // must show the trigger fired.
  Rng rng(77);
  int64_t adaptive_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Model m = RandomLp(rng);

    DenseLpResult dense = SolveDenseLp(m);

    LpOptions tight;
    tight.eta_growth_limit = 0.0;
    LpResult sparse = SimplexSolver(tight).Solve(m);

    ASSERT_EQ(dense.status, sparse.status) << "trial " << trial;
    if (dense.status == LpStatus::kOptimal) {
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
    }
    adaptive_total += sparse.adaptive_refactorizations;
    EXPECT_GE(sparse.refactorizations, sparse.adaptive_refactorizations);
  }
  EXPECT_GT(adaptive_total, 0);
}

TEST(SparseDenseFuzzTest, InstrumentationCountersPopulated) {
  Rng rng(4242);
  Model m = RandomLp(rng);
  LpResult result = SimplexSolver().Solve(m);
  if (result.status == LpStatus::kOptimal) {
    EXPECT_GE(result.refactorizations, 1);  // The initial factorization counts.
    EXPECT_GE(result.full_pricing_scans, 1);
    EXPECT_GE(result.eta_nonzeros, 0);
  }
}

}  // namespace
}  // namespace ras
