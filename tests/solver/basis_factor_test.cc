// BasisFactor (sparse LU + eta file) against a test-side dense Gauss-Jordan
// inverse: Ftran must equal B^-1·b and Btran must equal B^-T·c on random
// sparse bases full of exactly cancelling ±1 entries, after 0–20 eta
// updates, and on a real RAS phase-1 optimal basis. Singular bases must be
// rejected.

#include "src/solver/basis_factor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/core/buffer_policy.h"
#include "src/core/model_builder.h"
#include "src/core/reservation.h"
#include "src/core/solve_input.h"
#include "src/fleet/fleet_gen.h"
#include "src/solver/simplex.h"
#include "src/util/rng.h"

namespace ras {
namespace {

// Dense column-major basis: cols[pos][row].
using DenseBasis = std::vector<std::vector<double>>;

// Row-major inverse by Gauss-Jordan with partial pivoting; empty if singular.
std::vector<std::vector<double>> DenseInverse(const DenseBasis& cols) {
  const size_t m = cols.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(2 * m, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t k = 0; k < m; ++k) {
      a[i][k] = cols[k][i];
    }
    a[i][m + i] = 1.0;
  }
  for (size_t c = 0; c < m; ++c) {
    size_t piv = c;
    for (size_t r = c + 1; r < m; ++r) {
      if (std::fabs(a[r][c]) > std::fabs(a[piv][c])) {
        piv = r;
      }
    }
    if (std::fabs(a[piv][c]) < 1e-9) {
      return {};
    }
    std::swap(a[piv], a[c]);
    double p = a[c][c];
    for (double& v : a[c]) {
      v /= p;
    }
    for (size_t r = 0; r < m; ++r) {
      if (r != c && a[r][c] != 0.0) {
        double f = a[r][c];
        for (size_t k = 0; k < 2 * m; ++k) {
          a[r][k] -= f * a[c][k];
        }
      }
    }
  }
  std::vector<std::vector<double>> inv(m, std::vector<double>(m));
  for (size_t i = 0; i < m; ++i) {
    for (size_t k = 0; k < m; ++k) {
      inv[i][k] = a[i][m + k];
    }
  }
  return inv;
}

bool Factorize(BasisFactor& factor, const DenseBasis& cols) {
  std::vector<int32_t> starts{0};
  std::vector<int32_t> rows;
  std::vector<double> values;
  for (const auto& col : cols) {
    for (size_t i = 0; i < col.size(); ++i) {
      if (col[i] != 0.0) {
        rows.push_back(static_cast<int32_t>(i));
        values.push_back(col[i]);
      }
    }
    starts.push_back(static_cast<int32_t>(rows.size()));
  }
  return factor.Factorize(static_cast<int32_t>(cols.size()), starts, rows, values);
}

// Checks Ftran and Btran against the dense inverse on a few right-hand sides
// (unit vectors and a dense random vector).
void ExpectSolvesMatch(const BasisFactor& factor, const DenseBasis& cols, Rng& rng,
                       const std::string& context) {
  auto inv = DenseInverse(cols);
  ASSERT_FALSE(inv.empty()) << context;
  const size_t m = cols.size();
  std::vector<std::vector<double>> rhs;
  for (size_t i = 0; i < std::min<size_t>(m, 3); ++i) {
    std::vector<double> e(m, 0.0);
    e[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1))] = 1.0;
    rhs.push_back(e);
  }
  std::vector<double> dense(m);
  for (double& v : dense) {
    v = rng.Uniform(-2.0, 2.0);
  }
  rhs.push_back(dense);
  for (const auto& b : rhs) {
    std::vector<double> x = b;
    factor.Ftran(x);
    std::vector<double> y = b;
    factor.Btran(y);
    for (size_t i = 0; i < m; ++i) {
      double fx = 0.0;
      double by = 0.0;
      for (size_t k = 0; k < m; ++k) {
        fx += inv[i][k] * b[k];
        by += inv[k][i] * b[k];
      }
      ASSERT_NEAR(x[i], fx, 1e-8 * (1.0 + std::fabs(fx))) << context << " ftran entry " << i;
      ASSERT_NEAR(y[i], by, 1e-8 * (1.0 + std::fabs(by))) << context << " btran entry " << i;
    }
  }
}

// A random sparse basis shaped like the simplex's: some slack columns -e_i,
// the rest structural columns with ±1 entries (which cancel exactly during
// elimination) and a few general values. Retries until nonsingular.
DenseBasis RandomBasis(Rng& rng, size_t m) {
  while (true) {
    DenseBasis cols(m, std::vector<double>(m, 0.0));
    for (size_t pos = 0; pos < m; ++pos) {
      if (rng.NextDouble() < 0.3) {
        cols[pos][static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1))] = -1.0;
        continue;
      }
      int entries = 2 + static_cast<int>(rng.UniformInt(0, 3));
      for (int e = 0; e < entries; ++e) {
        size_t row = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
        double roll = rng.NextDouble();
        cols[pos][row] = roll < 0.45 ? 1.0 : (roll < 0.9 ? -1.0 : rng.Uniform(0.5, 3.0));
      }
    }
    if (!DenseInverse(cols).empty()) {
      return cols;
    }
  }
}

TEST(BasisFactorTest, RandomSparseBasesWithCancellingEntriesMatchDenseInverse) {
  Rng rng(1313);
  for (int trial = 0; trial < 200; ++trial) {
    size_t m = 4 + static_cast<size_t>(rng.UniformInt(0, 36));
    DenseBasis cols = RandomBasis(rng, m);
    BasisFactor factor;
    ASSERT_TRUE(Factorize(factor, cols)) << "trial " << trial;
    ExpectSolvesMatch(factor, cols, rng, "trial " + std::to_string(trial));
  }
}

TEST(BasisFactorTest, EtaUpdatesMatchDenseInverseOfUpdatedBasis) {
  Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    size_t m = 5 + static_cast<size_t>(rng.UniformInt(0, 25));
    DenseBasis cols = RandomBasis(rng, m);
    BasisFactor factor;
    ASSERT_TRUE(Factorize(factor, cols));
    int updates = static_cast<int>(rng.UniformInt(0, 20));
    for (int u = 0; u < updates; ++u) {
      // Replace a column whose pivot keeps the basis well conditioned.
      std::vector<double> a(m, 0.0);
      for (int e = 0; e < 3; ++e) {
        a[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1))] =
            rng.NextDouble() < 0.5 ? 1.0 : -1.0;
      }
      std::vector<double> alpha = a;
      factor.Ftran(alpha);
      int32_t pos = -1;
      for (size_t i = 0; i < m; ++i) {
        if (std::fabs(alpha[i]) > 0.5 && (pos < 0 || rng.NextDouble() < 0.5)) {
          pos = static_cast<int32_t>(i);
        }
      }
      if (pos < 0) {
        continue;
      }
      std::vector<int32_t> nz;
      for (size_t i = 0; i < m; ++i) {
        if (alpha[i] != 0.0) {
          nz.push_back(static_cast<int32_t>(i));
        }
      }
      factor.Update(pos, alpha, nz);
      cols[static_cast<size_t>(pos)] = a;
      ExpectSolvesMatch(factor, cols,
                        rng, "trial " + std::to_string(trial) + " update " + std::to_string(u));
    }
  }
}

TEST(BasisFactorTest, SingularBasesAreRejected) {
  // Duplicate column.
  DenseBasis dup = {{1, 0, 0}, {0, 1, 1}, {0, 1, 1}};
  // All-zero column.
  DenseBasis zero = {{1, 0, 0}, {0, 0, 0}, {0, 0, 1}};
  // Third column = first - second: ±1 entries cancel to exactly zero.
  DenseBasis dependent = {{1, 1, 0, 0}, {0, 1, -1, 0}, {1, 0, 1, 0}, {0, 0, 0, -1}};
  // Two slacks on the same row.
  DenseBasis slacks = {{-1, 0, 0}, {-1, 0, 0}, {0, 0, -1}};
  for (const DenseBasis* cols : {&dup, &zero, &dependent, &slacks}) {
    BasisFactor factor;
    EXPECT_FALSE(Factorize(factor, *cols));
  }
  // The same factor object recovers on the next nonsingular basis.
  BasisFactor factor;
  ASSERT_FALSE(Factorize(factor, dependent));
  DenseBasis fixed = {{1, 1, 0, 0}, {0, 1, -1, 0}, {1, 0, 2, 0}, {0, 0, 0, -1}};
  ASSERT_TRUE(Factorize(factor, fixed));
  Rng rng(5);
  ExpectSolvesMatch(factor, fixed, rng, "recovered");
}

TEST(BasisFactorTest, RasPhase1OptimalBasisMatchesDenseInverse) {
  FleetOptions fleet_options;
  fleet_options.num_datacenters = 2;
  fleet_options.msbs_per_datacenter = 3;
  fleet_options.racks_per_msb = 4;
  fleet_options.servers_per_rack = 6;
  fleet_options.seed = 77;
  Fleet fleet = GenerateFleet(fleet_options);
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
  for (int i = 0; i < 5; ++i) {
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(i);
    spec.capacity_rru = 8.0 + 3.0 * i;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    ASSERT_TRUE(registry.Create(spec).ok());
  }
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), /*include_rack_spread=*/false);
  const Model& model = built.model;

  SimplexSolver solver;
  ASSERT_EQ(solver.Solve(model).status, LpStatus::kOptimal);
  std::vector<int32_t> basis = solver.ExportBasis();
  ASSERT_FALSE(basis.empty());

  const size_t m = model.num_rows();
  const int32_t n = static_cast<int32_t>(model.num_variables());
  DenseBasis cols(m, std::vector<double>(m, 0.0));
  int structural = 0;
  for (size_t pos = 0; pos < m; ++pos) {
    int32_t col = basis[pos];
    if (col >= n) {
      cols[pos][static_cast<size_t>(col - n)] = -1.0;
    } else {
      ++structural;
      for (size_t r = 0; r < m; ++r) {
        for (const RowEntry& e : model.row_entries(static_cast<RowId>(r))) {
          if (e.var == col) {
            cols[pos][r] += e.coeff;
          }
        }
      }
    }
  }
  ASSERT_GT(structural, static_cast<int>(m / 4)) << "basis is mostly slack; test is vacuous";
  BasisFactor factor;
  ASSERT_TRUE(Factorize(factor, cols));
  Rng rng(99);
  ExpectSolvesMatch(factor, cols, rng, "ras phase-1 basis");
}

}  // namespace
}  // namespace ras
