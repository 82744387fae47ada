// Figure 11: solver memory vs the number of assignment variables.
//
// Paper: memory grows linearly with assignment variables for both phases
// (up to ~24GB at 6M vars); extrapolating to an unphased full problem gives
// ~75GB, another motivation for two-phase solving.
//
// Here: the same region sweep as Figure 10. "model bytes" (the MIP instance:
// variables, rows, nonzeros, decode maps) is the quantity comparable to the
// paper and is linear in assignment variables. The LP engine keeps a sparse
// LU of the basis plus an eta file (src/solver/basis_factor.h), sized by the
// basis nonzeros rather than rows squared, so no quadratic term sits on top.

#include "bench/sweep_common.h"

using namespace ras;
using namespace ras::bench;

int main() {
  PrintHeader("Figure 11: solver memory vs assignment variables",
              "memory linear in assignment variables for both phases");

  std::printf("%-6s %9s | %10s %14s %14s | %10s %14s\n", "scale", "servers", "p1 vars",
              "p1 model MB", "bytes/var", "p2 vars", "p2 model MB");
  double first_ratio = 0.0;
  double last_ratio = 0.0;
  for (int scale = 0; scale <= 5; ++scale) {
    SweepRegion region(scale);
    SetupMeasurement m = MeasureSetup(region);
    double ratio =
        static_cast<double>(m.phase1_model_bytes) / std::max<size_t>(1, m.phase1_vars);
    if (scale == 0) {
      first_ratio = ratio;
    }
    last_ratio = ratio;
    std::printf("%-6d %9zu | %10zu %14.2f %14.0f | %10zu %14.2f\n", scale, m.servers,
                m.phase1_vars, m.phase1_model_bytes / 1048576.0, ratio, m.phase2_vars,
                m.phase2_model_bytes / 1048576.0);
  }
  std::printf("\nlinearity: phase-1 bytes/var at the smallest vs largest scale: %.0f vs %.0f\n",
              first_ratio, last_ratio);
  std::printf("(flat bytes/var == linear growth, the paper's Figure 11 shape)\n");
  return 0;
}
