// Randomized churn soak for solver statelessness: one region evolves under
// seeded churn (reservation add / remove / resize, server kills and
// revivals, binding materialization) while one long-lived AsyncSolver solves
// every round and persists its targets. Each round a fresh AsyncSolver
// solves the same snapshot, and the two must produce bitwise-identical
// targets: nothing the long-lived solver saw in earlier rounds (including
// discarded degraded-mode solves) may steer this round's answer. Runs once
// monolithic and once split into four shards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/async_solver.h"
#include "src/fleet/fleet_gen.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace ras {
namespace {

constexpr int kRounds = 50;

FleetOptions SoakFleetOptions() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 8;
  opts.seed = 11;
  return opts;  // 96 servers.
}

ReservationSpec AnyTypeReservation(const HardwareCatalog& catalog, const std::string& name,
                                   double capacity) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = capacity;
  spec.rru_per_type.assign(catalog.size(), 1.0);
  return spec;
}

struct SoakRegion {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;
  std::vector<ReservationId> services;

  SoakRegion() : fleet(GenerateFleet(SoakFleetOptions())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
    for (int i = 0; i < 3; ++i) {
      auto id = registry.Create(
          AnyTypeReservation(fleet.catalog, "svc" + std::to_string(i), 12));
      EXPECT_TRUE(id.ok());
      services.push_back(*id);
    }
  }
};

// One round of churn, fully determined by (rng state, round index).
void ApplyChurn(SoakRegion& region, Rng& rng, int round) {
  const int64_t roll = rng.UniformInt(0, 99);
  // ~1/5 of rounds are quiet: an unchanged snapshot.
  if (roll < 20) {
    return;
  }
  if (roll < 55 && !region.services.empty()) {
    // Resize an existing service.
    size_t which = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(region.services.size()) - 1));
    ReservationSpec spec = *region.registry.Find(region.services[which]);
    spec.capacity_rru = std::max(4.0, spec.capacity_rru + rng.Uniform(-4.0, 5.0));
    EXPECT_TRUE(region.registry.Update(spec).ok());
    return;
  }
  if (roll < 70) {
    // Kill a healthy server (or revive a dead one on odd rounds).
    ServerId id = static_cast<ServerId>(
        rng.UniformInt(0, static_cast<int64_t>(region.broker->num_servers()) - 1));
    if (round % 2 == 1 && region.broker->record(id).unavailability != Unavailability::kNone) {
      region.broker->SetUnavailability(id, Unavailability::kNone);
    } else {
      region.broker->SetUnavailability(id, Unavailability::kUnplannedHardware);
    }
    return;
  }
  if (roll < 85) {
    // Admit a new service.
    auto id = region.registry.Create(AnyTypeReservation(
        region.fleet.catalog, "churn" + std::to_string(round), 4 + rng.Uniform(0.0, 4.0)));
    EXPECT_TRUE(id.ok());
    region.services.push_back(*id);
    return;
  }
  if (region.services.size() > 1) {
    // Remove the youngest churn service.
    EXPECT_TRUE(region.registry.Remove(region.services.back()).ok());
    region.services.pop_back();
  }
}

// Materialize solver intent into current bindings, as the Online Mover would.
void MaterializeTargets(SoakRegion& region) {
  for (ServerId id = 0; id < region.broker->num_servers(); ++id) {
    region.broker->SetCurrent(id, region.broker->record(id).target);
  }
}

SolverConfig SoakConfig(int shard_count) {
  SolverConfig config;
  config.shard_count = shard_count;
  config.phase1_mip.max_nodes = 8;  // Keep 2 x 50 solves fast.
  config.phase2_mip.max_nodes = 4;
  return config;
}

void RunStatelessnessSoak(int shard_count) {
  SoakRegion region;
  const SolverConfig config = SoakConfig(shard_count);
  AsyncSolver long_lived(config);
  Rng rng(4242);
  obs::Counter& numerical_failures =
      obs::MetricRegistry::Default().counter("ras_simplex_numerical_failures_total", "");
  const int64_t failures_before = numerical_failures.Value();

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ApplyChurn(region, rng, round);
    if (round == 17 || round == 34) {
      // Binding materialization reshapes every equivalence class at once.
      MaterializeTargets(region);
    }
    const SolveInput input =
        SnapshotSolveInput(*region.broker, region.registry, region.fleet.catalog);
    if (round % 9 == 4) {
      // A degraded-mode solve whose answer is discarded, as when the
      // supervisor walks its ladder: it must leave nothing behind.
      ASSERT_TRUE(long_lived.SolveSnapshot(input, nullptr, SolveMode::kPhase1Only).ok());
    }

    DecodedAssignment fresh;
    auto fresh_stats = AsyncSolver(config).SolveSnapshot(input, &fresh);
    DecodedAssignment live;
    auto live_stats = long_lived.SolveSnapshot(input, &live);
    ASSERT_TRUE(fresh_stats.ok()) << fresh_stats.status().ToString();
    ASSERT_TRUE(live_stats.ok()) << live_stats.status().ToString();
    ASSERT_EQ(live_stats->shard_count, shard_count);
    ASSERT_EQ(live.targets, fresh.targets) << "targets diverged";
    EXPECT_EQ(live_stats->phase1.objective, fresh_stats->phase1.objective);
    EXPECT_EQ(live_stats->phase2.objective, fresh_stats->phase2.objective);
    ASSERT_TRUE(region.broker->ApplyTargets(live.targets).ok());
  }

  // No LP solve hit a singular basis or a failed clean pass (branch-and-bound
  // would silently drop such nodes).
  EXPECT_EQ(numerical_failures.Value(), failures_before);
}

TEST(ResolveChurnSoakTest, FiftyRoundsOfChurnMatchAFreshSolverBitForBit) {
  RunStatelessnessSoak(/*shard_count=*/1);
}

TEST(ResolveChurnSoakTest, FiftyShardedRoundsOfChurnMatchAFreshSolverBitForBit) {
  RunStatelessnessSoak(/*shard_count=*/4);
}

}  // namespace
}  // namespace ras
