#include "src/core/initial_assignment.h"

#include <gtest/gtest.h>

#include <map>

#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

struct GreedyEnv {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  GreedyEnv() : fleet(GenerateFleet(Options())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }

  static FleetOptions Options() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 3;
    opts.racks_per_msb = 4;
    opts.servers_per_rack = 6;
    return opts;  // 144 servers.
  }

  ReservationId Add(const std::string& name, double capacity,
                    std::vector<double> rru = {}) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type = rru.empty() ? std::vector<double>(fleet.catalog.size(), 1.0) : rru;
    return *registry.Create(spec);
  }

  struct Built {
    SolveInput input;
    std::vector<EquivalenceClass> classes;
    BuiltModel built;
  };
  Built Prepare() {
    Built b;
    b.input = SnapshotSolveInput(*broker, registry, fleet.catalog);
    b.classes = BuildEquivalenceClasses(b.input, Scope::kMsb);
    b.built = BuildRasModel(b.input, b.classes, SolverConfig(), false);
    return b;
  }
};

// Effective capacity (total minus worst MSB) per reservation from counts.
std::map<int, double> EffectivePerReservation(const GreedyEnv::Built& b,
                                              const std::vector<double>& counts) {
  std::map<int, double> total;
  std::map<int, std::map<MsbId, double>> per_msb;
  for (size_t k = 0; k < b.built.assignment_vars.size(); ++k) {
    const auto& av = b.built.assignment_vars[k];
    const EquivalenceClass& cls = b.classes[static_cast<size_t>(av.class_index)];
    double rru =
        b.input.reservations[static_cast<size_t>(av.reservation_index)].ValueOfType(cls.type) *
        counts[k];
    total[av.reservation_index] += rru;
    per_msb[av.reservation_index][cls.msb] += rru;
  }
  std::map<int, double> effective;
  for (auto& [r, t] : total) {
    double worst = 0;
    for (auto& [msb, rru] : per_msb[r]) {
      worst = std::max(worst, rru);
    }
    effective[r] = t - worst;
  }
  return effective;
}

// RRU held per reservation id under `counts`.
std::map<ReservationId, double> HeldRru(const GreedyEnv::Built& b,
                                       const std::vector<double>& counts) {
  std::map<ReservationId, double> held;
  for (size_t k = 0; k < counts.size(); ++k) {
    const auto& av = b.built.assignment_vars[k];
    const EquivalenceClass& cls = b.classes[static_cast<size_t>(av.class_index)];
    const ReservationSpec& spec = b.input.reservations[static_cast<size_t>(av.reservation_index)];
    held[spec.id] += spec.ValueOfType(cls.type) * counts[k];
  }
  return held;
}

// A one-server shared buffer for hardware type `type` only.
ReservationSpec SharedBufferFor(size_t num_types, size_t type) {
  ReservationSpec buffer;
  buffer.name = "shared-buffer/starved";
  buffer.capacity_rru = 1.0;
  buffer.rru_per_type.assign(num_types, 0.0);
  buffer.rru_per_type[type] = 1.0;
  buffer.needs_correlated_buffer = false;
  buffer.is_shared_random_buffer = true;
  return buffer;
}

TEST(InitialAssignmentTest, FillsCapacityPlusBuffer) {
  GreedyEnv env;
  env.Add("a", 30);
  env.Add("b", 20);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  auto effective = EffectivePerReservation(b, counts);
  for (size_t r = 0; r < b.input.reservations.size(); ++r) {
    EXPECT_GE(effective[static_cast<int>(r)] + 1e-9, b.input.reservations[r].capacity_rru)
        << b.input.reservations[r].name;
  }
}

TEST(InitialAssignmentTest, NeverExceedsSupply) {
  GreedyEnv env;
  env.Add("a", 45);
  env.Add("b", 45);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  std::vector<double> used(b.classes.size(), 0.0);
  for (size_t k = 0; k < b.built.assignment_vars.size(); ++k) {
    used[static_cast<size_t>(b.built.assignment_vars[k].class_index)] += counts[k];
  }
  for (size_t c = 0; c < b.classes.size(); ++c) {
    EXPECT_LE(used[c], static_cast<double>(b.classes[c].count()) + 1e-9);
  }
}

TEST(InitialAssignmentTest, KeepsExistingBindings) {
  GreedyEnv env;
  ReservationId a = env.Add("a", 10);
  for (ServerId id = 0; id < 12; ++id) {
    env.broker->SetCurrent(id, a);
  }
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  // The greedy never reduces counts below X.
  for (size_t k = 0; k < counts.size(); ++k) {
    EXPECT_GE(counts[k], b.built.initial_counts[k] - 1e-9);
  }
}

TEST(InitialAssignmentTest, SpreadsAcrossMsbs) {
  GreedyEnv env;
  env.Add("a", 40);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  std::map<MsbId, double> per_msb;
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > 0) {
      per_msb[b.classes[static_cast<size_t>(b.built.assignment_vars[k].class_index)].msb] +=
          counts[k];
    }
  }
  EXPECT_GE(per_msb.size(), 5u);  // 6 MSBs; greedy is spread-first.
}

TEST(InitialAssignmentTest, StopsWhenRegionExhausted) {
  GreedyEnv env;
  env.Add("huge", 100000);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  double assigned = 0;
  for (double c : counts) {
    assigned += c;
  }
  EXPECT_LE(assigned, static_cast<double>(env.fleet.topology.num_servers()) + 1e-9);
  // Warm start from the exhausted greedy must still be model-feasible.
  auto warm = MakeWarmStart(b.input, b.classes, b.built, counts);
  EXPECT_TRUE(b.built.model.IsFeasible(warm, 1e-6));
}

TEST(RepairCountsTest, RepairsArbitraryStartingPoint) {
  GreedyEnv env;
  env.Add("a", 30);
  auto b = env.Prepare();
  // Start from an empty assignment (not the broker state).
  std::vector<double> empty(b.built.assignment_vars.size(), 0.0);
  auto counts = RepairCounts(b.input, b.classes, b.built, empty);
  auto effective = EffectivePerReservation(b, counts);
  EXPECT_GE(effective[0] + 1e-9, 30.0);
}

TEST(RepairCountsTest, DrawsFromPartiallyUsedClasses) {
  GreedyEnv env;
  env.Add("a", 20);
  auto b = env.Prepare();
  // Seed a start that uses half of one big class; repair must be able to use
  // the other half even though the class is not "free" in the broker sense.
  std::vector<double> seeded(b.built.assignment_vars.size(), 0.0);
  int big_class = -1;
  for (size_t c = 0; c < b.classes.size(); ++c) {
    if (b.classes[c].count() >= 4) {
      big_class = static_cast<int>(c);
      break;
    }
  }
  ASSERT_GE(big_class, 0);
  int var_in_big = b.built.class_to_vars[static_cast<size_t>(big_class)][0];
  seeded[static_cast<size_t>(var_in_big)] =
      static_cast<double>(b.classes[static_cast<size_t>(big_class)].count() / 2);
  auto counts = RepairCounts(b.input, b.classes, b.built, seeded);
  auto effective = EffectivePerReservation(b, counts);
  EXPECT_GE(effective[0] + 1e-9, 20.0);
}

TEST(RepairCountsTest, FillsStarvedSharedBufferFromDonorWithSurplus) {
  // Every server of one hardware type is bound to reservation "a", which
  // needs all but two of them. That type's one-server shared buffer has no
  // free supply left: the repair must move one server over from "a", which
  // still covers its C_r without it, instead of leaving the buffer empty.
  GreedyEnv env;
  std::vector<std::vector<ServerId>> by_type(env.fleet.catalog.size());
  for (const Server& s : env.fleet.topology.servers()) {
    by_type[s.type].push_back(s.id);
  }
  size_t type = 0;
  for (size_t t = 1; t < by_type.size(); ++t) {
    if (by_type[t].size() > by_type[type].size()) {
      type = t;
    }
  }
  const double population = static_cast<double>(by_type[type].size());
  ASSERT_GE(population, 4.0);

  const ReservationSpec buffer = SharedBufferFor(env.fleet.catalog.size(), type);
  ReservationId buffer_id = *env.registry.Create(buffer);
  ReservationSpec donor;
  donor.name = "a";
  donor.capacity_rru = population - 2.0;
  donor.rru_per_type = buffer.rru_per_type;
  donor.needs_correlated_buffer = false;
  ReservationId donor_id = *env.registry.Create(donor);
  for (ServerId id : by_type[type]) {
    env.broker->SetCurrent(id, donor_id);
  }

  auto b = env.Prepare();
  auto held = HeldRru(b, BuildInitialCounts(b.input, b.classes, b.built));
  EXPECT_GE(held[buffer_id], 1.0 - 1e-9);
  EXPECT_GE(held[donor_id], population - 2.0 - 1e-9);
  EXPECT_LE(held[buffer_id] + held[donor_id], population + 1e-9);
}

TEST(RepairCountsTest, FillsStarvedSharedBufferFromTightDonorThatCanRefill) {
  // As above, but no donor has surplus. "a" holds one server of the type in
  // every MSB that has one and needs all of them: its C_r equals its
  // effective capacity, with and without the worst-MSB buffer of
  // constraint (6), so losing any one server leaves it short. "b", eligible
  // for this type only, holds the rest and needs them all too. Every other
  // type sits idle, and "a" is eligible for all of them. The repair must
  // move one of "a"'s servers to the buffer and refill "a" from the idle
  // types, whatever the reservations' id order.
  for (bool buffer_first : {true, false}) {
    for (bool correlated : {false, true}) {
      SCOPED_TRACE(std::string("buffer_first=") + (buffer_first ? "1" : "0") +
                   " correlated=" + (correlated ? "1" : "0"));
      GreedyEnv env;
      // The type present in the most MSBs, its servers grouped by MSB.
      std::vector<std::map<MsbId, std::vector<ServerId>>> by_type_msb(env.fleet.catalog.size());
      for (const Server& s : env.fleet.topology.servers()) {
        by_type_msb[s.type][s.msb].push_back(s.id);
      }
      size_t type = 0;
      for (size_t t = 1; t < by_type_msb.size(); ++t) {
        if (by_type_msb[t].size() > by_type_msb[type].size()) {
          type = t;
        }
      }
      const size_t msbs_with_type = by_type_msb[type].size();
      ASSERT_GE(msbs_with_type, 3u);
      std::vector<ServerId> for_a;
      std::vector<ServerId> for_b;
      for (const auto& [msb, ids] : by_type_msb[type]) {
        for (size_t i = 0; i < ids.size(); ++i) {
          (i == 0 ? for_a : for_b).push_back(ids[i]);
        }
      }
      const double a_capacity = static_cast<double>(msbs_with_type - (correlated ? 1 : 0));

      const ReservationSpec buffer = SharedBufferFor(env.fleet.catalog.size(), type);
      ReservationSpec a;
      a.name = "a";
      a.capacity_rru = a_capacity;
      a.rru_per_type.assign(env.fleet.catalog.size(), 1.0);
      a.needs_correlated_buffer = correlated;
      ReservationSpec b;
      b.name = "b";
      b.capacity_rru = static_cast<double>(for_b.size());
      b.rru_per_type = buffer.rru_per_type;
      b.needs_correlated_buffer = false;
      ReservationId buffer_id = buffer_first ? *env.registry.Create(buffer) : 0;
      ReservationId a_id = *env.registry.Create(a);
      ReservationId b_id = *env.registry.Create(b);
      if (!buffer_first) {
        buffer_id = *env.registry.Create(buffer);
      }
      for (ServerId id : for_a) {
        env.broker->SetCurrent(id, a_id);
      }
      for (ServerId id : for_b) {
        env.broker->SetCurrent(id, b_id);
      }

      auto prepared = env.Prepare();
      auto counts = BuildInitialCounts(prepared.input, prepared.classes, prepared.built);
      auto held = HeldRru(prepared, counts);
      EXPECT_GE(held[buffer_id], 1.0 - 1e-9);
      EXPECT_GE(held[b_id], b.capacity_rru - 1e-9);
      EXPECT_LE(held[buffer_id] + held[b_id], static_cast<double>(for_b.size()) + 1.0 + 1e-9);
      double a_effective = held[a_id];
      if (correlated) {
        for (size_t r = 0; r < prepared.input.reservations.size(); ++r) {
          if (prepared.input.reservations[r].id == a_id) {
            a_effective = EffectivePerReservation(prepared, counts)[static_cast<int>(r)];
          }
        }
      }
      EXPECT_GE(a_effective, a_capacity - 1e-9);
    }
  }
}

}  // namespace
}  // namespace ras
