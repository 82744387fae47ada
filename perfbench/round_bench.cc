// Continuous-loop benchmark: drives RegionScenario::SolveRound as a closed
// loop (each round starts when the previous one returns), changes the
// region's inputs between rounds, and checks every applied target set.
// A run is a sequence of episodes; each sets up a fresh region and runs the
// workload's fixed number of rounds, until --seconds have passed.
//
// Usage:
//   round_bench --workload <mono_churn|request_mix|shard_churn> --seed <n>
//               --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with the process-wide tracer
// disabled. --trace 1 first repeats those untraced episodes for half the
// time, then replays the same episodes from fresh regions, driving each
// round as the sequence of public calls the supervisor makes, each wrapped in
// a benchmark-side span, and reports per-layer metrics. The last line of
// stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads, metrics and checks.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/rru.h"
#include "src/fleet/service_profile.h"
#include "src/journal/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"
#include "src/util/logging.h"
#include "src/util/monotonic_time.h"

using namespace ras;

namespace {

using Targets = std::vector<std::pair<ServerId, ReservationId>>;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  int datacenters;
  int msbs_per_datacenter;
  int racks_per_msb;
  int servers_per_rack;
  int services;
  int shard_count;
  // Availability churn (~1% of servers flip per round) vs capacity-portal
  // traffic with the durable journal and Twine jobs.
  bool portal_traffic;
  // Timed rounds per episode. A run is a sequence of episodes, each from a
  // freshly set-up region, so the run averages several independent
  // trajectories and every episode starts from the same kind of state.
  int episode_rounds;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"mono_churn", 2, 3, 6, 8, 8, 1, false, 10},
    {"request_mix", 2, 3, 6, 8, 8, 1, true, 10},
    {"shard_churn", 2, 4, 18, 36, 36, 4, false, 10},
};

// The region (fleet, reservation sizes) is part of the workload definition;
// --seed drives the round-to-round process (which servers flip, which
// requests arrive), so quality metrics compare like with like across seeds.
// Each episode draws its process from its own seed, derived from --seed.
constexpr uint64_t kFleetSeed = 4242;
constexpr uint64_t kServiceSeed = 909;
constexpr double kReservedFraction = 0.45;
constexpr double kSharedBufferFraction = 0.02;
// Availability churn: each round ~0.5% of servers go down and as many of the
// longest-down servers return, so ~1% flip and ~3% are down at steady state.
constexpr double kChurnDownPerRound = 0.005;
constexpr int kChurnDownRounds = 6;
// Capacity-portal traffic: resizes per round, and every few rounds one
// reservation is removed and a new one admitted (the count stays fixed).
constexpr int kPortalResizesPerRound = 3;
constexpr int kPortalReplaceEvery = 8;
constexpr double kResizeSpread = 0.15;
// Twine jobs fill this share of each reservation's servers.
constexpr double kJobFill = 0.5;
// Journal records between checkpoint compactions. A portal round appends
// about 20 records, so at the library default (512) a 10-round episode would
// never compact and the checkpoint path would go unmeasured; at 128 each
// episode compacts about once every 6-7 rounds.
constexpr size_t kJournalCompactEvery = 128;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-round input changes

// Maintenance-style availability churn with a steady down set: a FIFO of
// down servers, topped up with random available servers each round while the
// oldest return.
class AvailabilityChurn {
 public:
  AvailabilityChurn(size_t num_servers, uint64_t seed)
      : per_round_(kChurnDownPerRound * static_cast<double>(num_servers)),
        steady_down_(static_cast<size_t>(per_round_ * kChurnDownRounds + 0.5)),
        rng_(seed) {}

  // Brings the down set to its steady size before the initial allocation.
  void Prefill(ResourceBroker& broker) {
    for (int r = 0; r < kChurnDownRounds; ++r) {
      TakeDown(broker);
    }
  }

  // One round of churn.
  void Step(ResourceBroker& broker) {
    TakeDown(broker);
    while (down_.size() > steady_down_) {
      broker.SetUnavailability(down_.front(), Unavailability::kNone);
      down_.pop_front();
    }
  }

 private:
  void TakeDown(ResourceBroker& broker) {
    carry_ += per_round_;
    size_t count = static_cast<size_t>(carry_);
    carry_ -= static_cast<double>(count);
    for (size_t k = 0; k < count; ++k) {
      ServerId id = kInvalidServer;
      do {
        id = static_cast<ServerId>(
            rng_.UniformInt(0, static_cast<int64_t>(broker.num_servers()) - 1));
      } while (broker.record(id).unavailability != Unavailability::kNone);
      broker.SetUnavailability(id, Unavailability::kUnplannedHardware);
      down_.push_back(id);
    }
  }

  double per_round_;
  size_t steady_down_;
  double carry_ = 0.0;
  Rng rng_;
  std::deque<ServerId> down_;
};

ReservationSpec MakeService(const HardwareCatalog& catalog,
                            const std::vector<ServiceProfile>& profiles, Rng& rng,
                            const std::string& name, double mean_capacity) {
  const ServiceProfile& profile =
      profiles[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(profiles.size()) - 1))];
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = std::floor(rng.Uniform(0.75, 1.25) * mean_capacity) + 1.0;
  spec.rru_per_type = BuildRruVector(catalog, profile);
  return spec;
}

JobSpec MakeJob(ReservationId reservation, int replicas) {
  JobSpec job;
  job.name = "job-" + std::to_string(reservation);
  job.reservation = reservation;
  // Sized so most servers hold one replica: servers with jobs are in use,
  // which is what makes the solver's in-use move cost and the mover's
  // preemption path do work.
  job.container.cpu = 24.0;
  job.container.memory_gb = 48.0;
  job.replicas = std::max(1, replicas);
  return job;
}

// Capacity-portal traffic through RegionScenario::{Admit,Update,Remove}
// Reservation: every round resizes a few reservations by up to +/-15% around
// their base size (the model-patch path); every kPortalReplaceEvery rounds one
// reservation is removed and a successor with the same spec is admitted under
// a new id (the rebuild path), so the demand mix stays stationary. Each
// reservation carries one Twine job.
class PortalTraffic {
 public:
  explicit PortalTraffic(uint64_t seed) : rng_(seed) {}

  void Track(ReservationId id, double base_capacity) { base_[id] = base_capacity; }
  bool has_jobs() const { return !jobs_.empty(); }

  // Submits one job per tracked reservation, sized to its current holding.
  void SubmitJobs(RegionScenario& sim) {
    for (const auto& [id, base] : base_) {
      SubmitJob(sim, id, sim.broker->CountInReservation(id));
    }
  }

  // Applies one round's batch; returns the number of failed portal calls.
  int Step(RegionScenario& sim) {
    int failures = 0;
    if (++round_ % kPortalReplaceEvery == 0) {
      failures += Replace(sim, PickReservation());
    }
    for (int op = 0; op < kPortalResizesPerRound; ++op) {
      failures += Resize(sim, PickReservation());
    }
    return failures;
  }

 private:
  ReservationId PickReservation() {
    auto it = base_.begin();
    std::advance(it, rng_.UniformInt(0, static_cast<int64_t>(base_.size()) - 1));
    return it->first;
  }

  void SubmitJob(RegionScenario& sim, ReservationId id, size_t servers) {
    const int replicas = static_cast<int>(kJobFill * static_cast<double>(servers));
    auto job = sim.twine->SubmitJob(MakeJob(id, replicas));
    if (job.ok()) {
      jobs_[id] = *job;
    }
  }

  int Replace(RegionScenario& sim, ReservationId id) {
    const ReservationSpec* current = sim.registry.Find(id);
    if (current == nullptr) {
      return 1;
    }
    ReservationSpec successor = *current;
    successor.id = kUnassigned;
    successor.name += "'";
    const double base = base_[id];
    auto job = jobs_.find(id);
    if (job != jobs_.end()) {
      (void)sim.twine->StopJob(job->second);
      jobs_.erase(job);
    }
    base_.erase(id);
    if (!sim.RemoveReservation(id).ok()) {
      return 1;
    }
    auto admitted = sim.AdmitReservation(std::move(successor));
    if (!admitted.ok()) {
      return 1;
    }
    base_[*admitted] = base;
    // Sized like the seed jobs: about one server per 1.5 RRU.
    SubmitJob(sim, *admitted, static_cast<size_t>(base / 1.5));
    return 0;
  }

  int Resize(RegionScenario& sim, ReservationId id) {
    const ReservationSpec* current = sim.registry.Find(id);
    if (current == nullptr) {
      return 1;
    }
    ReservationSpec spec = *current;
    spec.capacity_rru =
        std::floor(base_[id] * rng_.Uniform(1.0 - kResizeSpread, 1.0 + kResizeSpread)) + 1.0;
    return sim.UpdateReservation(spec).ok() ? 0 : 1;
  }

  int round_ = 0;
  Rng rng_;
  std::map<ReservationId, double> base_;
  std::map<ReservationId, JobId> jobs_;
};

// One region: the scenario plus the process that changes its inputs.
struct Region {
  std::unique_ptr<RegionScenario> sim;
  std::unique_ptr<AvailabilityChurn> churn;
  std::unique_ptr<PortalTraffic> portal;
  int setup_failures = 0;
  size_t initial_bound = 0;  // Servers bound to a reservation after set-up.

  // Changes the inputs for the next round. Returns failed portal calls.
  int ChangeInputs() {
    if (churn != nullptr) {
      churn->Step(*sim->broker);
      return 0;
    }
    return portal->Step(*sim);
  }
};

// Everything before an episode's first timed round: fleet, broker, registry, shared
// buffers, reservations, the churn down set, the initial allocation (one
// supervised round) and, for portal traffic, the Twine jobs.
std::unique_ptr<Region> SetUpRegion(const WorkloadSpec& workload, uint64_t seed,
                                    const std::string& journal_dir) {
  auto region = std::make_unique<Region>();
  ScenarioOptions options;
  options.fleet.num_datacenters = workload.datacenters;
  options.fleet.msbs_per_datacenter = workload.msbs_per_datacenter;
  options.fleet.racks_per_msb = workload.racks_per_msb;
  options.fleet.servers_per_rack = workload.servers_per_rack;
  options.fleet.seed = kFleetSeed;
  options.solver.shard_count = workload.shard_count;
  if (workload.shard_count > 1) {
    unsigned hw = std::thread::hardware_concurrency();
    options.solver.shard_threads =
        std::max(1, std::min(workload.shard_count, hw == 0 ? 1 : static_cast<int>(hw)));
  }
  options.shared_buffer_fraction = kSharedBufferFraction;
  options.seed = seed;
  if (workload.portal_traffic) {
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    std::filesystem::create_directories(journal_dir, ec);
    options.durable_dir = journal_dir;
    options.durable.compact_every_records = kJournalCompactEvery;
  }
  region->sim = std::make_unique<RegionScenario>(options);
  RegionScenario& sim = *region->sim;
  const size_t num_servers = sim.fleet.topology.num_servers();

  if (workload.portal_traffic) {
    region->portal = std::make_unique<PortalTraffic>(seed ^ 0xC0FFEEull);
  } else {
    region->churn = std::make_unique<AvailabilityChurn>(num_servers, seed ^ 0xC0FFEEull);
  }

  Rng service_rng(kServiceSeed);
  auto profiles = MakePaperServiceProfiles();
  const double mean_capacity =
      kReservedFraction * static_cast<double>(num_servers) / workload.services;
  for (int i = 0; i < workload.services; ++i) {
    ReservationSpec spec = MakeService(sim.fleet.catalog, profiles, service_rng,
                                       "svc-" + std::to_string(i), mean_capacity);
    double base = spec.capacity_rru;
    auto id = sim.AdmitReservation(std::move(spec));
    if (!id.ok()) {
      ++region->setup_failures;
      continue;
    }
    if (region->portal != nullptr) {
      region->portal->Track(*id, base);
    }
  }
  if (region->churn != nullptr) {
    region->churn->Prefill(*sim.broker);
  }
  auto initial = sim.SolveRound();
  if (!initial.ok()) {
    ++region->setup_failures;
  }
  for (ServerId s = 0; s < num_servers; ++s) {
    region->initial_bound += sim.broker->record(s).current != kUnassigned ? 1 : 0;
  }
  if (region->portal != nullptr) {
    region->portal->SubmitJobs(sim);
    sim.twine->RetryPending();
  }
  return region;
}

// ---------------------------------------------------------------------------
// Independent checks and pricing (share no code with the solver's decode)

// Per-server reservation after the targets apply; servers without a target
// keep their snapshot binding.
std::vector<ReservationId> EffectiveBindings(const SolveInput& input, const Targets& targets) {
  std::vector<ReservationId> binding(input.servers.size(), kUnassigned);
  for (ServerId s = 0; s < input.servers.size(); ++s) {
    binding[s] = input.servers[s].current;
  }
  for (const auto& [server, res] : targets) {
    if (server < binding.size()) {
      binding[server] = res;
    }
  }
  return binding;
}

// Audit of the applied targets: each server at most once and known, every
// binding hardware-eligible, the broker holding exactly these targets, and
// every shared buffer present at its full size. Returns "" when clean.
std::string AuditTargets(const SolveInput& input, const Targets& targets,
                         const ResourceBroker& broker, const std::vector<ReservationId>& buffers) {
  std::unordered_map<ReservationId, const ReservationSpec*> spec_of;
  for (const ReservationSpec& spec : input.reservations) {
    spec_of[spec.id] = &spec;
  }
  std::vector<char> seen(input.servers.size(), 0);
  for (const auto& [server, res] : targets) {
    if (server >= input.servers.size()) {
      return "target names unknown server " + std::to_string(server);
    }
    if (seen[server]++) {
      return "server " + std::to_string(server) + " targeted more than once";
    }
    if (broker.record(server).target != res) {
      return "broker target of server " + std::to_string(server) + " differs from applied target";
    }
    if (res == kUnassigned) {
      continue;
    }
    auto it = spec_of.find(res);
    if (it == spec_of.end()) {
      return "server " + std::to_string(server) + " targeted to unknown reservation " +
             std::to_string(res);
    }
    HardwareTypeId type = input.topology->server(server).type;
    if (it->second->ValueOfType(type) <= 0.0) {
      return "server " + std::to_string(server) + " of ineligible type " + std::to_string(type) +
             " targeted to reservation " + std::to_string(res);
    }
  }
  std::vector<ReservationId> binding = EffectiveBindings(input, targets);
  for (ReservationId buffer : buffers) {
    auto it = spec_of.find(buffer);
    if (it == spec_of.end()) {
      return "shared buffer " + std::to_string(buffer) + " missing from the snapshot";
    }
    double held = 0.0;
    double supply = 0.0;  // Available servers of the buffer's type, in RRU.
    for (ServerId s = 0; s < binding.size(); ++s) {
      if (input.servers[s].available) {
        const double value = it->second->ValueOfType(input.topology->server(s).type);
        supply += value;
        held += binding[s] == buffer ? value : 0.0;
      }
    }
    if (held + 1e-6 < it->second->capacity_rru) {
      return "shared buffer " + std::to_string(buffer) + " holds " + std::to_string(held) +
             " of " + std::to_string(it->second->capacity_rru) + " RRU while " +
             std::to_string(supply) + " RRU of its type are available";
    }
  }
  return "";
}

// Fig. 12: the minimum over guaranteed reservations of the share of C_r
// still held after losing the reservation's worst MSB.
double WorstMsbCoverage(const SolveInput& input, const Targets& targets) {
  std::vector<ReservationId> binding = EffectiveBindings(input, targets);
  std::unordered_map<ReservationId, size_t> index;
  for (size_t r = 0; r < input.reservations.size(); ++r) {
    index[input.reservations[r].id] = r;
  }
  const size_t msbs = input.topology->num_msbs();
  std::vector<std::vector<double>> per_msb(input.reservations.size(),
                                           std::vector<double>(msbs, 0.0));
  for (ServerId s = 0; s < binding.size(); ++s) {
    auto it = index.find(binding[s]);
    if (it == index.end() || !input.servers[s].available) {
      continue;
    }
    const Server& server = input.topology->server(s);
    per_msb[it->second][server.msb] += input.reservations[it->second].ValueOfType(server.type);
  }
  double worst = 1e300;
  for (size_t r = 0; r < input.reservations.size(); ++r) {
    const ReservationSpec& spec = input.reservations[r];
    if (!spec.needs_correlated_buffer || spec.is_shared_random_buffer || spec.capacity_rru <= 0) {
      continue;
    }
    double total = 0.0;
    double top = 0.0;
    for (double v : per_msb[r]) {
      total += v;
      top = std::max(top, v);
    }
    worst = std::min(worst, (total - top) / spec.capacity_rru);
  }
  return worst == 1e300 ? 0.0 : worst;
}

// Prices targets on a region-wide reference model the benchmark builds
// itself (BuildRasModel + MakeWarmStart + Model::Objective), identical for
// monolithic and sharded runs. Lower is better.
double PriceTargets(const SolveInput& input, const Targets& targets) {
  std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), /*include_rack_spread=*/false);
  std::vector<int> class_of(input.servers.size(), -1);
  for (size_t c = 0; c < classes.size(); ++c) {
    for (ServerId s : classes[c].servers) {
      class_of[s] = static_cast<int>(c);
    }
  }
  std::map<std::pair<int, int>, size_t> var_of;
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    var_of[{built.assignment_vars[k].class_index, built.assignment_vars[k].reservation_index}] = k;
  }
  std::vector<double> counts(built.assignment_vars.size(), 0.0);
  std::vector<ReservationId> binding = EffectiveBindings(input, targets);
  for (ServerId s = 0; s < binding.size(); ++s) {
    int r = input.ReservationIndex(binding[s]);
    if (class_of[s] < 0 || r < 0) {
      continue;
    }
    auto it = var_of.find({class_of[s], r});
    if (it != var_of.end()) {
      counts[it->second] += 1.0;
    }
  }
  std::vector<double> x = MakeWarmStart(input, classes, built, counts);
  return built.model.Objective(x);
}

uint64_t Digest(const Targets& targets) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [server, res] : targets) {
    for (uint64_t v : {static_cast<uint64_t>(server), static_cast<uint64_t>(res)}) {
      h = (h ^ v) * 1099511628211ull;
    }
  }
  return h;
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Default().counter(name, "").Value();
}

double HistogramSum(const char* name) {
  for (const obs::Histogram* h : obs::MetricRegistry::Default().Histograms()) {
    if (h->name() == name) {
      return h->Sum();
    }
  }
  return 0.0;
}

// The registry values the traced replay reports. Totals accumulate the
// change across timed rounds only, so set-up (initial allocation, journal
// bootstrap) stays out of the per-layer numbers.
struct RegistryReading {
  double lp_iterations = 0.0;
  double refactorizations = 0.0;
  double dual_iterations = 0.0;
  double journal_appends = 0.0;
  double journal_append_s = 0.0;
  double journal_checkpoint_s = 0.0;

  static RegistryReading Now() {
    RegistryReading r;
    r.lp_iterations = CounterValue("ras_simplex_iterations_total");
    r.refactorizations = CounterValue("ras_simplex_refactorizations_total");
    r.dual_iterations = CounterValue("ras_simplex_dual_iterations_total");
    r.journal_appends = CounterValue("ras_journal_appends_total");
    r.journal_append_s = HistogramSum("ras_journal_append_seconds");
    r.journal_checkpoint_s = HistogramSum("ras_journal_checkpoint_seconds");
    return r;
  }

  void AddChange(const RegistryReading& from, const RegistryReading& to) {
    lp_iterations += to.lp_iterations - from.lp_iterations;
    refactorizations += to.refactorizations - from.refactorizations;
    dual_iterations += to.dual_iterations - from.dual_iterations;
    journal_appends += to.journal_appends - from.journal_appends;
    journal_append_s += to.journal_append_s - from.journal_append_s;
    journal_checkpoint_s += to.journal_checkpoint_s - from.journal_checkpoint_s;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The untraced loop: end-to-end metrics and the per-round correctness gate

struct RoundRecord {
  double wall_s = 0.0;
  std::string failure;  // Empty when the round passed every check.
  double cost = 0.0;
  double moves = 0.0;
  double shortfall_rru = 0.0;
  double coverage = 0.0;
  uint64_t digest = 0;
};

struct LoopResult {
  std::vector<RoundRecord> rounds;  // Episode-major: episode e's round r at e * rounds + r.
  std::vector<double> setup_s;      // One per episode.
  std::vector<uint32_t> final_states;  // Broker + registry digest after each episode.
  int input_failures = 0;
  int setup_failures = 0;
  size_t initial_bound = 0;
};

SolverConfig GateConfig(const SolverConfig& config) {
  SolverConfig gate = config;
  gate.incremental_resolve = false;
  return gate;
}

uint64_t EpisodeSeed(uint64_t seed, int episode) {
  // splitmix64 finalizer over (seed, episode): distinct, well-mixed streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(episode) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// One timed round followed by its untimed checks and pricing.
RoundRecord RunGatedRound(Region& region, AsyncSolver& gate, int* input_failures) {
  RegionScenario& sim = *region.sim;
  *input_failures += region.ChangeInputs();
  // The snapshot the supervisor is about to take: nothing moves between here
  // and SolveRound, so the gate solves exactly the round's input.
  SolveInput input = SnapshotSolveInput(*sim.broker, sim.registry, sim.fleet.catalog);
  const int64_t limit_hits = CounterValue("ras_mip_time_limit_hits_total");

  const double t0 = util::MonotonicSeconds();
  Result<SolveStats> stats = sim.SolveRound();
  RoundRecord rec;
  rec.wall_s = util::MonotonicSeconds() - t0;

  const RoundOutcome& outcome = sim.supervisor->stats().rounds.back();
  const Targets& applied = sim.supervisor->last_good_targets();
  if (!stats.ok() || outcome.rung != LadderRung::kFullTwoPhase) {
    rec.failure = std::string("served on ") + LadderRungName(outcome.rung) + ": " +
                  (stats.ok() ? outcome.error.ToString() : stats.status().ToString());
  } else if (CounterValue("ras_mip_time_limit_hits_total") != limit_hits) {
    rec.failure = "a MIP hit its time limit";
  } else {
    rec.failure = AuditTargets(input, applied, *sim.broker, sim.shared_buffer_ids);
    if (rec.failure.empty()) {
      DecodedAssignment cold;
      auto gate_stats = gate.SolveSnapshot(input, &cold);
      if (!gate_stats.ok()) {
        rec.failure = "cache-off solve failed: " + gate_stats.status().ToString();
      } else if (cold.targets != applied) {
        rec.failure = "targets differ from the cache-off solve of the same snapshot";
      }
    }
  }
  if (stats.ok()) {
    rec.moves = static_cast<double>(stats->moves_total);
    rec.shortfall_rru = stats->total_shortfall_rru;
  }
  rec.cost = PriceTargets(input, applied);
  rec.coverage = WorstMsbCoverage(input, applied);
  rec.digest = Digest(applied);
  return rec;
}

// Runs whole episodes (set-up, then the workload's rounds) for about
// `seconds` of wall time: a new episode starts only while the longest one so
// far still fits, and the first always runs.
LoopResult RunGatedEpisodes(const WorkloadSpec& workload, uint64_t seed, double seconds,
                            const std::string& journal_dir) {
  LoopResult out;
  const double start = util::MonotonicSeconds();
  double longest = 0.0;
  for (int e = 0; e == 0 || util::MonotonicSeconds() - start + longest <= seconds; ++e) {
    const double t0 = util::MonotonicSeconds();
    std::unique_ptr<Region> region = SetUpRegion(workload, EpisodeSeed(seed, e), journal_dir);
    out.setup_s.push_back(util::MonotonicSeconds() - t0);
    out.setup_failures += region->setup_failures;
    out.initial_bound = region->initial_bound;
    AsyncSolver gate(GateConfig(region->sim->solver.config()));
    for (int r = 0; r < workload.episode_rounds; ++r) {
      out.rounds.push_back(RunGatedRound(*region, gate, &out.input_failures));
    }
    out.final_states.push_back(journal::StateDigest(*region->sim->broker, region->sim->registry));
    longest = std::max(longest, util::MonotonicSeconds() - t0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The traced replay: per-layer metrics

// Benchmark-side span names, one per public call the supervisor makes.
constexpr const char* kRoundSpan = "bench.round";
constexpr const char* kSnapshotSpan = "SnapshotSolveInput";
constexpr const char* kValidateSpan = "ValidateSolveInput";
constexpr const char* kSolveSpan = "AsyncSolver::SolveSnapshot";
constexpr const char* kPersistSpan = "DurableControlPlane::PersistTargets";
constexpr const char* kApplySpan = "ResourceBroker::ApplyTargets";
constexpr const char* kReconcileSpan = "OnlineMover::ReconcileAll";
constexpr const char* kRetrySpan = "TwineAllocator::RetryPending";
constexpr const char* kBarrierSpan = "RoundBarrier";
constexpr const char* kChangeInputsSpan = "bench.change_inputs";

struct TracedRound {
  double wall_s = 0.0;
  Targets targets;
  SolveStats stats;
  bool ok = false;
};

// One round as the supervisor drives it on its top rung: snapshot ->
// validate -> solve -> persist (journal) or apply (broker) -> reconcile ->
// retry pending containers -> round barrier.
TracedRound RunTracedRound(RegionScenario& sim) {
  obs::Tracer& tracer = obs::Tracer::Default();
  TracedRound out;
  const double t0 = util::MonotonicSeconds();
  {
    obs::SpanScope round(tracer, kRoundSpan);
    const uint64_t parent = round.id();
    SolveInput input;
    {
      obs::SpanScope span(tracer, kSnapshotSpan, parent);
      input = SnapshotSolveInput(*sim.broker, sim.registry, sim.fleet.catalog);
    }
    Status valid;
    {
      obs::SpanScope span(tracer, kValidateSpan, parent);
      valid = ValidateSolveInput(input);
    }
    DecodedAssignment decoded;
    Result<SolveStats> stats = Status::Internal("not solved");
    if (valid.ok()) {
      obs::SpanScope span(tracer, kSolveSpan, parent);
      stats = sim.solver.SolveSnapshot(input, &decoded);
    }
    Status persisted = stats.status();
    if (stats.ok()) {
      const bool durable = sim.durable != nullptr && !sim.durable->dead();
      obs::SpanScope span(tracer, durable ? kPersistSpan : kApplySpan, parent);
      persisted = durable ? sim.durable->PersistTargets(*sim.broker, decoded.targets)
                          : sim.broker->ApplyTargets(decoded.targets);
    }
    {
      obs::SpanScope span(tracer, kReconcileSpan, parent);
      sim.mover->ReconcileAll();
    }
    {
      obs::SpanScope span(tracer, kRetrySpan, parent);
      sim.twine->RetryPending();
    }
    if (sim.durable != nullptr && !sim.durable->dead()) {
      obs::SpanScope span(tracer, kBarrierSpan, parent);
      (void)sim.durable->RoundBarrier();
    }
    out.ok = persisted.ok();
    if (stats.ok()) {
      out.stats = *stats;
    }
    out.targets = std::move(decoded.targets);
  }
  out.wall_s = util::MonotonicSeconds() - t0;
  return out;
}

// Per-layer accumulators; every time is summed over rounds and reported as
// a per-round mean.
struct LayerTotals {
  int rounds = 0;
  std::map<std::string, double> call_s;  // Benchmark span name -> seconds.
  double round_s = 0.0;
  double children_s = 0.0;
  double retry_work_s = 0.0;
  double mutation_s = 0.0;
  // From SolveStats (summed over shards when sharded).
  double class_build_s = 0.0;
  double model_build_s = 0.0;
  double warm_start_s = 0.0;
  double mip_s = 0.0;
  double phase2_mip_s = 0.0;
  double nodes = 0.0;
  double model_rows = 0.0;
  double model_vars = 0.0;
  double model_bytes = 0.0;
  double phases_ran = 0.0;
  double phases_patched = 0.0;
  double phases_skipped = 0.0;
  double shortfall_rru = 0.0;
  double repair_moves = 0.0;
  double failed_shards = 0.0;
  // From the library's shard spans.
  double fanout_s = 0.0;
  double shard_busy_s = 0.0;
  double shard_wall_s = 0.0;     // First shard start to last shard end.
  double shard_section_s = 0.0;  // shard_wall_s x shards in flight.
  double shard_slowest_over_mean = 0.0;
  int shard_rounds = 0;
};

void AccumulateStats(const SolveStats& s, LayerTotals& t) {
  for (const PhaseStats* p : {&s.phase1, &s.phase2}) {
    if (!p->ran) {
      continue;
    }
    t.class_build_s += p->timings.ras_build_s;
    t.model_build_s += p->timings.solver_build_s;
    t.warm_start_s += p->timings.initial_state_s;
    t.mip_s += p->timings.mip_s;
    t.nodes += static_cast<double>(p->nodes);
    t.phases_ran += 1.0;
    t.phases_patched += p->model_patched ? 1.0 : 0.0;
    t.phases_skipped += p->solve_skipped ? 1.0 : 0.0;
  }
  t.phase2_mip_s += s.phase2.timings.mip_s;
  t.model_rows += static_cast<double>(s.phase1.model_rows);
  t.model_vars += static_cast<double>(s.phase1.model_variables);
  t.model_bytes += static_cast<double>(s.phase1.memory_bytes);
  t.shortfall_rru += s.total_shortfall_rru;
  t.repair_moves += static_cast<double>(s.repair_moves);
  t.failed_shards += static_cast<double>(s.failed_shards);
}

// Folds one round's completed spans into the totals and appends them to
// `log` for the end-of-run span file.
void AccumulateSpans(const std::vector<obs::Span>& spans, int shard_threads, LayerTotals& t,
                     std::vector<obs::Span>& log) {
  uint64_t round_id = 0;
  for (const obs::Span& s : spans) {
    if (s.name == kRoundSpan) {
      round_id = s.id;
      t.round_s += s.wall_seconds();
    }
  }
  double first_start = 1e300;
  double last_end = -1e300;
  double busy = 0.0;
  double slowest = 0.0;
  int shards = 0;
  for (const obs::Span& s : spans) {
    if (s.parent == round_id && round_id != 0) {
      t.call_s[s.name] += s.wall_seconds();
      t.children_s += s.wall_seconds();
    } else if (s.name == "shard_fanout") {
      t.fanout_s += s.wall_seconds();
    } else if (s.name == "shard") {
      first_start = std::min(first_start, s.wall_start_s);
      last_end = std::max(last_end, s.wall_end_s);
      busy += s.wall_seconds();
      slowest = std::max(slowest, s.wall_seconds());
      ++shards;
    }
  }
  if (shards > 0) {
    t.shard_busy_s += busy;
    t.shard_wall_s += last_end - first_start;
    t.shard_section_s += (last_end - first_start) * std::min(shards, std::max(1, shard_threads));
    t.shard_slowest_over_mean += slowest / (busy / shards);
    ++t.shard_rounds;
  }
  log.insert(log.end(), spans.begin(), spans.end());
}

void WriteSpans(const std::string& path, const std::vector<obs::Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const obs::Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f}\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 s.name.c_str(), s.wall_start_s, s.wall_end_s);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Reporting

// Self time per round of each call span, with the solve split into its
// steps: SolveStats step timings when monolithic, the shard spans when
// sharded (whose step timings are summed over shards running in parallel).
void PrintLayerTable(const LayerTotals& t) {
  const double n = std::max(1, t.rounds);
  auto row = [&](const std::string& name, double secs) {
    std::printf("  %-44s %10.6f  %5.1f%%\n", name.c_str(), secs / n,
                t.round_s > 0 ? 100.0 * secs / t.round_s : 0.0);
  };
  std::printf("self time per round (s) and share of the round:\n");
  for (const auto& [name, secs] : t.call_s) {
    if (name != kSolveSpan) {
      row(name, secs);
      continue;
    }
    row(name + " (total)", secs);
    if (t.shard_rounds > 0) {
      row("  plan + split + merge + stitch repair", t.fanout_s - t.shard_wall_s);
      row("  shard solves (first start to last end)", t.shard_wall_s);
      row("  outside the fan-out", secs - t.fanout_s);
    } else {
      const double steps = t.class_build_s + t.model_build_s + t.warm_start_s + t.mip_s;
      row("  class build", t.class_build_s);
      row("  model build or patch", t.model_build_s);
      row("  warm start (greedy + polish)", t.warm_start_s);
      row("  MIP (simplex + branch-and-bound)", t.mip_s);
      row("  decode, subset selection, accounting", secs - steps);
    }
  }
  row("unattributed", t.round_s - t.children_s);
}

// One line per timed round, for looking at a run's distribution.
void WriteRounds(const std::string& path, const LoopResult& loop) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write rounds to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "round,wall_s,cost,moves,shortfall_rru,coverage,failure\n");
  for (size_t i = 0; i < loop.rounds.size(); ++i) {
    const RoundRecord& r = loop.rounds[i];
    std::fprintf(f, "%zu,%.9f,%.6f,%.0f,%.6f,%.6f,\"%s\"\n", i, r.wall_s, r.cost, r.moves,
                 r.shortfall_rru, r.coverage, r.failure.c_str());
  }
  std::fclose(f);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Nearest-rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    values_[name] = value;
    std::printf("  %-32s %16.9g %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": " + buf +
                                             ", \"unit\": \"" + unit + "\"}");
  }
  const std::string& body() const { return body_; }

  // Names of metrics starting with `prefix` that are not exactly 0.
  std::vector<std::string> NonZero(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& [name, value] : values_) {
      if (name.rfind(prefix, 0) == 0 && value != 0.0) {
        out.push_back(name);
      }
    }
    return out;
  }

 private:
  std::string body_;
  std::map<std::string, double> values_;
};

int CountFailures(const LoopResult& loop, std::string* first) {
  int failed = 0;
  for (size_t i = 0; i < loop.rounds.size(); ++i) {
    if (!loop.rounds[i].failure.empty()) {
      if (failed++ == 0) {
        *first = "round " + std::to_string(i) + " (episode-major): " + loop.rounds[i].failure;
      }
    }
  }
  return failed;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr && args->seconds > 0;
}

void PrintResult(bool correct, size_t attempted, int failed, const MetricsJson& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.body().c_str());
}

void PrintRunSummary(const WorkloadSpec& workload, const Args& args, const LoopResult& loop,
                     int failed, const std::string& first_failure) {
  std::printf("workload %s, seed %llu: %zu episodes x %d rounds = %zu timed rounds, %d failed "
              "(failed_ratio %.4f)\n",
              workload.name, static_cast<unsigned long long>(args.seed), loop.setup_s.size(),
              workload.episode_rounds, loop.rounds.size(), failed,
              loop.rounds.empty() ? 0.0 : static_cast<double>(failed) / loop.rounds.size());
  if (!first_failure.empty()) {
    std::printf("first failure: %s\n", first_failure.c_str());
  }
  if (loop.input_failures > 0 || loop.setup_failures > 0) {
    std::printf("input failures: %d portal calls, %d set-up steps\n", loop.input_failures,
                loop.setup_failures);
  }
}

int RunEndToEnd(const WorkloadSpec& workload, const Args& args) {
  LoopResult loop = RunGatedEpisodes(workload, args.seed, args.seconds,
                                     args.work_dir + "/journal-" + workload.name);
  WriteRounds(args.work_dir + "/rounds-" + workload.name + "-" + std::to_string(args.seed) + ".csv",
              loop);
  std::string first_failure;
  const int failed = CountFailures(loop, &first_failure);
  const bool correct = failed == 0 && loop.input_failures == 0 && loop.setup_failures == 0;
  PrintRunSummary(workload, args, loop, failed, first_failure);

  std::vector<double> walls, cost, moves, shortfall, coverage;
  for (const RoundRecord& r : loop.rounds) {
    walls.push_back(r.wall_s);
    cost.push_back(r.cost);
    moves.push_back(r.moves);
    shortfall.push_back(r.shortfall_rru);
    coverage.push_back(r.coverage);
  }
  std::printf("initial allocation binds %zu servers; mean shortfall %.6g RRU/round\n",
              loop.initial_bound, Mean(shortfall));
  MetricsJson metrics;
  metrics.Add("round_s.p50", Percentile(walls, 0.5), "s");
  metrics.Add("round_s.p90", Percentile(walls, 0.9), "s");
  metrics.Add("setup_s", Percentile(loop.setup_s, 0.5), "s");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics.Add("cost", Mean(cost), "objective");
  metrics.Add("moves_per_round", Mean(moves), "count");
  metrics.Add("worst_msb_coverage", Mean(coverage), "ratio");
  PrintResult(correct, loop.rounds.size(), failed, metrics);
  return 0;
}

int RunTraced(const WorkloadSpec& workload, const Args& args) {
  const std::string journal_dir = args.work_dir + "/journal-" + workload.name;
  obs::Tracer& tracer = obs::Tracer::Default();

  // Untraced reference: the same gated episodes the end-to-end run measures.
  LoopResult untraced = RunGatedEpisodes(workload, args.seed, args.seconds / 2, journal_dir);
  std::string first_failure;
  const int failed = CountFailures(untraced, &first_failure);
  std::vector<double> untraced_walls;
  for (const RoundRecord& r : untraced.rounds) {
    untraced_walls.push_back(r.wall_s);
  }

  // Traced replay of the same episodes, each from a fresh region.
  RegistryReading registry;
  LayerTotals totals;
  std::vector<obs::Span> log;
  std::vector<double> traced_walls;
  bool targets_match = true;
  bool states_match = true;
  int input_failures = untraced.input_failures;
  int setup_failures = untraced.setup_failures;
  double moves_executed = 0.0;
  for (size_t e = 0; e < untraced.setup_s.size(); ++e) {
    std::unique_ptr<Region> region =
        SetUpRegion(workload, EpisodeSeed(args.seed, static_cast<int>(e)), journal_dir);
    RegionScenario& sim = *region->sim;
    setup_failures += region->setup_failures;
    const int shard_threads = sim.solver.config().shard_threads;
    const size_t moves0 = sim.mover->stats().moves_applied;
    const RegistryReading episode_start = RegistryReading::Now();
    tracer.Clear();
    tracer.set_enabled(true);
    for (int r = 0; r < workload.episode_rounds; ++r) {
      const RoundRecord& reference = untraced.rounds[e * workload.episode_rounds + r];
      {
        obs::SpanScope change_inputs(tracer, kChangeInputsSpan);
        const double m0 = util::MonotonicSeconds();
        input_failures += region->ChangeInputs();
        if (region->portal != nullptr) {
          totals.mutation_s += util::MonotonicSeconds() - m0;
        }
      }
      TracedRound round = RunTracedRound(sim);
      traced_walls.push_back(round.wall_s);
      targets_match = targets_match && round.ok && Digest(round.targets) == reference.digest;
      AccumulateStats(round.stats, totals);
      std::vector<obs::Span> spans = tracer.Completed();
      tracer.Clear();
      const double retry_before = totals.call_s[kRetrySpan];
      AccumulateSpans(spans, shard_threads, totals, log);
      if (region->portal != nullptr && region->portal->has_jobs()) {
        totals.retry_work_s += totals.call_s[kRetrySpan] - retry_before;
      }
      ++totals.rounds;
    }
    tracer.set_enabled(false);
    registry.AddChange(episode_start, RegistryReading::Now());
    moves_executed += static_cast<double>(sim.mover->stats().moves_applied - moves0);
    states_match = states_match &&
                   journal::StateDigest(*sim.broker, sim.registry) == untraced.final_states[e];
  }

  const std::string spans_path = args.work_dir + "/spans-" + workload.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  WriteSpans(spans_path, log);

  const double n = std::max(1, totals.rounds);
  const double unattributed = Ratio(totals.round_s - totals.children_s, totals.round_s);
  const double lp_iterations = registry.lp_iterations;
  const bool correct = failed == 0 && input_failures == 0 && setup_failures == 0 &&
                       targets_match && states_match && unattributed <= 0.05;

  PrintRunSummary(workload, args, untraced, failed, first_failure);
  std::printf("traced replay: %d rounds; targets equal untraced: %s; final state equal: %s\n",
              totals.rounds, targets_match ? "yes" : "NO", states_match ? "yes" : "NO");
  std::printf("spans: %s\n", spans_path.c_str());
  PrintLayerTable(totals);

  auto call = [&](const char* name) {
    auto it = totals.call_s.find(name);
    return it == totals.call_s.end() ? 0.0 : it->second / n;
  };
  MetricsJson m;
  m.Add("solver.mip_s", totals.mip_s / n, "s");
  m.Add("solver.nodes", totals.nodes / n, "count");
  m.Add("solver.lp_iterations", lp_iterations / n, "count");
  m.Add("solver.refactorizations", registry.refactorizations / n, "count");
  m.Add("solver.dual_iterations", registry.dual_iterations / n, "count");
  m.Add("solver.s_per_lp_iteration", Ratio(totals.mip_s, lp_iterations), "s");
  m.Add("solver.model_rows", totals.model_rows / n, "count");
  m.Add("solver.model_vars", totals.model_vars / n, "count");
  m.Add("solver.model_bytes", totals.model_bytes / n, "B");
  m.Add("solver.phase2_mip_s", totals.phase2_mip_s / n, "s");
  m.Add("core.warm_start_s", totals.warm_start_s / n, "s");
  m.Add("core.model_build_s", totals.model_build_s / n, "s");
  m.Add("core.class_build_s", totals.class_build_s / n, "s");
  m.Add("core.cache_patched_ratio", Ratio(totals.phases_patched, totals.phases_ran), "ratio");
  m.Add("core.cache_skipped_ratio", Ratio(totals.phases_skipped, totals.phases_ran), "ratio");
  m.Add("core.validate_s", call(kValidateSpan), "s");
  m.Add("core.solve_s", call(kSolveSpan), "s");
  m.Add("core.reconcile_s", call(kReconcileSpan), "s");
  m.Add("core.moves_executed", moves_executed / n, "count");
  m.Add("core.shortfall_rru", totals.shortfall_rru / n, "RRU");
  m.Add("broker.snapshot_s", call(kSnapshotSpan), "s");
  m.Add("broker.apply_s", call(kApplySpan), "s");
  m.Add("journal.persist_s", call(kPersistSpan), "s");
  m.Add("journal.barrier_s", call(kBarrierSpan), "s");
  m.Add("journal.appends", registry.journal_appends / n, "count");
  m.Add("journal.append_s", registry.journal_append_s / n, "s");
  m.Add("journal.checkpoint_s", registry.journal_checkpoint_s / n, "s");
  m.Add("journal.mutation_s", totals.mutation_s / n, "s");
  m.Add("twine.retry_s", totals.retry_work_s / n, "s");
  m.Add("shard.fanout_s", totals.fanout_s / n, "s");
  m.Add("shard.busy_s", totals.shard_busy_s / n, "s");
  m.Add("shard.slowest_over_mean", Ratio(totals.shard_slowest_over_mean, totals.shard_rounds),
        "ratio");
  m.Add("shard.parallel_efficiency", Ratio(totals.shard_busy_s, totals.shard_section_s), "ratio");
  m.Add("shard.repair_moves", totals.repair_moves / n, "count");
  m.Add("shard.failed", totals.failed_shards / n, "count");
  m.Add("sim.unattributed_share", unattributed, "ratio");
  m.Add("obs.trace_overhead", Percentile(traced_walls, 0.5) - Percentile(untraced_walls, 0.5), "s");

  // Zero-work predictions: layers a workload does not exercise report 0.
  std::vector<std::string> broken;
  for (const char* prefix : {"shard.", "journal.", "twine."}) {
    const bool exercised = prefix[0] == 's' ? workload.shard_count > 1 : workload.portal_traffic;
    if (!exercised) {
      for (const std::string& name : m.NonZero(prefix)) {
        broken.push_back(name);
      }
    }
  }
  for (const std::string& name : broken) {
    std::printf("zero-work prediction broken: %s is not 0 on %s\n", name.c_str(), workload.name);
  }
  PrintResult(correct && broken.empty(), untraced.rounds.size(), failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: round_bench --workload <mono_churn|request_mix|shard_churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  obs::Tracer::Default().set_enabled(false);
  const WorkloadSpec& workload = *FindWorkload(args.workload);
  int rc = args.trace ? RunTraced(workload, args) : RunEndToEnd(workload, args);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/journal-" + workload.name, ec);
  return rc;
}
