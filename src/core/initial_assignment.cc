#include "src/core/initial_assignment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace ras {

std::vector<double> BuildInitialCounts(const SolveInput& input,
                                       const std::vector<EquivalenceClass>& classes,
                                       const BuiltModel& built) {
  return RepairCounts(input, classes, built, built.initial_counts);
}

std::vector<double> RepairCounts(const SolveInput& input,
                                 const std::vector<EquivalenceClass>& classes,
                                 const BuiltModel& built, std::vector<double> counts) {
  const size_t num_res = input.reservations.size();
  assert(counts.size() == built.assignment_vars.size());

  // Remaining unassigned supply per class.
  std::vector<double> free_in_class(classes.size(), 0.0);
  for (size_t c = 0; c < classes.size(); ++c) {
    free_in_class[c] = static_cast<double>(classes[c].count());
  }
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    free_in_class[static_cast<size_t>(built.assignment_vars[k].class_index)] -= counts[k];
  }

  // Per (reservation, MSB) RRU sums and per-reservation totals for the
  // current counts.
  std::vector<std::map<uint32_t, double>> msb_rru(num_res);
  std::vector<double> total_rru(num_res, 0.0);
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    if (counts[k] <= 0.0) {
      continue;
    }
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    double rru = input.reservations[static_cast<size_t>(av.reservation_index)]
                     .ValueOfType(cls.type) * counts[k];
    msb_rru[av.reservation_index][cls.msb] += rru;
    total_rru[av.reservation_index] += rru;
  }

  // Assignment vars per (reservation, MSB) whose class may still have spare
  // supply: candidates the greedy fill can draw from. Sorted by descending
  // RRU value so we prefer the most valuable SKU first (fewer servers
  // consumed). When starting from the current assignment X, only free-pool
  // classes have spare supply; when starting from a rounded LP point, any
  // under-used class does.
  struct Candidate {
    int var_index;
    size_t class_index;
    double value;
  };
  std::vector<std::map<uint32_t, std::vector<Candidate>>> free_candidates(num_res);
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    if (free_in_class[static_cast<size_t>(av.class_index)] <= 0.0) {
      continue;
    }
    double value = input.reservations[static_cast<size_t>(av.reservation_index)]
                       .ValueOfType(cls.type);
    free_candidates[av.reservation_index][cls.msb].push_back(
        Candidate{static_cast<int>(k), static_cast<size_t>(av.class_index), value});
  }
  auto by_value = [](const Candidate& a, const Candidate& b) { return a.value > b.value; };
  for (auto& per_res : free_candidates) {
    for (auto& [msb, cands] : per_res) {
      std::sort(cands.begin(), cands.end(), by_value);
    }
  }

  // Effective capacity (total minus the worst MSB for buffered reservations)
  // of reservation `res`, with `removed` RRU taken out of `removed_msb`.
  auto effective_without = [&](size_t res, uint32_t removed_msb, double removed) {
    double worst = 0.0;
    if (input.reservations[res].needs_correlated_buffer) {
      for (const auto& [msb, rru] : msb_rru[res]) {
        worst = std::max(worst, msb == removed_msb ? rru - removed : rru);
      }
    }
    return total_rru[res] - removed - worst;
  };

  const int max_iterations = static_cast<int>(input.servers.size()) + 1024;

  auto has_supply = [&](const std::vector<Candidate>& cands) {
    return std::any_of(cands.begin(), cands.end(), [&](const Candidate& cand) {
      return free_in_class[cand.class_index] > 0.0;
    });
  };
  // Adds free servers to reservation r one at a time, each to the compatible
  // MSB where r holds the least RRU — this simultaneously fills capacity and
  // minimizes the embedded buffer (adding below the max never raises it) —
  // until r covers its C_r. False when r's free supply runs out first.
  auto fill_from_free = [&](size_t r) {
    const double capacity = input.reservations[r].capacity_rru;
    for (int guard = 0; effective_without(r, 0, 0.0) + 1e-9 < capacity; ++guard) {
      uint32_t best_msb = 0;
      double best_rru = kInf;
      bool found = false;
      for (auto& [msb, cands] : free_candidates[r]) {
        if (!has_supply(cands)) {
          continue;
        }
        double rru = 0.0;
        auto it = msb_rru[r].find(msb);
        if (it != msb_rru[r].end()) {
          rru = it->second;
        }
        if (rru < best_rru) {
          best_rru = rru;
          best_msb = msb;
          found = true;
        }
      }
      if (!found || guard >= max_iterations) {
        return false;
      }
      for (const Candidate& cand : free_candidates[r][best_msb]) {
        if (free_in_class[cand.class_index] <= 0.0) {
          continue;
        }
        counts[static_cast<size_t>(cand.var_index)] += 1.0;
        free_in_class[cand.class_index] -= 1.0;
        msb_rru[r][best_msb] += cand.value;
        total_rru[r] += cand.value;
        break;
      }
    }
    return true;
  };

  // Donor fallback once r's free supply is gone: move one server to r from
  // another reservation d that still covers its own C_r afterwards. Without
  // this, a reservation whose every eligible server is bound elsewhere —
  // typically a one-server shared buffer whose server just went down —
  // carries its whole shortfall into the warm start. A donor with surplus
  // gives the server up as it is. When every donor is tight, one that can
  // refill its C_r from its own free supply (other types, other MSBs) gives
  // it up and is refilled on the spot, whatever its position in id order;
  // a donor whose refill falls short is restored exactly. Tries r's MSBs
  // least-loaded first (the free fill's spread-first order), r's most
  // valuable classes first, and donors in assignment-var order.
  auto take_from_donor = [&](size_t r) {
    std::map<uint32_t, std::vector<Candidate>> mine;
    for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
      const auto& av = built.assignment_vars[k];
      if (static_cast<size_t>(av.reservation_index) != r) {
        continue;
      }
      const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
      mine[cls.msb].push_back(Candidate{static_cast<int>(k),
                                        static_cast<size_t>(av.class_index),
                                        input.reservations[r].ValueOfType(cls.type)});
    }
    std::vector<std::pair<double, uint32_t>> msbs;
    for (auto& [msb, cands] : mine) {
      std::sort(cands.begin(), cands.end(), by_value);
      auto it = msb_rru[r].find(msb);
      msbs.push_back({it == msb_rru[r].end() ? 0.0 : it->second, msb});
    }
    std::stable_sort(msbs.begin(), msbs.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (bool refill_donor : {false, true}) {
      for (const auto& entry : msbs) {
        uint32_t msb = entry.second;
        for (const Candidate& cand : mine[msb]) {
          if (cand.value <= 0.0) {
            continue;
          }
          HardwareTypeId type = classes[cand.class_index].type;
          for (int kd : built.class_to_vars[cand.class_index]) {
            size_t d = static_cast<size_t>(built.assignment_vars[static_cast<size_t>(kd)]
                                               .reservation_index);
            if (d == r || counts[static_cast<size_t>(kd)] < 1.0) {
              continue;
            }
            double donor_value = input.reservations[d].ValueOfType(type);
            const bool surplus = effective_without(d, msb, donor_value) + 1e-9 >=
                                 input.reservations[d].capacity_rru;
            // Surplus donors go in the first pass, tight ones in the second.
            if (surplus == refill_donor) {
              continue;
            }
            if (refill_donor &&
                std::none_of(free_candidates[d].begin(), free_candidates[d].end(),
                             [&](const auto& entry) { return has_supply(entry.second); })) {
              continue;  // No free supply to refill from.
            }
            // A tight donor's state is saved so that a refill falling short
            // can be undone exactly.
            std::vector<double> counts_before;
            std::vector<double> free_before;
            std::map<uint32_t, double> donor_msb_before;
            const double donor_total_before = total_rru[d];
            if (refill_donor) {
              counts_before = counts;
              free_before = free_in_class;
              donor_msb_before = msb_rru[d];
            }
            counts[static_cast<size_t>(kd)] -= 1.0;
            msb_rru[d][msb] -= donor_value;
            total_rru[d] -= donor_value;
            if (refill_donor && !fill_from_free(d)) {
              counts = std::move(counts_before);
              free_in_class = std::move(free_before);
              msb_rru[d] = std::move(donor_msb_before);
              total_rru[d] = donor_total_before;
              continue;
            }
            counts[static_cast<size_t>(cand.var_index)] += 1.0;
            msb_rru[r][msb] += cand.value;
            total_rru[r] += cand.value;
            return true;
          }
        }
      }
    }
    return false;
  };

  // Greedy fill, reservation by reservation in id order.
  for (size_t r = 0; r < num_res; ++r) {
    if (built.shortfall_vars[r] == kNoVar) {
      continue;  // Not part of this build (phase-2 subset).
    }
    const ReservationSpec& spec = input.reservations[r];
    for (int guard = 0; !fill_from_free(r) && guard < max_iterations; ++guard) {
      if (!take_from_donor(r)) {
        break;  // Region exhausted; the shortfall slack absorbs the rest.
      }
    }

    // Affinity repair: if a datacenter's share is below its (A - theta)
    // floor, pull additional free supply from that datacenter's MSBs. The
    // anti-hoarding term may charge for the extra capacity, but the affinity
    // slack it avoids costs two orders of magnitude more.
    for (const auto& [dc, share] : spec.dc_affinity) {
      double floor_rru = std::max(0.0, share - spec.affinity_theta) * spec.capacity_rru;
      auto dc_rru = [&]() {
        double sum = 0.0;
        for (const auto& [msb, rru] : msb_rru[r]) {
          if (input.topology->msb_datacenter(static_cast<MsbId>(msb)) == dc) {
            sum += rru;
          }
        }
        return sum;
      };
      int affinity_guard = 0;
      while (dc_rru() + 1e-9 < floor_rru && affinity_guard++ < max_iterations) {
        bool added = false;
        for (auto& [msb, cands] : free_candidates[r]) {
          if (input.topology->msb_datacenter(static_cast<MsbId>(msb)) != dc) {
            continue;
          }
          for (const Candidate& cand : cands) {
            if (free_in_class[cand.class_index] <= 0.0) {
              continue;
            }
            counts[static_cast<size_t>(cand.var_index)] += 1.0;
            free_in_class[cand.class_index] -= 1.0;
            msb_rru[r][msb] += cand.value;
            total_rru[r] += cand.value;
            added = true;
            break;
          }
          if (added) {
            break;
          }
        }
        if (!added) {
          break;  // No compatible free supply left in this datacenter.
        }
      }
    }
  }

  return counts;
}

}  // namespace ras
