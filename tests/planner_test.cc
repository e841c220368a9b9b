// Tests for the global re-balancer (docs/PLANNER.md): solver determinism,
// movement-cost monotonicity, hot-color split/merge round-trips, planner
// runs under worker churn, and digest equality across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/planner/rebalance_planner.h"
#include "src/router/router_tier.h"
#include "src/storage/storage_types.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

std::vector<InstanceId> MakeInstances(int n) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(InternInstance(StrFormat("w%d", i)));
  }
  return ids;
}

// A deliberately lopsided snapshot: every color currently sits on the first
// instance, loads follow a fixed harmonic-ish skew, and each color owns
// some cached bytes — the solver has both something to fix (imbalance) and
// something to weigh (migration cost).
PlacementSnapshot SkewedSnapshot(int instances, int colors) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  snapshot.instances = MakeInstances(instances);
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("c%03d", c);
    obs.load_ewma = 100.0 / static_cast<double>(c + 1);
    obs.cache_bytes = static_cast<Bytes>(1000 * (c + 1));
    obs.placement = snapshot.instances[0];
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

std::string PlanSignature(const Plan& plan) {
  std::string sig;
  for (const PlanMove& move : plan.moves) {
    sig += StrFormat("M %s %u->%u;", move.color.c_str(), move.from, move.to);
  }
  for (const PlanSplit& split : plan.splits) {
    sig += StrFormat("S %s", split.color.c_str());
    for (std::size_t i = 0; i < split.instances.size(); ++i) {
      sig += StrFormat(" %u*%u", split.instances[i], split.weights[i]);
    }
    sig += ";";
  }
  for (const PlanMerge& merge : plan.merges) {
    sig += StrFormat("G %s ->%u;", merge.color.c_str(), merge.to);
  }
  return sig;
}

TEST(RebalancePlannerTest, SolveIsDeterministicForSnapshotAndSeed) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  PlannerConfig config;
  config.seed = 17;
  const RebalancePlanner a(config);
  const RebalancePlanner b(config);
  const Plan plan_a = a.Solve(snapshot);
  const Plan plan_b = b.Solve(snapshot);
  EXPECT_FALSE(plan_a.empty());
  EXPECT_EQ(PlanSignature(plan_a), PlanSignature(plan_b));
  EXPECT_EQ(plan_a.objective_before, plan_b.objective_before);
  EXPECT_EQ(plan_a.objective_after, plan_b.objective_after);
  // Repeated Solve on the same instance too (no hidden mutable state).
  EXPECT_EQ(PlanSignature(a.Solve(snapshot)), PlanSignature(plan_a));
}

TEST(RebalancePlannerTest, HigherAlphaMovesFewerColors) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  std::size_t previous_moves = 0;
  bool first = true;
  for (const double alpha : {0.0, 0.5, 5.0, 500.0}) {
    PlannerConfig config;
    config.move_alpha = alpha;
    config.split_threshold = 1.0;  // no share exceeds 1: splitting off
    const Plan plan = RebalancePlanner(config).Solve(snapshot);
    EXPECT_LE(plan.objective_after, plan.objective_before);
    if (!first) {
      EXPECT_LE(plan.moves.size(), previous_moves)
          << "alpha=" << alpha << " moved more colors than a cheaper alpha";
    }
    previous_moves = plan.moves.size();
    first = false;
  }
  // At a prohibitive alpha the movement term dwarfs any fairness gain.
  PlannerConfig frozen;
  frozen.move_alpha = 500.0;
  frozen.split_threshold = 1.0;
  EXPECT_TRUE(RebalancePlanner(frozen).Solve(snapshot).moves.empty());
}

TEST(RebalancePlannerTest, SplitsHotColorAcrossDistinctInstances) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  snapshot.instances = MakeInstances(4);
  ColorObservation hot;
  hot.color = "viral";
  hot.load_ewma = 600;  // 60% share
  hot.cache_bytes = 1000;
  hot.placement = snapshot.instances[0];
  snapshot.colors.push_back(hot);
  for (int c = 0; c < 8; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("cold%d", c);
    obs.load_ewma = 50;
    obs.cache_bytes = 1000;
    obs.placement = snapshot.instances[static_cast<std::size_t>(c) % 4];
    snapshot.colors.push_back(std::move(obs));
  }
  PlannerConfig config;
  config.split_threshold = 0.2;
  const Plan plan = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(plan.splits.size(), 1u);
  const PlanSplit& split = plan.splits[0];
  EXPECT_EQ(split.color, "viral");
  // share 0.6 / threshold 0.2 -> width 3, all members distinct.
  EXPECT_EQ(split.instances.size(), 3u);
  EXPECT_EQ(std::set<InstanceId>(split.instances.begin(),
                                 split.instances.end())
                .size(),
            split.instances.size());
  EXPECT_TRUE(plan.merges.empty());
}

TEST(RebalancePlannerTest, SplitHysteresisKeepsThenMerges) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(2);
  snapshot.instances = MakeInstances(4);
  ColorObservation cooling;
  cooling.color = "viral";
  cooling.cache_bytes = 1000;
  cooling.placement = snapshot.instances[0];
  cooling.split = true;
  cooling.split_members = {snapshot.instances[0], snapshot.instances[1],
                           snapshot.instances[2]};
  ColorObservation filler;
  filler.color = "zfill";
  filler.cache_bytes = 1000;
  filler.placement = snapshot.instances[3];

  PlannerConfig config;
  config.split_threshold = 0.2;

  // Share 0.15: between theta/2 and theta — the split must persist and,
  // being unchanged, must not even be re-emitted.
  cooling.load_ewma = 150;
  filler.load_ewma = 850;
  snapshot.colors = {cooling, filler};
  const Plan hold = RebalancePlanner(config).Solve(snapshot);
  EXPECT_TRUE(hold.merges.empty());
  for (const PlanSplit& split : hold.splits) {
    EXPECT_NE(split.color, "viral") << "unchanged split was re-emitted";
  }

  // Share 0.05 < theta/2: now it merges back to a single instance.
  cooling.load_ewma = 50;
  filler.load_ewma = 950;
  snapshot.colors = {cooling, filler};
  const Plan merge = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(merge.merges.size(), 1u);
  EXPECT_EQ(merge.merges[0].color, "viral");
}

// The solver as it was before Phase 1 scored candidates in O(1): every
// candidate paid a full State::Objective() scan of all n loads. Kept as the
// reference model for SolveMatchesReferenceOnRandomSnapshots — including
// the apply-then-undo of each candidate on `state.loads`, whose rounding
// drift later candidates see. One line differs, marked below.
namespace reference {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

// One unit of placeable load: a color contributes `width` slots of
// load / width each. Width 1 is a plain (movable) color; width k >= 2 is a
// split. Slot 0 is the primary — it carries the color's cache bytes, so
// moving it is what costs migration.
struct Slot {
  std::size_t color = 0;       // index into snapshot.colors
  double load = 0;             // this slot's share of the color's load
  std::size_t instance = kUnassigned;  // index into snapshot.instances
};

// Mutable solver state: per-instance loads plus the movement account.
struct State {
  std::vector<double> loads;           // indexed like snapshot.instances
  double mean_load = 0;                // invariant under reassignment
  double alpha = 0;
  Bytes total_bytes = 0;
  Bytes moved_bytes = 0;

  double Objective() const {
    double max_load = 0;
    for (const double load : loads) {
      max_load = std::max(max_load, load);
    }
    double f = mean_load > 0 ? max_load / mean_load : 0;
    if (total_bytes > 0 && alpha > 0) {
      f += alpha * (static_cast<double>(moved_bytes) /
                    static_cast<double>(total_bytes));
    }
    return f;
  }
};

Plan ReferenceSolve(const PlannerConfig& config,
                    const PlacementSnapshot& snapshot) {
  Plan plan;
  plan.computed_at = snapshot.taken;

  const std::size_t n = snapshot.instances.size();
  if (n == 0) {
    return plan;
  }
  std::unordered_map<InstanceId, std::size_t> index_of;
  index_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_of.emplace(snapshot.instances[i], i);
  }

  // Participating colors: placed on a live instance with positive load.
  // Unplaced colors (evicted table entries) are left to organic routing.
  struct Participant {
    std::size_t color;                  // index into snapshot.colors
    std::size_t home;                   // current primary, instance index
    std::vector<std::size_t> members;   // current split members (mapped)
    int width = 1;                      // target replica width
  };
  // Movement price per color: clean cached bytes haul at cost 1, dirty
  // write-back bytes add dirty_move_weight on top (re-homing flushes them
  // through the backing store first).
  std::vector<Bytes> move_cost(snapshot.colors.size(), 0);
  for (std::size_t c = 0; c < snapshot.colors.size(); ++c) {
    const ColorObservation& obs = snapshot.colors[c];
    move_cost[c] =
        obs.cache_bytes +
        static_cast<Bytes>(std::max(0.0, config.dirty_move_weight) *
                           static_cast<double>(obs.dirty_bytes));
  }

  std::vector<Participant> participants;
  double total_load = 0;
  Bytes total_bytes = 0;
  for (std::size_t c = 0; c < snapshot.colors.size(); ++c) {
    const ColorObservation& obs = snapshot.colors[c];
    if (obs.load_ewma <= 0) {
      continue;
    }
    const auto home_it = index_of.find(obs.placement);
    if (home_it == index_of.end()) {
      continue;
    }
    Participant p;
    p.color = c;
    p.home = home_it->second;
    if (obs.split) {
      for (const InstanceId member : obs.split_members) {
        const auto member_it = index_of.find(member);
        if (member_it != index_of.end()) {
          p.members.push_back(member_it->second);
        }
      }
    }
    total_load += obs.load_ewma;
    total_bytes += move_cost[c];
    participants.push_back(std::move(p));
  }
  if (participants.empty() || total_load <= 0) {
    return plan;
  }
  const double mean_load = total_load / static_cast<double>(n);

  // Objective before: every color at its current placement, split colors
  // spread evenly across their current members. No movement term.
  {
    std::vector<double> before(n, 0);
    for (const Participant& p : participants) {
      const double load = snapshot.colors[p.color].load_ewma;
      if (p.members.size() > 1) {
        const double share = load / static_cast<double>(p.members.size());
        for (const std::size_t member : p.members) {
          before[member] += share;
        }
      } else {
        before[p.home] += load;
      }
    }
    double max_before = 0;
    for (const double load : before) {
      max_before = std::max(max_before, load);
    }
    plan.objective_before = max_before / mean_load;
  }

  // Hot-color split sizing with hysteresis: enter at share > threshold
  // with width ceil(share / threshold); keep the current width while the
  // share stays above threshold / 2; merge below that.
  const int max_width = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(config.max_split), n));
  for (Participant& p : participants) {
    const double share = snapshot.colors[p.color].load_ewma / total_load;
    const int current = static_cast<int>(std::max<std::size_t>(
        p.members.size(), 1));
    if (config.split_threshold > 0 && share > config.split_threshold) {
      const int wanted =
          static_cast<int>(std::ceil(share / config.split_threshold));
      // Was std::clamp(wanted, 2, std::max(max_width, 1)), which breaks
      // clamp's precondition when max_width < 2; this is what libstdc++'s
      // clamp computes in that case.
      p.width = std::min(std::max(wanted, 2), std::max(max_width, 1));
    } else if (current > 1 && config.split_threshold > 0 &&
               share > config.split_threshold / 2) {
      p.width = std::min(current, std::max(max_width, 1));
    } else {
      p.width = 1;
    }
  }

  // Slot construction. Initial assignment keeps what exists (primary at
  // home, split slots at current members); slots beyond the current width
  // go to the least-loaded instance not already hosting this color.
  std::vector<Slot> slots;
  std::vector<std::size_t> first_slot(participants.size(), 0);
  State state;
  state.loads.assign(n, 0);
  state.mean_load = mean_load;
  state.alpha = config.move_alpha;
  state.total_bytes = total_bytes;
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    const ColorObservation& obs = snapshot.colors[p.color];
    const double slot_load =
        obs.load_ewma / static_cast<double>(p.width);
    first_slot[pi] = slots.size();
    for (int j = 0; j < p.width; ++j) {
      Slot slot;
      slot.color = p.color;
      slot.load = slot_load;
      if (j == 0) {
        slot.instance = p.home;
      } else if (static_cast<std::size_t>(j) < p.members.size()) {
        slot.instance = p.members[j];
      }
      if (slot.instance != kUnassigned) {
        state.loads[slot.instance] += slot.load;
      }
      slots.push_back(slot);
    }
  }
  // Deferred slots: deterministic greedy fill.
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    for (int j = 0; j < p.width; ++j) {
      Slot& slot = slots[first_slot[pi] + static_cast<std::size_t>(j)];
      if (slot.instance != kUnassigned) {
        continue;
      }
      std::size_t best = kUnassigned;
      for (std::size_t i = 0; i < n; ++i) {
        bool taken = false;
        for (int k = 0; k < p.width; ++k) {
          const Slot& sibling =
              slots[first_slot[pi] + static_cast<std::size_t>(k)];
          if (k != j && sibling.instance == i) {
            taken = true;
            break;
          }
        }
        if (taken) {
          continue;
        }
        if (best == kUnassigned || state.loads[i] < state.loads[best]) {
          best = i;
        }
      }
      if (best == kUnassigned) {
        best = 0;  // More width than instances; clamp earlier prevents this.
      }
      slot.instance = best;
      state.loads[best] += slot.load;
    }
  }

  // Movement account: a color pays its cache bytes when its primary leaves
  // home. Replica slots cost nothing up front (they warm organically).
  const auto primary_moved = [&](std::size_t pi) {
    return slots[first_slot[pi]].instance != participants[pi].home;
  };
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    if (primary_moved(pi)) {
      state.moved_bytes += move_cost[participants[pi].color];
    }
  }

  // Helper: objective delta of re-homing one slot; applies it when
  // `commit`. Sibling-collision (two slots of one color on one instance)
  // is rejected by the caller.
  const auto reassign_cost = [&](std::size_t slot_index, std::size_t to) {
    const Slot& slot = slots[slot_index];
    state.loads[slot.instance] -= slot.load;
    state.loads[to] += slot.load;
    return slot.instance;  // caller restores or keeps
  };

  const auto sibling_blocked = [&](std::size_t pi, std::size_t slot_index,
                                   std::size_t to) {
    const Participant& p = participants[pi];
    for (int k = 0; k < p.width; ++k) {
      const std::size_t other = first_slot[pi] + static_cast<std::size_t>(k);
      if (other != slot_index && slots[other].instance == to) {
        return true;
      }
    }
    return false;
  };

  // Map slot index -> participant index for the descent loop.
  std::vector<std::size_t> participant_of(slots.size());
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    for (int j = 0; j < p.width; ++j) {
      participant_of[first_slot[pi] + static_cast<std::size_t>(j)] = pi;
    }
  }

  double objective = state.Objective();

  // Phase 1: steepest-descent sweeps. Each slot greedily takes the
  // instance that most improves the objective, movement cost included.
  for (int round = 0; round < config.swap_rounds; ++round) {
    bool improved = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const std::size_t pi = participant_of[s];
      const bool is_primary = s == first_slot[pi];
      const Bytes bytes = move_cost[slots[s].color];
      std::size_t best_to = slots[s].instance;
      double best_objective = objective;
      for (std::size_t to = 0; to < n; ++to) {
        if (to == slots[s].instance || sibling_blocked(pi, s, to)) {
          continue;
        }
        const std::size_t from = reassign_cost(s, to);
        Bytes saved_moved = state.moved_bytes;
        if (is_primary) {
          const bool was_moved = from != participants[pi].home;
          const bool now_moved = to != participants[pi].home;
          if (!was_moved && now_moved) {
            state.moved_bytes += bytes;
          } else if (was_moved && !now_moved) {
            state.moved_bytes -= bytes;
          }
        }
        const double candidate = state.Objective();
        // Undo; re-apply only if this candidate wins the scan.
        state.loads[to] -= slots[s].load;
        state.loads[from] += slots[s].load;
        state.moved_bytes = saved_moved;
        if (candidate + 1e-12 < best_objective) {
          best_objective = candidate;
          best_to = to;
        }
      }
      if (best_to != slots[s].instance) {
        const std::size_t from = slots[s].instance;
        state.loads[from] -= slots[s].load;
        state.loads[best_to] += slots[s].load;
        if (is_primary) {
          const bool was_moved = from != participants[pi].home;
          const bool now_moved = best_to != participants[pi].home;
          if (!was_moved && now_moved) {
            state.moved_bytes += bytes;
          } else if (was_moved && !now_moved) {
            state.moved_bytes -= bytes;
          }
        }
        slots[s].instance = best_to;
        objective = best_objective;
        improved = true;
      }
    }
    if (!improved) {
      break;
    }
  }

  // Phase 2: seeded random swaps — pairs of slots exchange instances when
  // that strictly improves the objective. The stream depends only on the
  // configured seed, keeping Solve deterministic.
  if (slots.size() >= 2) {
    Rng rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
    const int attempts = config.swap_rounds * 4;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const std::size_t a = rng.NextBelow(slots.size());
      const std::size_t b = rng.NextBelow(slots.size());
      if (a == b || slots[a].color == slots[b].color ||
          slots[a].instance == slots[b].instance) {
        continue;
      }
      const std::size_t pa = participant_of[a];
      const std::size_t pb = participant_of[b];
      const std::size_t ia = slots[a].instance;
      const std::size_t ib = slots[b].instance;
      if (sibling_blocked(pa, a, ib) || sibling_blocked(pb, b, ia)) {
        continue;
      }
      const Bytes saved_moved = state.moved_bytes;
      state.loads[ia] += slots[b].load - slots[a].load;
      state.loads[ib] += slots[a].load - slots[b].load;
      const auto charge = [&](std::size_t s, std::size_t pi, std::size_t from,
                              std::size_t to) {
        if (s != first_slot[pi]) {
          return;
        }
        const Bytes bytes = move_cost[slots[s].color];
        const bool was_moved = from != participants[pi].home;
        const bool now_moved = to != participants[pi].home;
        if (!was_moved && now_moved) {
          state.moved_bytes += bytes;
        } else if (was_moved && !now_moved) {
          state.moved_bytes -= bytes;
        }
      };
      charge(a, pa, ia, ib);
      charge(b, pb, ib, ia);
      const double candidate = state.Objective();
      if (candidate + 1e-12 < objective) {
        slots[a].instance = ib;
        slots[b].instance = ia;
        objective = candidate;
      } else {
        state.loads[ia] += slots[a].load - slots[b].load;
        state.loads[ib] += slots[b].load - slots[a].load;
        state.moved_bytes = saved_moved;
      }
    }
  }

  // Cap emitted moves at max_moves, keeping the highest-load movers, and
  // revert the rest so the reported objective matches the emitted plan.
  std::vector<std::size_t> movers;  // participant indices, width-1 movers
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    if (participants[pi].width == 1 && participants[pi].members.size() <= 1 &&
        primary_moved(pi)) {
      movers.push_back(pi);
    }
  }
  if (movers.size() > config.max_moves) {
    std::sort(movers.begin(), movers.end(), [&](std::size_t a, std::size_t b) {
      const double la = snapshot.colors[participants[a].color].load_ewma;
      const double lb = snapshot.colors[participants[b].color].load_ewma;
      if (la != lb) {
        return la > lb;
      }
      return snapshot.colors[participants[a].color].color <
             snapshot.colors[participants[b].color].color;
    });
    for (std::size_t m = config.max_moves; m < movers.size(); ++m) {
      const std::size_t pi = movers[m];
      Slot& slot = slots[first_slot[pi]];
      state.loads[slot.instance] -= slot.load;
      state.loads[participants[pi].home] += slot.load;
      state.moved_bytes -= move_cost[participants[pi].color];
      slot.instance = participants[pi].home;
    }
    movers.resize(config.max_moves);
    std::sort(movers.begin(), movers.end());
    objective = state.Objective();
  }

  plan.objective_after = objective;
  if (plan.objective_after > plan.objective_before) {
    // No improving plan found; report the objectives and change nothing.
    plan.objective_after = plan.objective_before;
    return plan;
  }

  // Emission, in snapshot (color-sorted) order within each kind.
  for (std::size_t pi = 0; pi < participants.size(); ++pi) {
    const Participant& p = participants[pi];
    const ColorObservation& obs = snapshot.colors[p.color];
    const bool currently_split = p.members.size() > 1;
    if (p.width == 1) {
      const InstanceId to = snapshot.instances[slots[first_slot[pi]].instance];
      if (currently_split) {
        plan.merges.push_back(PlanMerge{obs.color, to});
      } else if (slots[first_slot[pi]].instance != p.home) {
        plan.moves.push_back(
            PlanMove{obs.color, snapshot.instances[p.home], to});
      }
      continue;
    }
    // Split: weights count slots per instance, primary first.
    PlanSplit split;
    split.color = obs.color;
    for (int j = 0; j < p.width; ++j) {
      const InstanceId member =
          snapshot.instances[slots[first_slot[pi] + static_cast<std::size_t>(j)]
                                 .instance];
      const auto found =
          std::find(split.instances.begin(), split.instances.end(), member);
      if (found == split.instances.end()) {
        split.instances.push_back(member);
        split.weights.push_back(1);
      } else {
        ++split.weights[static_cast<std::size_t>(
            found - split.instances.begin())];
      }
    }
    // Skip re-emitting an unchanged split (stability: identical rounds
    // produce identical tables without counter churn).
    if (currently_split && obs.split_members.size() == split.instances.size()) {
      bool same = true;
      for (std::size_t j = 0; j < split.instances.size(); ++j) {
        if (obs.split_members[j] != split.instances[j]) {
          same = false;
          break;
        }
      }
      if (same) {
        continue;
      }
    }
    plan.splits.push_back(std::move(split));
  }
  return plan;
}

}  // namespace reference

// A random snapshot for the differential test. Loads span 1e-3 to 1e6, so
// adding and then subtracting a small slot load from a large instance load
// rounds. Placements are live, unplaced or on an instance missing from the
// snapshot; about one color in eight is already split (sometimes with a
// missing member), so the solver keeps, widens and merges splits; some
// colors carry dirty bytes and some have no load at all.
PlacementSnapshot RandomSnapshot(Rng& rng, std::size_t instances,
                                 std::size_t colors) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  snapshot.instances = MakeInstances(static_cast<int>(instances));
  const InstanceId missing = InternInstance("w-missing");
  const auto any_instance = [&]() {
    return snapshot.instances[rng.NextBelow(instances)];
  };
  for (std::size_t c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("c%04zu", c);
    obs.load_ewma = rng.NextBelow(20) == 0
                        ? 0
                        : std::pow(10.0, -3.0 + 9.0 * rng.NextDouble());
    obs.cache_bytes = rng.NextBelow(1 << 20);
    if (rng.NextBelow(4) == 0) {
      obs.dirty_bytes = rng.NextBelow(1 << 18);
    }
    const std::uint64_t where = rng.NextBelow(20);
    obs.placement = where == 0   ? kInvalidInstanceId
                    : where == 1 ? missing
                                 : any_instance();
    if (instances >= 2 && rng.NextBelow(8) == 0) {
      std::vector<InstanceId> pool = snapshot.instances;
      const std::size_t width =
          2 + rng.NextBelow(std::min<std::size_t>(instances, 4) - 1);
      for (std::size_t j = 0; j < width; ++j) {
        std::swap(pool[j], pool[j + rng.NextBelow(pool.size() - j)]);
      }
      obs.split = true;
      obs.split_members.assign(pool.begin(),
                               pool.begin() + static_cast<long>(width));
      if (rng.NextBelow(6) == 0) {
        obs.split_members.back() = missing;
      }
      obs.placement = obs.split_members.front();
    }
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

void ExpectSamePlan(const Plan& got, const Plan& want) {
  EXPECT_EQ(got.objective_before, want.objective_before);
  EXPECT_EQ(got.objective_after, want.objective_after);
  ASSERT_EQ(got.moves.size(), want.moves.size());
  for (std::size_t i = 0; i < want.moves.size(); ++i) {
    EXPECT_EQ(got.moves[i].color, want.moves[i].color);
    EXPECT_EQ(got.moves[i].from, want.moves[i].from);
    EXPECT_EQ(got.moves[i].to, want.moves[i].to);
  }
  ASSERT_EQ(got.splits.size(), want.splits.size());
  for (std::size_t i = 0; i < want.splits.size(); ++i) {
    EXPECT_EQ(got.splits[i].color, want.splits[i].color);
    EXPECT_EQ(got.splits[i].instances, want.splits[i].instances);
    EXPECT_EQ(got.splits[i].weights, want.splits[i].weights);
  }
  ASSERT_EQ(got.merges.size(), want.merges.size());
  for (std::size_t i = 0; i < want.merges.size(); ++i) {
    EXPECT_EQ(got.merges[i].color, want.merges[i].color);
    EXPECT_EQ(got.merges[i].to, want.merges[i].to);
  }
}

// Solve must return exactly the reference model's plan: the same moves,
// splits and merges in the same order, and bit-equal objectives. Sizes run
// from 1 to 64 instances and 0 to 2000 colors (large color counts with few
// instances, so the quadratic reference stays quick).
TEST(RebalancePlannerTest, SolveMatchesReferenceOnRandomSnapshots) {
  Rng rng(0x5EED5017);
  const std::vector<std::pair<std::size_t, std::size_t>> fixed_sizes = {
      {1, 40}, {64, 96}, {4, 2000}, {16, 0}, {2, 300}};
  constexpr int kCases = 240;
  int capped = 0;
  int with_moves = 0;
  int with_splits = 0;
  int with_merges = 0;
  for (int c = 0; c < kCases; ++c) {
    std::size_t instances;
    std::size_t colors;
    if (static_cast<std::size_t>(c) < fixed_sizes.size()) {
      std::tie(instances, colors) = fixed_sizes[static_cast<std::size_t>(c)];
    } else {
      instances = 1 + rng.NextBelow(64);
      colors = std::min<std::size_t>(rng.NextBelow(2001),
                                     1000000 / (instances * instances));
    }
    PlannerConfig config;
    config.move_alpha = std::vector<double>{0, 0.5, 50}[rng.NextBelow(3)];
    config.dirty_move_weight = rng.NextBelow(2) == 0 ? 0 : 2;
    config.split_threshold =
        std::vector<double>{0.2, 0.05, 1.0}[rng.NextBelow(3)];
    config.max_split = 2 + static_cast<int>(rng.NextBelow(3));
    config.max_moves = rng.NextBelow(3) == 0 ? rng.NextBelow(6) : 64;
    config.swap_rounds = rng.NextBelow(4) == 0 ? 1 + static_cast<int>(
                                                         rng.NextBelow(8))
                                               : 64;
    config.seed = rng.Next();
    const PlacementSnapshot snapshot =
        RandomSnapshot(rng, instances, colors);

    const Plan want = reference::ReferenceSolve(config, snapshot);
    const Plan got = RebalancePlanner(config).Solve(snapshot);
    SCOPED_TRACE(StrFormat("case %d: %zu instances, %zu colors, alpha %g",
                           c, instances, colors, config.move_alpha));
    ExpectSamePlan(got, want);
    capped += want.moves.size() == config.max_moves && config.max_moves < 64;
    with_moves += !want.moves.empty();
    with_splits += !want.splits.empty();
    with_merges += !want.merges.empty();
  }
  // The cases reach every part of the solver.
  EXPECT_GT(capped, 0);
  EXPECT_GT(with_moves, kCases / 4);
  EXPECT_GT(with_splits, 0);
  EXPECT_GT(with_merges, 0);
}

TEST(PaletteLoadBalancerPlanTest, SplitMergeRoundTripOnLoadBalancer) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  for (int i = 0; i < 4; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  const auto home = lb.RouteId(Color("viral"));
  ASSERT_TRUE(home.has_value());

  Plan split_plan;
  split_plan.splits.push_back(PlanSplit{
      "viral",
      {InternInstance("w0"), InternInstance("w1"), InternInstance("w2")},
      {1, 1, 1}});
  lb.ApplyPlan(split_plan);
  EXPECT_TRUE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_splits(), 1u);
  std::set<InstanceId> targets;
  for (int i = 0; i < 9; ++i) {
    targets.insert(*lb.RouteId(Color("viral")));
  }
  EXPECT_EQ(targets.size(), 3u);  // exact weighted round-robin
  // The color's objects home at the split primary, not the rotating member.
  EXPECT_EQ(lb.PeekColorId("viral"), InternInstance("w0"));

  Plan merge_plan;
  merge_plan.merges.push_back(PlanMerge{"viral", InternInstance("w3")});
  lb.ApplyPlan(merge_plan);
  EXPECT_FALSE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_merges(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*lb.RouteId(Color("viral")), InternInstance("w3"));
  }
}

TEST(PaletteLoadBalancerPlanTest, PlanRacingCrashSkipsDeadInstances) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  for (int i = 0; i < 3; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  lb.RouteId(Color("a"));
  lb.RemoveInstance("w2");

  // A plan computed against the pre-crash snapshot: move to a dead
  // instance and split across a set containing it. Both degrade safely.
  Plan stale;
  stale.moves.push_back(
      PlanMove{"a", InternInstance("w0"), InternInstance("w2")});
  stale.splits.push_back(PlanSplit{
      "b", {InternInstance("w0"), InternInstance("w2")}, {1, 1}});
  lb.ApplyPlan(stale);
  // The move to the dead instance was skipped, not applied.
  const auto placed = lb.PeekColorId("a");
  ASSERT_TRUE(placed.has_value());
  EXPECT_NE(*placed, InternInstance("w2"));
  // The split lost w2, leaving one live member: not installed as a split.
  EXPECT_FALSE(lb.IsSplit("b"));
}

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 400;
  spec.driver.duration = SimTime::FromSeconds(6);
  spec.mix.color_count = 48;
  spec.mix.zipf_theta = 1.2;
  spec.seed = 11;
  return spec;
}

TEST(PlannerWorkloadTest, PlanDuringChurnClosesBooks) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  // Crash a worker between planning rounds and bring it back: migrations
  // in flight toward it must not leak invocations or objects.
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1250), FaultKind::kCrash, "w1"});
  faults.Add(
      FaultEvent{SimTime::FromMillis(2750), FaultKind::kRestart, "w1"});
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), &faults, nullptr,
                  &planner);
  EXPECT_GT(run.planner_rounds, 0u);
  EXPECT_EQ(run.platform_submitted, run.platform_completed +
                                        run.platform_dropped +
                                        run.platform_abandoned);
  // Planner movement stays distinguishable from failure re-coloring.
  EXPECT_GT(run.planner_moves + run.planner_splits, 0u);
  for (const PlanRound& round : run.plan_rounds) {
    EXPECT_LE(round.objective_after, round.objective_before + 1e-9);
  }
}

TEST(PlannerWorkloadTest, PlannerRunIsSeedReproducible) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.planner_moves, b.planner_moves);
  EXPECT_EQ(a.planner_splits, b.planner_splits);
  EXPECT_EQ(a.planner_moved_bytes, b.planner_moved_bytes);
}

// A scaled-down all_features run (perfbench/harness/workloads.cc):
// spraying routers, hybrid dispatch, write-back coherence on two tiers, a
// rotating hot set, and a planner round every 500 ms. Each round prices
// moves by every color's cached and dirty bytes, so the pinned digest and
// planner counters fail loudly if the snapshot collector's per-color
// footprints ever drift.
TEST(PlannerWorkloadTest, AllFeaturesShapedRunPinsPlannerInputs) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 250;
  spec.arrival.mean_on_seconds = 0.2;
  spec.arrival.mean_off_seconds = 0.8;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.mix.churn_interval = SimTime::FromSeconds(2);
  spec.mix.churn_step = spec.mix.color_count / 8;
  spec.mix.write_fraction = 0.2;
  spec.driver.duration = SimTime::FromSeconds(8);
  spec.seed = 1;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlatformConfig platform = DefaultWorkloadPlatformConfig();
  platform.dispatch_mode = FaasDispatchMode::kHybrid;
  platform.storage.mode = CoherenceMode::kWriteBack;
  platform.storage.tiers.two_tier = true;
  // Writes stay dirty across a planner round, so every snapshot prices
  // dirty bytes as well as cached ones.
  platform.storage.max_dirty_age = SimTime::FromSeconds(1);
  RouterTierConfig tier;
  tier.routers = 4;
  tier.dispatch = DispatchMode::kSpray;
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  planner.seed = spec.seed;

  const WorkloadRunResult run =
      RunRouterWorkload(spec, PolicyKind::kLeastAssigned, 8, tier, slo,
                        platform, nullptr, nullptr, &planner);
  EXPECT_EQ(run.planner_rounds, 15u);
  EXPECT_GT(run.storage.flushes, 0u);
  EXPECT_EQ(run.samples_digest, 1171358272365275661u);
  EXPECT_EQ(run.planner_moves, 62u);
  EXPECT_EQ(run.planner_moved_bytes, 28555619u);
}

TEST(PlannerShardedTest, DigestsMatchAcrossShardCountsWithPlanning) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  config.planner.plan_every = SimTime::FromMillis(500);

  config.shards = 1;
  const ShardedRunResult one = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());
  config.shards = 4;
  const ShardedRunResult four = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());

  EXPECT_GT(one.planner_rounds, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.planner_moves, four.planner_moves);
  EXPECT_EQ(one.planner_splits, four.planner_splits);
  EXPECT_EQ(one.planner_moved_bytes, four.planner_moved_bytes);
}

}  // namespace
}  // namespace palette
