#include "core/balancer.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sjoin {

std::vector<Role> ClassifySlaves(const std::vector<double>& occupancy,
                                 const BalanceConfig& cfg,
                                 obs::MetricsRegistry* reg) {
  std::vector<Role> roles;
  roles.reserve(occupancy.size());
  std::uint64_t sup = 0;
  std::uint64_t con = 0;
  for (double f : occupancy) {
    if (f > cfg.th_sup) {
      roles.push_back(Role::kSupplier);
      ++sup;
    } else if (f < cfg.th_con) {
      roles.push_back(Role::kConsumer);
      ++con;
    } else {
      roles.push_back(Role::kNeutral);
    }
  }
  if (reg != nullptr) {
    reg->GetCounter("balancer_rounds", {}, obs::Stability::kVolatile).Inc();
    reg->GetCounter("balancer_suppliers", {}, obs::Stability::kVolatile)
        .Add(sup);
    reg->GetCounter("balancer_consumers", {}, obs::Stability::kVolatile)
        .Add(con);
  }
  return roles;
}

std::vector<MovePlan> PairSuppliersWithConsumers(
    const std::vector<Role>& roles) {
  std::vector<std::uint32_t> suppliers;
  std::vector<std::uint32_t> consumers;
  for (std::uint32_t i = 0; i < roles.size(); ++i) {
    if (roles[i] == Role::kSupplier) suppliers.push_back(i);
    if (roles[i] == Role::kConsumer) consumers.push_back(i);
  }
  std::vector<MovePlan> plans;
  const std::size_t n = std::min(suppliers.size(), consumers.size());
  plans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans.push_back(MovePlan{suppliers[i], consumers[i]});
  }
  return plans;
}

std::vector<RebalanceMove> PlanReorganization(
    const PartitionMap& pmap, const std::vector<SlaveIdx>& members,
    const std::vector<Role>& roles, Pcg32& rng, bool respect_buddies) {
  std::vector<RebalanceMove> moves;
  for (const MovePlan& plan : PairSuppliersWithConsumers(roles)) {
    const SlaveIdx sup = members[plan.supplier];
    const SlaveIdx con = members[plan.consumer];
    std::vector<PartitionId> pids;
    for (PartitionId pid : pmap.PartitionsOf(sup)) {
      // Owner and replica must stay on distinct nodes for a failover to
      // mean anything.
      if (respect_buddies && pmap.BuddyOf(pid) == con) continue;
      pids.push_back(pid);
    }
    if (pids.empty()) continue;
    const PartitionId pid =
        pids[rng.NextBounded(static_cast<std::uint32_t>(pids.size()))];
    moves.push_back(RebalanceMove{pid, sup, con});
  }
  return moves;
}

std::vector<EvacuationMove> PlanEvacuation(
    const PartitionMap& pmap, SlaveIdx dead,
    const std::vector<SlaveIdx>& survivors, bool prefer_buddies) {
  std::vector<EvacuationMove> moves;
  if (survivors.empty()) return moves;
  std::vector<std::size_t> load;
  load.reserve(survivors.size());
  for (SlaveIdx s : survivors) load.push_back(pmap.CountOf(s));
  for (PartitionId pid : pmap.PartitionsOf(dead)) {
    std::size_t best = survivors.size();
    if (prefer_buddies) {
      const SlaveIdx buddy = pmap.BuddyOf(pid);
      for (std::size_t i = 0; i < survivors.size(); ++i) {
        if (survivors[i] == buddy) {
          best = i;
          break;
        }
      }
    }
    if (best == survivors.size()) {
      best = 0;
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        if (load[i] < load[best]) best = i;
      }
    }
    ++load[best];
    moves.push_back(EvacuationMove{pid, survivors[best]});
  }
  return moves;
}

std::vector<RebalanceMove> PlanAdmission(const PartitionMap& pmap,
                                         const std::vector<SlaveIdx>& members,
                                         SlaveIdx joiner,
                                         bool respect_buddies) {
  std::vector<RebalanceMove> moves;
  if (members.empty()) return moves;
  const std::size_t share = pmap.NumPartitions() / members.size();
  std::size_t have = pmap.CountOf(joiner);
  if (have >= share) return moves;

  // Working copy of per-member loads; donors are the other members.
  std::vector<SlaveIdx> donors;
  std::vector<std::size_t> load;
  for (SlaveIdx m : members) {
    if (m == joiner) continue;
    donors.push_back(m);
    load.push_back(pmap.CountOf(m));
  }
  // Groups already planned away from their donor (the map itself is const).
  std::vector<bool> taken(pmap.NumPartitions(), false);
  while (have < share) {
    // Most-loaded donor (ties to the lowest index).
    std::size_t best = donors.size();
    for (std::size_t i = 0; i < donors.size(); ++i) {
      if (load[i] == 0) continue;
      if (best == donors.size() || load[i] > load[best]) best = i;
    }
    if (best == donors.size()) break;  // nobody has anything left to give
    PartitionId pick = pmap.NumPartitions();
    for (PartitionId pid : pmap.PartitionsOf(donors[best])) {
      if (taken[pid]) continue;
      if (respect_buddies && pmap.BuddyOf(pid) == joiner) continue;
      pick = pid;
      break;
    }
    if (pick == pmap.NumPartitions()) {
      // Every remaining group of this donor is pinned (buddy = joiner);
      // retire the donor from this round.
      load[best] = 0;
      continue;
    }
    taken[pick] = true;
    --load[best];
    ++have;
    moves.push_back(RebalanceMove{pick, donors[best], joiner});
  }
  return moves;
}

std::vector<RebalanceMove> PlanDrain(const PartitionMap& pmap, SlaveIdx leaver,
                                     const std::vector<SlaveIdx>& remaining,
                                     bool respect_buddies) {
  std::vector<RebalanceMove> moves;
  if (remaining.empty()) return moves;
  std::vector<std::size_t> load;
  load.reserve(remaining.size());
  for (SlaveIdx s : remaining) load.push_back(pmap.CountOf(s));
  for (PartitionId pid : pmap.PartitionsOf(leaver)) {
    std::size_t best = remaining.size();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (respect_buddies && remaining[i] == pmap.BuddyOf(pid) &&
          remaining.size() > 1) {
        continue;
      }
      if (best == remaining.size() || load[i] < load[best]) best = i;
    }
    ++load[best];
    moves.push_back(RebalanceMove{pid, leaver, remaining[best]});
  }
  return moves;
}

std::vector<BuddyHandover> PlanHandovers(const PartitionMap& pmap,
                                         const std::vector<SlaveIdx>& members,
                                         SlaveIdx slave, bool join) {
  std::vector<SlaveIdx> ring;
  for (SlaveIdx m : members) {
    if (join || m != slave) ring.push_back(m);
  }
  std::vector<BuddyHandover> plan;
  if (ring.empty()) return plan;
  for (PartitionId pid = 0; pid < pmap.NumPartitions(); ++pid) {
    const SlaveIdx owner = pmap.OwnerOf(pid);
    if (owner == slave ||
        std::find(ring.begin(), ring.end(), owner) == ring.end()) {
      continue;
    }
    const SlaveIdx next = PartitionMap::RingSuccessor(owner, ring);
    if (join ? next == slave && pmap.BuddyOf(pid) != slave
             : pmap.BuddyOf(pid) == slave && next != owner) {
      plan.push_back(BuddyHandover{pid, next});
    }
  }
  return plan;
}

DeclusterAction DecideDecluster(const std::vector<Role>& roles, double beta,
                                std::uint32_t active, std::uint32_t total) {
  std::uint32_t n_sup = 0;
  std::uint32_t n_con = 0;
  for (Role r : roles) {
    if (r == Role::kSupplier) ++n_sup;
    if (r == Role::kConsumer) ++n_con;
  }
  if (n_sup == 0) {
    // Every node is neutral or consumer: the system is under-loaded; shed a
    // node to keep it minimally overloaded.
    return active > 1 ? DeclusterAction::kShrink : DeclusterAction::kNone;
  }
  if (static_cast<double>(n_sup) > beta * static_cast<double>(n_con) &&
      active < total) {
    return DeclusterAction::kGrow;
  }
  return DeclusterAction::kNone;
}

}  // namespace sjoin
