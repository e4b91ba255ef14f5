#include "core/reverse.h"

#include <unordered_set>

namespace cfs {

std::vector<ProbeUnit> plan_reverse_probes(const Topology& topo,
                                           ConstraintFold& fold,
                                           const VpsByAs& vps_by_as,
                                           std::size_t budget) {
  std::vector<ProbeUnit> plan;
  std::unordered_set<Ipv4> planned_far;
  for (const std::uint32_t slot : fold.store.order()) {
    if (plan.size() >= budget) break;
    if (!fold.store.live(slot)) continue;  // vanished at refresh
    const PeeringObservation& obs = fold.store.value(slot);
    if (obs.kind != PeeringKind::Public) continue;
    const std::uint32_t far = *fold.addrs.find(obs.far_addr);
    if (!fold.ifaces.present(far) || fold.ifaces.resolved(far)) continue;
    if (!planned_far.insert(obs.far_addr).second) continue;

    const auto vps_in_far = vps_by_as.find(obs.far_as.value);
    if (vps_in_far == vps_by_as.end()) continue;
    if (!topo.has_as(obs.near_as)) continue;
    const auto targets = MeasurementCampaign::targets_for(topo, obs.near_as);

    std::size_t used = 0;
    for (const Ipv4 target : targets) {
      if (used >= 2 || plan.size() >= budget) break;
      plan.push_back(ProbeUnit{vps_in_far->second.front()->id, target});
      ++used;
    }
  }
  return plan;
}

}  // namespace cfs
