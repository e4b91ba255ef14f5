#include "core/candidates.h"

#include "util/setops.h"

namespace cfs {

// Sorted-unique preconditions (every facility-list producer — PeeringDb,
// Ixp, Topology::add_as, intersections themselves — keeps its vectors
// sorted) are asserted inside util/setops.h in debug builds.

std::vector<FacilityId> facility_intersection(
    const std::vector<FacilityId>& a, const std::vector<FacilityId>& b) {
  return set_intersect(a, b);
}

bool facility_subset(const std::vector<FacilityId>& inner,
                     const std::vector<FacilityId>& outer) {
  return set_subset(inner, outer);
}

std::optional<MetroId> InterfaceInference::city(const Topology& topo) const {
  if (!has_constraint || candidates.empty()) return std::nullopt;
  const MetroId metro = topo.metro_of(candidates.front());
  for (const FacilityId fac : candidates)
    if (topo.metro_of(fac) != metro) return std::nullopt;
  return metro;
}

}  // namespace cfs
