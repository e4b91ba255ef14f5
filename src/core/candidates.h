// The report-facing per-interface inference value, plus sorted
// facility-list helpers. During a run candidate sets live in the dense
// interface table and are narrowed only by IfaceTable::constrain
// (core/iface_table.h); rows are materialised into this type for the
// report.
#pragma once

#include <vector>

#include "core/types.h"
#include "topology/topology.h"

namespace cfs {

// Sorted-vector set helpers (facility lists are kept sorted everywhere).
[[nodiscard]] std::vector<FacilityId> facility_intersection(
    const std::vector<FacilityId>& a, const std::vector<FacilityId>& b);
[[nodiscard]] bool facility_subset(const std::vector<FacilityId>& inner,
                                   const std::vector<FacilityId>& outer);

// Per-interface inference state.
struct InterfaceInference {
  Ipv4 addr;
  Asn asn;

  // No constraint applied yet vs. an (possibly still wide) candidate set.
  bool has_constraint = false;
  std::vector<FacilityId> candidates;  // sorted

  bool remote_suspect = false;  // Step 2 case 3a: no overlap with the IXP
  int resolved_iteration = -1;  // first iteration with a single candidate
  int conflicts = 0;            // constraints that would have emptied the set

  // Follow-up bookkeeping.
  std::vector<VantagePointId> seen_from;  // VPs whose traces contained addr
  std::vector<IxpId> queried_ixps;        // IXPs already used as constraints

  [[nodiscard]] bool resolved() const {
    return has_constraint && candidates.size() == 1;
  }
  [[nodiscard]] FacilityId facility() const { return candidates.front(); }

  // Metro shared by all candidates, if any (the paper's "constrained to a
  // single city" outcome for ~9% of unresolved interfaces).
  [[nodiscard]] std::optional<MetroId> city(const Topology& topo) const;
};

}  // namespace cfs
