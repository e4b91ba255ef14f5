// Reverse-direction facility search (paper Section 4.3).
//
// Traceroute replies reveal only ingress interfaces, so the far side of a
// crossing stays dark from one direction. When the measurement platforms
// include vantage points *inside* the far-side AS, probing back toward the
// near-side AS turns the far router into a near-side observation and lets
// Steps 1-4 resolve it. This helper plans those reverse probes as Step 4
// probe units; the batch driver (core/cfs.cpp) appends them after the
// targeted follow-ups and probes the whole list in one campaign call.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/fold.h"
#include "traceroute/campaign.h"

namespace cfs {

// Hosting AS -> the vantage points inside it, in VantagePointSet order
// (after any platform filter).
using VpsByAs =
    std::unordered_map<std::uint32_t, std::vector<const VantagePoint*>>;

// Plans up to `budget` reverse probes for public-peering far interfaces
// that are present in the fold but not yet resolved, walking its live
// observations in ascending key order: one probe from the first vantage
// point in the far AS toward each of up to two near-side targets.
// Deterministic given the fold contents.
std::vector<ProbeUnit> plan_reverse_probes(const Topology& topo,
                                           ConstraintFold& fold,
                                           const VpsByAs& vps_by_as,
                                           std::size_t budget);

}  // namespace cfs
