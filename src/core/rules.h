// Pure CFS decision rules, shared by the batch engine (core/cfs.cpp) and
// the streaming epoch engine (stream/engine.cpp).
//
// Two rule families live here:
//
//   * Step-2 constraint planning: which facility lists constrain the near
//     and far interface of one peering observation, plus the remote-
//     suspect and queried-IXP side effects (paper Section 4.3, cases 1-3).
//   * Final link typing: cross-connect vs tethering vs public/private
//     remote, from the same observation plus the databases (Section 4.4).
//
// Both are pure functions of the observation and the public databases —
// no engine state — so both engines derive the same plans and the stream
// engine re-derives epochs deterministically.
// Plans address endpoints by role (near/far) rather than by any engine's
// interface handle, so each engine maps roles onto its own row ids.
#pragma once

#include <cstdint>
#include <vector>

#include "core/remote.h"
#include "core/types.h"
#include "data/facility_db.h"
#include "topology/topology.h"

namespace cfs {

// Constraint plan for one observation. Actions may point either into the
// facility database's own (stable) vectors or into the plan's owned
// intersection results; moving a plan moves the owned vectors' heap
// buffers, so the pointers stay valid across moves.
struct Step2Plan {
  enum class Side : std::uint8_t { Near, Far };
  struct Action {
    Side side = Side::Near;
    const FacilityId* allowed = nullptr;  // nullptr: no facility constraint
    std::uint32_t n = 0;
    bool mark_remote = false;
    bool record_ixp = false;  // remember obs.ixp as a queried constraint
  };
  Action acts[2];
  int n_acts = 0;
  std::vector<FacilityId> owned_near;
  std::vector<FacilityId> owned_far;
};

// Step 2 for a single observation: resolves the near side against the
// AS-to-facility and IXP-to-facility data (public) or the facility
// intersection (private), separating genuinely remote peers from
// missing-data cases via the metro-overlap test and the RTT detector.
[[nodiscard]] Step2Plan plan_step2(const Topology& topo,
                                   const FacilityDatabase& db,
                                   const RemotePeeringDetector& detector,
                                   const PeeringObservation& obs);

// Final interconnection typing for one crossing.
struct LinkTypeDecision {
  InterconnectionType type = InterconnectionType::Unknown;
  // RTT-detector verdict on the far side. For public crossings the caller
  // uses it to gate proximity-heuristic learning (remote far ends must not
  // teach the switch-proximity ranking).
  bool far_remote = false;
};

// `near_remote_suspect` is the near interface's sticky Step-2 case-3a
// flag, the one piece of per-interface state the rule consumes.
[[nodiscard]] LinkTypeDecision classify_link_type(
    const FacilityDatabase& db, const RemotePeeringDetector& detector,
    const PeeringObservation& obs, bool near_remote_suspect);

}  // namespace cfs
